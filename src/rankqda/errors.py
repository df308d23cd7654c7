"""Exception types and the value checks shared across the package."""

import math
import numbers

import numpy as np


class DataError(ValueError):
    """Raised when input data contains missing or non-finite values."""


class TrainingError(ValueError):
    """Raised when training cannot proceed (degenerate labels, failed blocks)."""


class SingularMatrixError(ValueError):
    """Raised when a covariance matrix has no Cholesky factor.

    Callers can recover by increasing the ridge.
    """


def checked_int(value, what: str, minimum: int) -> int:
    """``value`` as an int if it is an integer (numpy's too, not bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        kind = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def checked_number(value, what: str, low: float = -math.inf, high: float = math.inf):
    """``value`` if it is a finite real number (not bool) in [low, high].

    Python ints and floats are returned as given, so they serialize as
    given; other reals, such as numpy scalars, become a float.
    """
    try:
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if not low <= value <= high:
        bounds = f"be >= {low:g}" if high == math.inf else f"lie in [{low:g}, {high:g}]"
        raise ValueError(f"{what} must {bounds}, got {value}")
    return value if isinstance(value, (int, float)) else float(value)


def real_array(value, message: str, error: type[ValueError] = ValueError) -> np.ndarray:
    """``value`` as an array, not yet cast; raises ``error(message)`` if it is complex.

    numpy casts a complex array to float by keeping its real part, with
    only a ``ComplexWarning``, so whatever casts outside input to float
    passes it through this check first.
    """
    array = np.asarray(value)
    if array.dtype.kind == "c":
        raise error(message)
    return array

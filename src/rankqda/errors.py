"""Exception types and the value checks shared across the package.

Two rules have their one owner here. :func:`real_array` is the one
converter of outside input to a float array: every model constructor and
every public numeric entry passes its array arguments through it, so a
complex array is rejected with the caller's message instead of being cast
to its real part. :func:`freeze` is the one write of a frozen dataclass
field: each model type's ``__post_init__`` sets what it checked and
derived through it, and an array set that way is read-only.
"""

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


def real_array(
    value, message: str, error: type[ValueError] = ValueError, copy: bool = False, order: str = "K"
) -> np.ndarray:
    """``value`` as a float array; raises ``error(message)`` if it is complex.

    numpy casts a complex array to float by keeping its real part, with
    only a ``ComplexWarning``, so outside input is cast only here. The
    result is ``value`` itself when that is already a float array in
    ``order``, unless ``copy`` asks for the caller's own copy.
    """
    array = np.asarray(value)
    if array.dtype.kind == "c":
        raise error(message)
    return array.astype(float, order=order, copy=copy)


def freeze(obj, **fields) -> None:
    """Set each of ``fields`` on the frozen dataclass ``obj``, at construction.

    The one write of a frozen field: ``__post_init__`` sets through it
    what it checked or derived. An array is marked read-only first, so no
    caller can write what the object holds.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)

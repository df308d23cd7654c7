"""Random linear maps from score space to the projected space.

Three flavors are provided: ``gaussian`` (i.i.d. N(0, 1/d) entries),
``haar`` (orthonormalized Gaussian rows, uniformly distributed over the
Stiefel manifold), and ``axis`` (d distinct coordinates). This module
owns the flavor rule: configs, projections and sampling all check a
flavor through :func:`_check_flavor`, with one text. A
:class:`Projection` checks its own fields at construction (flavor,
matrix, stream), so :func:`project` and every type that holds one can
rely on them. When a projection ``A`` is applied to scores with class
covariance ``C``, the projected covariance is ``A C A'``.

Each flavor draws once from its generator. For the same generator
state, ``gaussian`` and ``haar`` start from the same ``(d, p)`` draw
``G``, and the ``haar`` matrix is an invertible ``d x d`` map of the
``gaussian`` one: ``S R'^{-1} G`` from the QR factorization ``G' = Q R``,
where ``S`` holds the signs of ``R``'s diagonal. The centred QDA is
invariant under an invertible map of the projected space up to rounding
and the ridge, which is added as ``ridge * I`` after the map. So the two
flavors usually select the same candidates, with the same training
errors and ``alpha``, but a row close to some block's boundary can get a
different vote: on the desk scenario at seed 42, 2 of 20000 held-out
vote fractions differ by one block's vote, with every label the same.
Their model files differ.
"""

from dataclasses import dataclass

import numpy as np

from .errors import checked_int, freeze, real_array

FLAVORS = ("gaussian", "haar", "axis")


def _check_flavor(flavor) -> None:
    """Raise ``ValueError`` unless ``flavor`` is one of :data:`FLAVORS`."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")


@dataclass(frozen=True, eq=False)
class Projection:
    """A (d, p) projection matrix with its flavor and stream provenance.

    Construction checks a known flavor, a real, 2-d, finite matrix (a
    complex one is rejected rather than cast to its real part) and a
    stream of None or a tuple of integers >= 0, stored as Python ints.
    Holds a read-only float copy of ``matrix``, so no caller can write
    the matrix an ensemble votes with or saves.
    """

    matrix: np.ndarray
    flavor: str
    stream: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_flavor(self.flavor)
        matrix = real_array(self.matrix, "projection matrix must be real, not complex", copy=True)
        if matrix.ndim != 2:
            raise ValueError(f"projection matrix must be 2-d, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ValueError("projection matrix has a non-finite value")
        stream = self.stream
        if stream is not None:
            if not isinstance(stream, tuple):
                raise ValueError(f"stream must be None or a tuple, got {stream!r}")
            stream = tuple(checked_int(value, "stream entry", 0) for value in stream)
        freeze(self, matrix=matrix, stream=stream)

    @property
    def n_components(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]


def sample_projection(p: int, d: int, flavor: str, rng: np.random.Generator) -> Projection:
    """Draw a (d, p) projection of the requested flavor.

    Deterministic given the generator state, which is drawn from once.
    ``haar`` rows are orthonormal (``A A' = I`` to machine precision): the
    Householder QR ``G' = Q R`` of a Gaussian ``(d, p)`` draw ``G`` gives
    orthonormal columns of ``Q`` whatever the rank of ``G``, and column j
    takes the sign of ``R_jj`` (+1 where ``R_jj`` is zero, a
    probability-zero event), which makes the distribution uniform. ``axis``
    rows are distinct standard basis vectors. The projection's
    ``stream`` is None.
    """
    return Projection(matrix=_sample_matrices(p, d, flavor, [rng])[0], flavor=flavor)


def _sample_matrices(p: int, d: int, flavor: str, rngs) -> np.ndarray:
    """One (d, p) matrix per stream, stacked into a (streams, d, p) array.

    The one sampling recipe behind :func:`sample_projection` and the
    ensemble's blocks. ``rngs`` is any iterable of generators; each is
    drawn from once, before the next is taken, so the streams may take
    turns on one generator. Matrix k depends only on stream k, and equals
    what :func:`sample_projection` draws from a generator at that stream's
    start, because the stacked ``np.linalg.qr`` factors each matrix with
    the same LAPACK calls as a single one.
    """
    if not 1 <= d <= p:
        raise ValueError(f"projection needs 1 <= d <= p, got d={d}, p={p}")
    _check_flavor(flavor)

    if flavor == "axis":
        columns = np.array([rng.choice(p, size=d, replace=False) for rng in rngs])
        matrices = np.zeros((len(columns), d, p))
        matrices[np.arange(len(columns))[:, None], np.arange(d), columns] = 1.0
        return matrices
    G = np.stack([rng.standard_normal((d, p)) for rng in rngs])
    if flavor == "gaussian":
        return G / np.sqrt(d)
    Q, R = np.linalg.qr(G.transpose(0, 2, 1))
    signs = np.where(np.diagonal(R, axis1=1, axis2=2) < 0.0, -1.0, 1.0)
    return (Q * signs[:, None, :]).transpose(0, 2, 1)


def project(A: Projection, S) -> np.ndarray:
    """Apply the projection to score rows: row i of the output is A @ S_i.

    Raises ``ValueError`` if ``S`` is complex or its last axis is not p
    long.
    """
    S = real_array(S, "scores must be real, not complex")
    if S.shape[-1] != A.n_features:
        raise ValueError(
            f"score dimension mismatch: projection expects p={A.n_features}, "
            f"got shape {S.shape}"
        )
    return S @ A.matrix.T

"""Random linear maps from score space to the projected space.

Three flavors are provided: ``gaussian`` (i.i.d. N(0, 1/d) entries),
``haar`` (orthonormalized Gaussian rows, uniformly distributed over the
Stiefel manifold), and ``axis`` (d distinct coordinates). When a
projection ``A`` is applied to scores with class covariance ``C``, the
projected covariance is ``A C A'``.

For the same generator state, ``gaussian`` and ``haar`` start from the
same ``(d, p)`` draw ``G``, and the ``haar`` matrix is an invertible
``d x d`` map of the ``gaussian`` one: the sign-corrected ``R'^{-1} G``
from the QR factorization ``G' = Q R`` (unless the probability-zero
re-draw happens). The centred QDA is invariant under an invertible map
of the projected space up to the ridge, which is added as ``ridge * I``
after the map, so the two flavors select the same candidates and give
the same votes in practice while their model files differ.
"""

from dataclasses import dataclass

import numpy as np

FLAVORS = ("gaussian", "haar", "axis")


@dataclass(frozen=True, eq=False)
class Projection:
    """A (d, p) projection matrix with its flavor and stream provenance.

    Holds a read-only float copy of ``matrix``, so no caller can write
    the matrix an ensemble votes with or saves.
    """

    matrix: np.ndarray
    flavor: str
    stream: tuple[int, ...] | None = None

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)  # frozen: the one write, at construction

    @property
    def n_components(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]


def sample_projection(
    p: int,
    d: int,
    flavor: str,
    rng: np.random.Generator,
    stream: tuple[int, ...] | None = None,
) -> Projection:
    """Draw a (d, p) projection of the requested flavor.

    Deterministic given the generator state. ``haar`` rows are
    orthonormal (``A A' = I`` to machine precision), built by QR of a
    Gaussian matrix with the sign correction that makes the distribution
    uniform; the probability-zero rank-deficient draw is guarded by a
    re-draw. ``axis`` rows are distinct standard basis vectors.
    """
    return Projection(matrix=_sample_matrices(p, d, flavor, [rng])[0], flavor=flavor, stream=stream)


def _sample_matrices(p: int, d: int, flavor: str, rngs) -> np.ndarray:
    """One (d, p) matrix per generator, stacked into a (len(rngs), d, p) array.

    The one sampling recipe behind :func:`sample_projection` and the
    ensemble's blocks: matrix k depends only on ``rngs[k]``, and equals
    what :func:`sample_projection` draws from that generator, because the
    stacked ``np.linalg.qr`` factors each matrix with the same LAPACK
    calls as a single one. A ``haar`` draw with a rank-deficient factor
    is re-drawn from its own generator.
    """
    if not 1 <= d <= p:
        raise ValueError(f"projection needs 1 <= d <= p, got d={d}, p={p}")
    if flavor not in FLAVORS:
        raise ValueError(f"unknown projection flavor {flavor!r}; choose from {FLAVORS}")

    if flavor == "axis":
        matrices = np.zeros((len(rngs), d, p))
        for k, rng in enumerate(rngs):
            matrices[k, np.arange(d), rng.choice(p, size=d, replace=False)] = 1.0
        return matrices
    G = np.stack([rng.standard_normal((d, p)) for rng in rngs])
    if flavor == "gaussian":
        return G / np.sqrt(d)
    Q, R = np.linalg.qr(G.transpose(0, 2, 1))
    diag = np.diagonal(R, axis1=1, axis2=2)  # a view, so it follows each re-draw
    for k in np.flatnonzero(~(np.abs(diag) > 1e-12).all(axis=1)):
        while not (np.abs(diag[k]) > 1e-12).all():
            Q[k], R[k] = np.linalg.qr(rngs[k].standard_normal((d, p)).T)
    return (Q * np.sign(diag)[:, None, :]).transpose(0, 2, 1)


def project(A: Projection, S) -> np.ndarray:
    """Apply the projection to score rows: row i of the output is A @ S_i."""
    S = np.asarray(S, dtype=float)
    if S.shape[-1] != A.n_features:
        raise ValueError(
            f"score dimension mismatch: projection expects p={A.n_features}, "
            f"got shape {S.shape}"
        )
    return S @ A.matrix.T

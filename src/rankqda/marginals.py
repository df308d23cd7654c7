"""Empirical-CDF probit transform and the standard normal cdf/quantile pair.

Each feature is mapped through its empirical distribution function and
then through the standard normal quantile, producing scores

    score = inv_norm_cdf(count / (n + 1))

where ``count`` is the number of training values less than or equal to
the point (ties share the maximal count). The scores depend only on the
ranks of the data, so any strictly increasing per-feature transformation
of the inputs leaves them bit-identical.

Because ``count`` is an integer in ``1..n``, a model fitted on n rows can
only ever produce n distinct scores. :class:`MarginalModel` derives them
at construction as a score table, ``inv_norm_cdf(arange(1, n + 1) / (n + 1))``,
and both transforms turn counts into scores by indexing it, so the
quantile function runs n times per model rather than once per entry.

The model also owns the layout of its sorted values: it holds them
column-contiguous (Fortran order), so each feature's sorted values are
adjacent in memory, which is what the per-feature binary search of
:func:`transform_new` reads. A fitted, hand-built or loaded model
therefore holds the same arrays in the same layout. Its arrays are
read-only; a hand-built table that is already a column-contiguous float
array is kept without a copy, so the caller's array becomes read-only.

:func:`fit_transform` counts the training rows without a search. One
argsort per column places each value in the sorted column, and its count
is one past the last position of its tie run there, so the count does not
depend on how the argsort orders ties (``-0.0`` and ``0.0`` form one run).
The table itself comes from a plain sort of each column.

:func:`transform_new` counts new points by one of two searches, chosen
by the number of rows. Above ``_FENCE_ROWS`` rows, one ``np.searchsorted``
per feature runs over that column. With more than one usable CPU, that
loop cuts the columns into ``min(_WORKERS, p)`` contiguous slabs
(``_WORKERS`` is one per usable CPU, at most 4) and, for each call,
starts one thread per slab but the last, which the calling thread
searches itself; every thread is joined before the call returns, so no
thread outlives it. Each slab writes only its own columns of the counts,
and numpy releases the GIL inside the search, so the slabs run side by
side. Each column's counts are the same search of the same values
whichever thread runs it, so the counts, and so the scores, do not
depend on the number of slabs. With one usable CPU the loop runs inline
and starts no thread.
For ``_FENCE_ROWS`` rows or fewer, the per-call overhead
of that loop would be most of the cost, so the model also derives a
fence index at construction (never persisted): the sorted values at
positions ``W, 2W, ...`` of each column (``W = _FENCE_WIDTH``), stored as
one ascending complex key ``j + 1j*fence`` (numpy orders complex numbers
by real part, then imaginary part). One search of that key finds, for every
entry at once, the number f of column j's fences ``<= x``; the count is
then ``f*W`` plus the number of values ``<= x`` among the W values from
position ``f*W`` (a window moved back to end at the column's end when it
would pass it). Values before the window are ``<= x`` and values after it
are ``> x``, so both searches give the same counts. The key takes 16 bytes
per fence, about 1/8 of the table.

The transforms check the feature matrix (real, not complex; shape,
finiteness, feature count); :class:`MarginalModel` checks that its
table is real, 2-d and non-empty and that its columns are sorted and
finite, for fitted, hand-built and loaded models alike. A NaN fails the
order check (unless the column has one row), and a sorted column can
hold an infinity only at either end, so the finiteness check that
follows reads just the first and last row.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DataError, freeze, real_array

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Acklam's rational approximation to the standard normal quantile.
# Raw accuracy is ~1.15e-9 absolute; one Halley step against norm_cdf
# (below) pushes it to machine precision.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425

# Sorted values per fence of the fence index; the few-row search compares
# each entry with one window of this many values.
_FENCE_WIDTH = 16
# Up to this many rows are counted through the fence index, more by one
# searchsorted per feature. Timed on 2 CPUs against the inline loop, the fence
# search is faster up to about 24 rows at p=50 (20000 x 50) and up to about 8
# at p=10 (500 x 10); against the loop split over 2 threads (one BLAS thread,
# median of 200), up to about 64 rows at p=50 and about 160 at p=10.
_FENCE_ROWS = 16
# Slabs of the per-feature loop: one per usable CPU, at most 4. With one, the
# loop runs inline and no thread is started.
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

_COMPLEX_FEATURES = "complex feature values are not supported; features must be real"


def norm_cdf(z):
    """Standard normal cumulative distribution function.

    Accepts a scalar or an ndarray; returns the same shape. Exact to
    double precision over the whole real line.

    Raises
    ------
    ValueError
        If the argument is complex.
    """
    z = real_array(z, "cdf argument must be real, not complex")
    out = ndtr(z)
    return float(out) if z.ndim == 0 else out


def _acklam(u):
    """Rational approximation on the lower half (0, 0.5]; callers mirror.

    Both regions, the tail below ``_P_LOW`` and the central one, are
    evaluated on the whole array, and one ``np.where`` picks each entry's
    region. An entry's value is its region's formula alone, whichever
    other entries share the array. Over (0, 0.5] neither formula
    overflows or takes the log of 0, so the unused one raises no warning.
    """
    q = np.sqrt(-2.0 * np.log(u))
    tail = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
           ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    q = u - 0.5
    r = q * q
    central = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
              (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    return np.where(u < _P_LOW, tail, central)


def inv_norm_cdf(u):
    """Standard normal quantile function on the open interval (0, 1).

    Rational initial guess refined by one Halley step against
    :func:`norm_cdf`; the result satisfies
    ``|norm_cdf(inv_norm_cdf(u)) - u| <= 1e-12`` for u away from the
    representable extremes. Accepts a scalar or an ndarray; returns a
    float for a scalar or a 0-d array, else an array of the same shape.

    Raises
    ------
    ValueError
        If the argument is complex or any element is outside the open
        interval (0, 1).
    """
    u = real_array(u, "quantile argument must be real, not complex")
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")

    # Work in the lower half and mirror: the residual norm_cdf(z) - q is
    # then a difference of same-scale small numbers, so the Halley step
    # keeps full relative precision even for u near 1 (where computing
    # norm_cdf(z) - u directly would cancel against the 1).
    upper = u > 0.5
    q = np.where(upper, 1.0 - u, u)

    z = _acklam(q)
    pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
    r = (ndtr(z) - q) / pdf  # pdf > 0: q >= 5e-324 gives z >= -38.47, where pdf >= 1.8e-322
    z = z - r / (1.0 + 0.5 * z * r)
    z = np.where(upper, -z, z)
    return float(z) if z.ndim == 0 else z


@dataclass(frozen=True, eq=False)
class MarginalModel:
    """Per-feature sorted training values backing the rank transform.

    ``sorted_columns`` is an (n, p) array-like with n, p >= 1. Construction
    converts it once to a column-contiguous float array (a copy only if
    it is not one already), rejecting a complex table rather than keeping
    its real part, then checks the shape and that every column is
    ascending and finite, and derives
    ``score_table``, entry ``k - 1`` of which is the score of count k,
    ``inv_norm_cdf(k / (n + 1))``, and ``fence_key``, the fence index of
    the few-row search: for each column j in turn, ``j + 1j*v`` for the
    sorted values v at positions ``W, 2W, ...`` (``W = _FENCE_WIDTH``),
    shape ``(p * ((n - 1) // W),)``. Neither derived array is persisted.
    All three arrays are read-only: a hand-built table that is already a
    column-contiguous float array is kept without a copy, so that array
    becomes read-only too. Immutable and safe for concurrent reads.
    """

    sorted_columns: np.ndarray
    score_table: np.ndarray = field(init=False, repr=False)
    fence_key: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        table = real_array(self.sorted_columns, "marginal table must be real, not complex", order="F")
        if table.ndim != 2 or 0 in table.shape:
            raise ValueError(f"marginal table must be a non-empty 2-d array, got shape {table.shape}")
        unsorted = np.flatnonzero(~(table[1:] >= table[:-1]).all(axis=0))  # NaN is unsorted
        if unsorted.size:
            raise ValueError(f"marginal column {unsorted[0]} is not sorted ascending")
        infinite = np.flatnonzero(~np.isfinite(np.concatenate((table[:1], table[-1:]))).all(axis=0))
        if infinite.size:
            raise ValueError(f"marginal column {infinite[0]} has a non-finite value")
        n, p = table.shape
        scores = inv_norm_cdf(np.arange(1, n + 1) / (n + 1.0))
        # (p, fences) in C order, so column j's fences are one ascending run
        fences = np.arange(p)[:, None] + 1j * table[_FENCE_WIDTH::_FENCE_WIDTH].T
        freeze(self, sorted_columns=table, score_table=scores, fence_key=fences.ravel())

    @property
    def n_samples(self) -> int:
        return self.sorted_columns.shape[0]

    @property
    def n_features(self) -> int:
        return self.sorted_columns.shape[1]


def _check_finite_matrix(X: np.ndarray) -> None:
    bad = ~np.isfinite(X)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataError(f"non-finite value at row {i}, column {j}")


def _search_columns(table, X, counts, lo, hi) -> None:
    """Write columns ``lo:hi`` of ``counts``: training values <= X, per column."""
    for j in range(lo, hi):
        counts[:, j] = np.searchsorted(table[:, j], X[:, j], side="right")


def _scores(model: MarginalModel, X: np.ndarray) -> np.ndarray:
    """Table scores of the counts of training values <= X, clamped to [1, n].

    The count search of :func:`transform_new`; :func:`fit_transform` takes
    its training counts from its argsort instead.
    """
    n, p = model.sorted_columns.shape
    if X.shape[0] <= _FENCE_ROWS:
        j = np.arange(p)
        # complex order compares parts with <, so -0.0 and 0.0 tie as in the loop
        fences = np.searchsorted(model.fence_key, j + 1j * X, side="right")
        fences -= j * (model.fence_key.size // p)
        width = min(_FENCE_WIDTH, n)
        start = np.minimum(fences * _FENCE_WIDTH, n - width)
        window = model.sorted_columns.T.ravel()[(start + j * n)[..., None] + np.arange(width)]
        counts = start + (window <= X[..., None]).sum(axis=-1)
    else:
        counts = np.empty(X.shape, dtype=np.intp)
        slabs = min(_WORKERS, p)
        edges = [p * k // slabs for k in range(slabs + 1)]
        tasks = []
        # a thread per slab but the last, which this thread searches; none for one slab
        with ThreadPoolExecutor(max(slabs - 1, 1), thread_name_prefix="rankqda-search") as pool:
            try:
                for lo, hi in zip(edges[:-2], edges[1:-1]):
                    tasks.append(pool.submit(_search_columns, model.sorted_columns, X, counts, lo, hi))
            except RuntimeError:  # at interpreter exit no executor takes new work
                pass
            _search_columns(model.sorted_columns, X, counts, edges[len(tasks)], p)  # what no task took
        for task in tasks:
            task.result()
    # side="right" counts never exceed n; a point below the minimum counts 0 and scores as 1.
    np.maximum(counts, 1, out=counts)
    return model.score_table[counts - 1]


def fit_transform(X) -> tuple[MarginalModel, np.ndarray]:
    """Fit the per-feature empirical CDFs and return training probit scores.

    Parameters
    ----------
    X : array_like, shape (n, p)
        Training feature matrix, all entries finite.

    Returns
    -------
    model : MarginalModel
        Sorted feature columns for out-of-sample transforms.
    scores : ndarray, shape (n, p)
        ``inv_norm_cdf(count / (n + 1))`` where ``count`` is the number
        of training values <= the entry within its column. All scores
        lie in ``[inv_norm_cdf(1/(n+1)), inv_norm_cdf(n/(n+1))]``.

    Each column is sorted once for the table and argsorted once for the
    counts: an entry's count is one past the last position of its tie run
    in the sorted column, so no search runs over the training rows. The
    counts, and so the scores, equal those :func:`transform_new` gives the
    same rows.
    """
    X = real_array(X, _COMPLEX_FEATURES, DataError)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got ndim={X.ndim}")
    n, p = X.shape
    _check_finite_matrix(X)

    by_feature = X.T.copy()  # (p, n), one feature per contiguous row: the model's layout
    order = np.argsort(by_feature, axis=1)  # numpy's default kind; ties may land in any order
    by_feature.sort(axis=1)
    model = MarginalModel(by_feature.T)
    # A value's count is one past the last position of its tie run in the
    # sorted row, whichever order the argsort gave the ties; != treats -0.0
    # and 0.0 as one run, as searchsorted does.
    run_ends = np.ones((p, n), dtype=bool)
    np.not_equal(by_feature[:, 1:], by_feature[:, :-1], out=run_ends[:, :-1])
    last = np.where(run_ends, np.arange(n), n)
    del run_ends
    # each position -> its run's end, in place so the pass holds no third (p, n) int array
    np.minimum.accumulate(last[:, ::-1], axis=1, out=last[:, ::-1])
    counts = np.empty((n, p), dtype=np.intp)  # C order, the layout the moment matmuls read
    np.put_along_axis(counts.T, order, last, axis=1)  # count - 1, the score table's index
    del order, last
    return model, model.score_table[counts]


def transform_new(model: MarginalModel, x) -> np.ndarray:
    """Probit scores of out-of-sample points under a fitted model.

    For feature j the count of training values <= x_j is clamped to
    ``[1, n]`` so the quantile argument stays inside (0, 1); points below
    the training minimum score ``inv_norm_cdf(1/(n+1))``, points at or
    above the maximum score ``inv_norm_cdf(n/(n+1))``. A point equal to a
    training row reproduces that row's training scores exactly.

    Accepts a single p-vector or an (m, p) matrix of rows.
    """
    x = real_array(x, _COMPLEX_FEATURES, DataError)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimension mismatch: model expects p={model.n_features}, "
            f"got shape {x.shape}"
        )
    _check_finite_matrix(X)

    scores = _scores(model, X)
    return scores[0] if single else scores

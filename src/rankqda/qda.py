"""Quadratic discriminant analysis over projected probit scores.

Both classes are modelled as centred Gaussians (the rank transform pins
the marginal location at zero, so no mean vector is estimated). A model
holds the class priors and the per-class second-moment matrices of the
projected scores. :class:`RqdaModel` is the one constructor for fitted,
oracle and loaded models alike: it keeps read-only copies of the
covariances it is given, factors each one once, and keeps of those
factors only what it votes with, the two terms of the quadratic decision
function

    log(prior1/prior0) - 0.5*log(det1/det0) - 0.5*s'(inv1 - inv0)s

a constant ``const`` and a quadratic form in ``D = inv1 - inv0``. The
inverses and log-determinants themselves are not kept.
:func:`stacked_discriminant` evaluates it for many blocks at once from
stacked ``D`` matrices and constants; the
ensemble's prediction kernel calls it once per row chunk, and
:func:`discriminant` is its one-block case.

One private, unchecked core, ``_fit``, fits a model on scores whose
class rows and priors are already known: the auto ridge, then both
class covariances from the moment helper behind
:func:`estimate_projected_covariance`, so its results equal the public
estimators' bit for bit. :func:`fit_rqda` is its checking boundary, and
:func:`ensemble.train_ensemble`, which checks and splits the labels once
per fit, calls it directly for each candidate its batched selection
refits. Each caller warns once per class too small for a full-rank
covariance.

This module owns every rule that turns class second moments into
covariances and discriminant terms, for one model and for a stack of
candidates alike. ``_ridged`` is the covariance rule (the exactly
symmetric part plus ``ridge * I``, nothing added at ridge 0) and
``_discriminant_terms`` the ``D``/``const`` formula. The batched
selection gets a whole block of candidates' terms from the private
``_stacked_terms``: the covariances ``A M_r A'`` transported from each
class's second moment ``M_r``, ``_fit``'s auto ridge, one stacked
Cholesky factor per covariance, and a scale for how far each
discriminant can move under rounding. Those terms only rank candidates
and are never stored.

The private ``_sure_error_terms`` turns them into the test behind the
selection's lower bounds. It takes the eigenbasis ``D = V diag(lam) V'``
of each candidate's ``D``, in which a row's quadratic form and squared
norm are both linear in the squares of ``u = V'A s``. It builds the
``-0.5*sign*lam`` weights and the ``sign*const`` thresholds of a sure
error, each widened by the unsure-row margin ``_UNSURE_MARGIN`` times
that scale. A row is counted only where its batched sign would survive
the covariances moving by that fraction. The selection counts in
float32, and ``_sure_error_terms`` owns that rule too. It returns ``W``
and the weights cast to float32, and each class's float32 limits: from
a constant ``c`` per class and candidate, derived at ``_UNSURE_MARGIN``,
such that a row ``s``'s float32 value stays within ``c * ||s||^2`` of
its exact value, it lowers each class's thresholds by ``c`` times the
class's largest ``||s||^2`` and rounds them down to float32. The count
those limits serve lives here too, next to the margin that proves it:
``_bound_rows`` gathers each class's rows once per fit and forms from
them the class second moments ``M_r``, one float32 copy of the rows and
their largest ``||s||^2``, and ``_lower_bounds`` runs the
arithmetic the margin's derivation models, per class and chunk of rows
one GEMM, one square, one small GEMM and one compare with the limits.
``_chunk_rows`` is the one chunk rule of that pass and of the ensemble's
prediction kernel. The ensemble only orders its refits by the bounds. A
batch with a non-finite term, in float64 or in float32, raises
``np.linalg.LinAlgError``, as one whose covariance has no factor does,
so the ensemble has one fallback for both: it refits the block.

Every SPD matrix, whether an :class:`RqdaModel` covariance or the
argument of :func:`inverse_spd` or :func:`log_det_spd`, passes one gate,
the private ``_factor_spd``: it rejects a matrix that is not square and
2-d, then one with any non-finite entry (a plain ``ValueError``, so
training never discards such a candidate as singular), takes one
Cholesky factor, and solves for the
inverse with LAPACK ``dpotrs``, the routine that
``scipy.linalg.cho_solve`` wraps, without its finiteness re-check. It is
the model side's one SPD gate; the scenario generator in :mod:`synthdata`
factors its correlation matrices at one site of its own. The stacked
candidate terms take a second route, a stacked Cholesky factor and
inverse: ``dpotrs`` has no stacked form, and the gate's inverse is
pinned bit for bit to ``scipy.linalg.cho_solve``.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import SingularMatrixError, TrainingError, checked_number, freeze, real_array

# Auto ridge scale relative to the mean squared projected score.
RIDGE_SCALE = 1e-6


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.swapaxes(-1, -2)) / 2.0


def _ridged(M: np.ndarray, ridge) -> np.ndarray:
    """The exactly symmetric part of ``M`` plus ``ridge * I``: the covariance rule.

    ``M`` is one (d, d) matrix or a stack of them, and ``ridge`` a number
    or an array that broadcasts against the stack. At ridge 0 nothing is
    added, so no ``-0.0`` entry becomes ``0.0``.
    """
    M = _symmetrize(M)
    return M + ridge * np.eye(M.shape[-1]) if np.any(ridge) else M


def _class_rows(labels) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of class 0 and of class 1, in row order.

    The one label check: raises unless ``labels`` is a non-empty 1-d
    array of 0/1 values.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    rows = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    if rows[0].size + rows[1].size != labels.size:
        raise ValueError("labels must be 0/1")
    return rows


def _priors(rows) -> tuple[float, float]:
    n0, n1 = rows[0].size, rows[1].size
    n = n0 + n1
    if n0 == 0 or n1 == 0:
        raise TrainingError(f"degenerate class distribution: all {n} labels are {int(n0 == 0)}")
    return n0 / n, n1 / n


def _split_scores(Z, labels) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``Z`` as a real (n, d) float array and the rows of each class of its n labels."""
    Z = real_array(Z, "scores must be real, not complex")
    rows = _class_rows(labels)
    n = rows[0].size + rows[1].size
    if Z.ndim != 2 or Z.shape[0] != n:
        raise ValueError(f"scores and labels disagree: {Z.shape} rows vs {n} labels")
    return Z, rows


def _warn_small_classes(rows, d: int, classes=(0, 1)) -> None:
    """Warn once for each of ``classes`` with fewer than d+1 rows.

    The warning names the line that called the public function calling
    this helper.
    """
    for r in classes:
        if rows[r].size < d + 1:
            warnings.warn(
                f"class {r} has only {rows[r].size} samples for a {d}-dimensional "
                "covariance; the estimate is rank-deficient without a ridge",
                stacklevel=3,
            )


def _second_moment(Zr: np.ndarray, ridge: float) -> np.ndarray:
    """``sum(z z') / n_r + ridge * I`` over the ``n_r >= 1`` class rows ``Zr``."""
    return _ridged(Zr.T @ Zr / Zr.shape[0], ridge)


def estimate_priors(labels) -> tuple[float, float]:
    """Empirical class proportions (prior0, prior1).

    Raises
    ------
    TrainingError
        If only one class is present.
    """
    return _priors(_class_rows(labels))


def estimate_projected_covariance(Z, labels, r: int, ridge: float = 0.0) -> np.ndarray:
    """Second-moment matrix of the class-``r`` rows of ``Z`` plus a ridge.

    Returns ``sum(z z') / n_r + ridge * I`` over rows with label ``r``,
    stored as its exactly symmetric part. Scores are centred by
    construction, so this is the pseudo-likelihood estimate of the
    class-conditional correlation of the projected scores.

    Warns when fewer than d+1 class-``r`` samples are available; raises
    :class:`TrainingError` when there are none.
    """
    Z, rows = _split_scores(Z, labels)
    if r not in (0, 1):
        raise ValueError(f"class must be 0 or 1, got {r}")
    ridge = checked_number(ridge, "ridge", 0.0)
    if rows[r].size == 0:
        raise TrainingError(f"no samples of class {r}")
    _warn_small_classes(rows, Z.shape[1], (r,))
    return _second_moment(Z[rows[r]], ridge)


def _factor_spd(M: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """``(inverse, log_det)`` of an SPD matrix from one Cholesky factor.

    Raises ``ValueError`` naming ``what`` if ``M`` is not a square 2-d
    matrix or any entry is not finite, and :class:`SingularMatrixError`
    if ``M`` has no factor.
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{what} has a non-finite value")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"{what} is not positive definite; increase the ridge") from None
    inv = dpotrs(L, np.eye(len(M)), lower=True)[0] if len(M) else L  # dpotrs rejects 0x0
    return _symmetrize(inv), float(2.0 * np.sum(np.log(np.diag(L))))


def _discriminant_terms(inv, log_det, priors):
    """``D = inv1 - inv0`` and ``const = log(prior1/prior0) - 0.5*(log_det1 - log_det0)``.

    ``inv`` and ``log_det`` hold class 0's and class 1's inverse and
    log-determinant, of one model or of a stack of candidates.
    """
    return inv[1] - inv[0], np.log(priors[1] / priors[0]) - 0.5 * (log_det[1] - log_det[0])


def log_det_spd(M) -> float:
    """Log-determinant of a symmetric positive definite matrix.

    Computed as twice the log-sum of the Cholesky diagonal. Raises
    ``ValueError`` if ``M`` is complex or not square or has an entry that
    is not finite, and :class:`SingularMatrixError` if the factorization
    fails.
    """
    return _factor_spd(real_array(M, "matrix must be real, not complex"), "matrix")[1]


def inverse_spd(M) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    The result is symmetrized exactly; ``max|M @ inv - I|`` stays below
    1e-8 for reasonably conditioned inputs. Raises as :func:`log_det_spd`.
    """
    return _factor_spd(real_array(M, "matrix must be real, not complex"), "matrix")[0]


@dataclass(frozen=True, eq=False)
class RqdaModel:
    """Quadratic discriminant for one projection: priors, class covariances, ridge.

    Construction checks the priors (each a finite number in (0, 1),
    summing to 1 within 1e-12; a numpy scalar is stored as a float), the
    ridge (a finite number >= 0, stored as a float) and the covariances
    (real, square, same-shape, finite, positive definite and exactly
    symmetric), then derives, from one Cholesky factor per
    covariance, the two terms it votes with, ``D = inv1 - inv0`` and
    ``const`` (never persisted); the inverses and log-determinants are
    locals of that step. Its fields are the five it is built from and
    those two. It holds its own read-only copies of the covariances and a
    read-only ``D``, so no caller can write what it votes with or saves.
    Immutable and safe to share across concurrent readers.
    """

    prior0: float
    prior1: float
    cov0: np.ndarray
    cov1: np.ndarray
    ridge: float
    D: np.ndarray = field(init=False, repr=False)
    const: float = field(init=False, repr=False)

    def __post_init__(self):
        p0, p1 = checked_number(self.prior0, "prior0"), checked_number(self.prior1, "prior1")
        if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0 and abs(p0 + p1 - 1.0) <= 1e-12):
            raise ValueError(
                f"priors must lie in (0, 1) and sum to 1, got prior0={p0}, prior1={p1}"
            )
        ridge = float(checked_number(self.ridge, "ridge", 0.0))
        cov0, cov1 = (  # the model's own copies
            real_array(cov, f"class {r} covariance must be real, not complex", copy=True)
            for r, cov in enumerate((self.cov0, self.cov1))
        )
        if cov0.shape != cov1.shape:
            raise ValueError(f"covariances must be same-shape, got {cov0.shape} and {cov1.shape}")
        where = f"covariance (ridge={ridge:g})"
        inv0, log_det0 = _factor_spd(cov0, f"class 0 {where}")
        inv1, log_det1 = _factor_spd(cov1, f"class 1 {where}")
        for r, cov in enumerate((cov0, cov1)):
            if not (cov == cov.T).all():  # LAPACK reads one triangle; the other must match it
                raise ValueError(f"class {r} covariance is not symmetric")
        D, const = _discriminant_terms((inv0, inv1), (log_det0, log_det1), (p0, p1))
        freeze(self, prior0=p0, prior1=p1, ridge=ridge, cov0=cov0, cov1=cov1, D=D, const=float(const))

    @property
    def dim(self) -> int:
        return self.cov0.shape[0]


def fit_rqda(Z, labels, ridge: float | None = None) -> RqdaModel:
    """Fit priors and both class covariances on projected scores.

    Parameters
    ----------
    Z : array_like, shape (n, d)
        Projected probit scores.
    labels : array_like of {0, 1}
        Both classes must be present.
    ridge : float or None
        Diagonal regularization added to both covariances. ``None``
        selects ``1e-6 * mean(Z**2)``, i.e. 1e-6 times the average
        diagonal of the pooled second-moment matrix.

    Raises
    ------
    ValueError
        On complex scores, labels that are not a 1-d 0/1 array, a row
        count that differs from the number of labels, or a ridge that is
        not a finite number >= 0.
    TrainingError
        On single-class labels.
    SingularMatrixError
        If a class covariance has no Cholesky factor at the given ridge;
        the message names the offending class.

    Warns, once the model is built, for each class with fewer than d+1
    rows.
    """
    Z, rows = _split_scores(Z, labels)
    if ridge is not None:
        ridge = checked_number(ridge, "ridge", 0.0)
    model = _fit(Z, rows, _priors(rows), ridge)
    _warn_small_classes(rows, Z.shape[1])
    return model


def _fit(Z: np.ndarray, rows, priors, ridge: float | None) -> RqdaModel:
    """The fit core behind :func:`fit_rqda` and the ensemble's candidate loop.

    It checks no input and warns about nothing: ``Z`` is a float (n, d)
    array, ``rows`` the non-empty row indices of class 0 and class 1 and
    ``priors`` their proportions.
    """
    if ridge is None:
        ridge = RIDGE_SCALE * float(np.mean(Z * Z))
    return RqdaModel(*priors, *(_second_moment(Z[r], ridge) for r in rows), ridge)


def _stacked_covariances(matrices, moments, priors, ridge) -> tuple[np.ndarray, np.ndarray]:
    """``(cov, ridge)`` of the ``k`` candidate models with (k, d, p) projections ``matrices``.

    ``moments`` is (2, p, p), each class's second moment ``S_r'S_r / n_r``
    of the scores ``S``, and ``priors`` the class proportions. The (2, k,
    d, d) ``cov`` applies :func:`_fit`'s rules to the transported moments
    ``A M_r A'``: the covariance rule of :func:`_ridged` with ``ridge``,
    or, if it is None, with the auto ridge, ``RIDGE_SCALE`` times the mean
    squared projected score ``tr(A M A') / d`` under the pooled moment
    ``M = prior0*M_0 + prior1*M_1``. The ridge is returned as used: the
    given number, or the auto ridges as a (k, 1, 1) array. Transported
    moments round differently from ``Z_r'Z_r / n_r``, so both equal
    :func:`_fit`'s only to rounding.
    """
    cov = matrices @ moments[:, None] @ matrices.swapaxes(1, 2)
    if ridge is None:  # the prior-weighted mean diagonal entry is the mean squared score
        ridge = RIDGE_SCALE * np.dot(priors, cov.diagonal(axis1=2, axis2=3).mean(axis=2))[:, None, None]
    return _ridged(cov, ridge), ridge


def _stacked_terms(matrices, moments, priors, ridge) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``(D, const, scale)`` of the ``k`` candidate models in one pass.

    The arguments are :func:`_stacked_covariances`'s. One stacked Cholesky
    factor per covariance ``C_r`` gives its inverse and log-determinant,
    and from them the (k, d, d) ``D`` and (k,) ``const`` of
    :class:`RqdaModel`'s formula. ``scale`` is a pair of (k,) arrays:
    when each ``C_r`` moves by a fraction ``eps`` of its largest
    eigenvalue, a row ``z``'s discriminant moves by at most about
    ``eps * (scale[0] + scale[1] * |z|^2)``. That is a first-order bound
    with ``k_r = tr(C_r) tr(C_r^-1) >= cond(C_r)``: ``scale[0] = |const| +
    d * sum_r k_r`` and ``scale[1] = sum_r k_r tr(C_r^-1)``. Nothing is
    checked, and the results need not round like :class:`RqdaModel`'s;
    raises ``np.linalg.LinAlgError`` if any covariance has no factor.
    """
    cov, _ = _stacked_covariances(matrices, moments, priors, ridge)
    L = np.linalg.cholesky(cov)
    L_inv = np.linalg.inv(L)
    inv = np.matmul(L_inv.swapaxes(-1, -2), L_inv)
    log_det = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    D, const = _discriminant_terms(inv, log_det, priors)
    tr_inv = np.trace(inv, axis1=2, axis2=3)
    kappa = np.trace(cov, axis1=2, axis2=3) * tr_inv
    return D, const, (np.abs(const) + cov.shape[-1] * kappa.sum(axis=0), (kappa * tr_inv).sum(axis=0))


# A training row's batched discriminant ``delta`` is unsure of its sign
# when |delta| <= _UNSURE_MARGIN * (scale[0] + scale[1] * |z|^2), the
# bound :func:`_stacked_terms` gives on how far ``delta`` moves when
# each covariance moves by this fraction of its largest eigenvalue. On the
# desk and ``large`` fits (draws 0-2, every block) the rotated ``delta``
# of :func:`_sure_error_terms` and :func:`stacked_discriminant`'s differ
# by at most 3.7e-17 times that scale, a slack of over 1e6.
#
# The bound pass evaluates the test ``q < t``, with ``q = sum_j a_j u_j^2``
# and ``u_j = w_j's``, in float32, and its rounding needs a margin of its
# own. Take a row ``s``, a candidate's columns ``w_j`` of ``W`` and its
# weights ``a_j`` exactly as their float64 values, unit roundoff
# ``e = 2^-24`` and ``g(k) = k e / (1 - k e)``, which obeys
# ``(1 + g(k)) (1 + g(m)) <= 1 + g(k + m)``. In the standard model of
# float32 arithmetic, for any summation order, with or without FMA:
# - The casts of ``s`` and ``W`` and the p products and p - 1 sums of the
#   first GEMM put a factor within g(p + 2) of 1 on each term of ``u_j``.
#   So |u32_j - u_j| <= g(p + 2) ||w_j|| ||s|| (Cauchy-Schwarz), and
#   |u_j| <= ||w_j|| ||s||.
# - The square rounds once more: |fl(u32_j^2) - u_j^2| <=
#   ((1 + g(p + 2))^2 (1 + e) - 1) ||w_j||^2 ||s||^2
#   <= g(2p + 5) ||w_j||^2 ||s||^2.
# - In the small GEMM, column c holds d nonzero weights. A zero weight
#   times a finite square, and a sum with that zero, is exact, so each of
#   the d terms takes at most d roundings, and the cast of its weight one
#   more: a factor within g(d + 1) of 1.
# Together, |q32 - q| <= g(2p + d + 6) * sum_j |a_j| ||w_j||^2 * ||s||^2.
# The constant ``c`` uses g(2p + d + 7): the extra e covers the float64
# rounding of ||s||^2, of the ||w_j||^2, of the sum in ``c`` and of
# ``c * ||s||^2``, each a relative error below (p + d + 3) 2^-53. (g(k)
# needs k e < 1, so p below about 2^23, where the (2, p, p) moments alone
# would take 2^50 bytes.)
# The pass compares a class-r row's ``q32`` with its class's limit
# ``t - c * norm_max[r]`` rounded down to float32, ``norm_max[r]`` being
# the largest ||s||^2 of class r's rows. That maximum bounds each of the
# class's rows, so a counted row has q <= q32 + c ||s||^2 <= q32 +
# c norm_max[r] < t. The float64 subtraction rounds by at most 2^-53 |t|,
# which the float64 margin above holds as it held the float64 pass's own
# rounding. The model leaves out underflow: it adds at most 2^-150 to a
# product, which the terms above hold unless ||w_j|| ||s|| is near
# 2^-100, far below any row of probit scores. :func:`_sure_error_terms`
# rules out overflow: the weights and twice the thresholds must lie within
# float32's range, and so must twice ``max(1, norm_max) * max(1,
# ||w_j||^2, sum_j |a_j| ||w_j||^2)`` at the larger of the two maxima,
# which bounds W's entries and every float32 value the pass takes.
_UNSURE_MARGIN = 1e-10

# float32's unit roundoff and largest finite value
_FLOAT32_UNIT = 2.0**-24
_FLOAT32_MAX = float(np.finfo(np.float32).max)

# np.nextafter toward it rounds a float32 down by one step
_FLOAT32_DOWN = np.float32(-np.inf)


def _sure_error_terms(matrices, moments, priors, ridge, norm_max) -> tuple[np.ndarray, ...]:
    """``(W, weights, limit)``: the float32 test for the ``k`` candidates' sure errors.

    The first four arguments are :func:`_stacked_covariances`'s, and
    ``norm_max`` is a float64 (2,) array, each class's largest squared
    norm ``||s||^2`` of the rows the test will see. In the eigenbasis
    ``D = V diag(lam) V'`` of a candidate's discriminant
    matrix, a row ``s`` of scores has ``u = V'A s`` with ``z'Dz = sum_j
    lam_j u_j^2`` and, ``V`` being orthogonal, ``|z|^2 = |u|^2`` for
    ``z = A s``. So both ``delta`` and its unsure margin are linear in the
    squares ``u_j^2``, and a class-r row with sign ``s`` (-1 for class 0,
    +1 for class 1) is a sure error of candidate c, ``s*delta + tol < 0``,
    iff ``((S W)**2 @ weights[r])[c] < threshold[r, c]`` in exact
    arithmetic. Column block c of the float32 (p, k*d) ``W`` is candidate
    c's ``(V'A)'``; column c of class r's float32 (k*d, k) block-diagonal
    ``weights[r]`` holds ``-0.5*s*lam`` plus the margin's ``|u|^2`` term
    in rows c*d .. c*d + d - 1. For any class-r row ``s`` with ``||s||^2
    <= norm_max[r]``, the float32 value of ``((S W)**2 @ weights[r])[c]``
    is within ``c[r, c] * ||s||^2`` of the exact value with the float64
    ``W`` and weights (``c`` derived at ``_UNSURE_MARGIN``), so the float32
    (2, k) ``limit[r, c]``, ``threshold[r, c] - c[r, c] * norm_max[r]``
    rounded down to float32, counts only rows that are sure errors in
    exact arithmetic too.
    Raises ``np.linalg.LinAlgError`` if any covariance has no Cholesky
    factor, an eigensolve does not converge, any eigenpair, column of
    ``W``, weight or threshold is not finite, in float64 or after the
    float32 cast, or a row within ``norm_max`` could overflow float32: a
    batch is bounded whole or not at all.
    """
    b2, d, p = matrices.shape
    D, const, scale = _stacked_terms(matrices, moments, priors, ridge)
    lam, V = np.linalg.eigh(D)
    W = (V.swapaxes(1, 2) @ matrices).transpose(2, 0, 1).reshape(p, b2 * d)
    sign = np.array([-1.0, 1.0])[:, None]
    weights = -0.5 * sign[..., None] * lam + _UNSURE_MARGIN * scale[1][:, None]  # (2, b2, d)
    threshold = -(sign * const + _UNSURE_MARGIN * scale[0])  # (2, b2)
    size = np.abs(weights)
    norms = (W * W).sum(axis=0)  # ||w_j||^2, which bounds W's entries too
    reach = (size * norms.reshape(b2, d)).sum(axis=2)  # sum_j |a_j| ||w_j||^2
    room = _FLOAT32_MAX / (2.0 * max(norm_max.max(), 1.0))
    # each comparison is False for a NaN
    if not (room >= 1.0 and norms.max() <= room and reach.max() <= room and size.max() <= _FLOAT32_MAX
            and np.abs(threshold).max() <= _FLOAT32_MAX / 2.0):
        raise np.linalg.LinAlgError("a candidate's batched discriminant terms are not finite in float32")
    k = (2 * p + d + 7) * _FLOAT32_UNIT
    c = k / (1.0 - k) * reach
    limit = np.nextafter((threshold - c * norm_max[:, None]).astype(np.float32), _FLOAT32_DOWN)
    # column c of class r's weight matrix holds weights[r, c] in rows c*d .. c*d + d - 1
    weights = (weights[..., None] * np.eye(b2)[:, None, :]).reshape(2, b2 * d, b2)
    return W.astype(np.float32), weights.astype(np.float32), limit


# Rows per chunk keep the stacked (rows, width) buffers at
# about this many elements, so memory stays flat in the number of rows.
_CHUNK_ELEMENTS = 2**15


def _chunk_rows(width: int) -> int:
    """Rows per chunk of a (rows, ``width``) buffer."""
    return max(1, _CHUNK_ELEMENTS // width)


def _bound_rows(scores, rows) -> tuple[np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """Each class's rows of ``scores`` as :func:`_lower_bounds` counts them.

    Gathers each class's rows once and returns the (2, p, p) class second
    moments ``M_r`` the candidate covariances are transported from, a
    C-contiguous float32 copy of each class's rows, in row order, and the
    (2,) float64 array of each class's largest squared norm ``||s||^2``.
    """
    classes = [scores[idx] for idx in rows]
    moments = np.stack([_second_moment(S, 0.0) for S in classes])
    norm_max = np.array([np.einsum("ij,ij->i", S, S).max() for S in classes])
    return moments, tuple(S.astype(np.float32) for S in classes), norm_max


def _lower_bounds(matrices, classes, priors, ridge) -> np.ndarray:
    """A lower bound on each candidate's exact training error.

    ``matrices`` is a block's (b2, d, p) candidate projections and
    ``classes`` the class second moments of the probit scores, each
    class's float32 rows and its largest squared norm, as
    :func:`_bound_rows` gives them. A candidate's bound counts the rows
    whose batched discriminant misclassifies them and is sure of its
    sign, by :func:`_sure_error_terms`' test, in float32 as the
    ``_UNSURE_MARGIN`` derivation models it: per class and chunk of rows
    (:func:`_chunk_rows`), one matmul into every candidate's eigenbasis,
    one square and one matmul with the class's block-diagonal weight
    matrix, compared with the class's float32 limits, which already hold
    the float32 rounding margin; no (n, b2, d) array is built. Raises
    ``np.linalg.LinAlgError`` if any covariance has no Cholesky factor,
    an eigensolve does not converge or any candidate's terms are not all
    finite in float32.
    """
    moments, class_rows, norm_max = classes
    W, weights, limit = _sure_error_terms(matrices, moments, priors, ridge, norm_max)
    wrong = np.zeros(limit.shape[1], dtype=int)
    step = _chunk_rows(W.shape[1])
    for S, weights_r, limit_r in zip(class_rows, weights, limit):
        for start in range(0, S.shape[0], step):
            U = S[start:start + step] @ W
            U *= U
            wrong += (U @ weights_r < limit_r).sum(axis=0)
    return wrong / sum(S.shape[0] for S in class_rows)


def stacked_discriminant(Z, D, const) -> np.ndarray:
    """Discriminant scores of ``b`` blocks for ``m`` rows in one pass.

    ``Z`` has shape (m, b, d): row i's projected scores under each block.
    ``D`` has shape (b, d, d) and ``const`` shape (b,), one
    :class:`RqdaModel` ``(D, const)`` pair per block. Returns the (m, b) matrix
    ``const[k] - 0.5 * Z[i, k]' D[k] Z[i, k]``.
    """
    Y = np.matmul(Z.transpose(1, 0, 2), D)
    return const - 0.5 * np.einsum("bmj,mbj->mb", Y, Z)


def discriminant(s, model: RqdaModel):
    """Quadratic discriminant score; >= 0 means class 1.

    Accepts a single d-vector (returns a float) or an (m, d) matrix of
    rows (returns an m-vector); complex or non-finite scores are rejected,
    so no NaN or infinity is turned into a class.
    """
    s = real_array(s, "scores must be real, not complex")
    single = s.ndim == 1
    S = s[None, :] if single else s
    if S.ndim != 2 or S.shape[1] != model.dim:
        raise ValueError(
            f"score dimension mismatch: model expects d={model.dim}, got shape {s.shape}"
        )
    if not np.isfinite(S).all():
        raise ValueError("scores have a non-finite value")
    delta = stacked_discriminant(S[:, None, :], model.D[None], np.array([model.const]))[:, 0]
    return float(delta[0]) if single else delta


def rqda_classify(s, model: RqdaModel):
    """Hard 0/1 decision: class 1 iff the discriminant is >= 0.

    Boundary ties resolve to class 1. Shape handling follows
    :func:`discriminant`.
    """
    delta = discriminant(s, model)
    if np.isscalar(delta):
        return int(delta >= 0.0)
    return (delta >= 0.0).astype(int)

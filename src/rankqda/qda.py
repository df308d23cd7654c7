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


def model_from_parameters(prior1: float, cov0, cov1, ridge: float = 0.0) -> RqdaModel:
    """Build a model from known (prior1, cov0, cov1), e.g. a generative oracle."""
    prior1 = checked_number(prior1, "prior1")  # before 1.0 - prior1 can fail or name prior0
    return RqdaModel(1.0 - prior1, prior1, cov0, cov1, ridge)


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

"""Quadratic discriminant analysis over projected probit scores.

Both classes are modelled as centred Gaussians (the rank transform pins
the marginal location at zero, so no mean vector is estimated). A fitted
model holds the class priors, the per-class second-moment matrices of
the projected scores, and their inverses and log-determinants. The
quadratic decision function

    log(prior1/prior0) - 0.5*log(det1/det0) - 0.5*s'(inv1 - inv0)s

is therefore a constant plus a quadratic form in ``D = inv1 - inv0``
(:func:`decision_terms`). :func:`stacked_discriminant` evaluates it for
many blocks at once from stacked ``D`` matrices and constants; the
ensemble's prediction kernel calls it once per row chunk, and
:func:`discriminant` is its one-block case.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import SingularMatrixError, TrainingError

# Auto ridge scale relative to the mean squared projected score.
RIDGE_SCALE = 1e-6


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _check_labels(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d array")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0/1")
    return labels.astype(int)


def estimate_priors(labels) -> tuple[float, float]:
    """Empirical class proportions (prior0, prior1).

    Raises
    ------
    TrainingError
        If only one class is present.
    """
    labels = _check_labels(labels)
    n1 = int(labels.sum())
    n = labels.size
    if n1 == 0 or n1 == n:
        raise TrainingError(
            f"degenerate class distribution: all {n} labels are {labels[0]}"
        )
    return (n - n1) / n, n1 / n


def estimate_projected_covariance(Z, labels, r: int, ridge: float = 0.0) -> np.ndarray:
    """Second-moment matrix of the class-``r`` rows of ``Z`` plus a ridge.

    Returns ``sum(z z') / n_r + ridge * I`` over rows with label ``r``,
    stored as its exactly symmetric part. Scores are centred by
    construction, so this is the pseudo-likelihood estimate of the
    class-conditional correlation of the projected scores.

    Warns when fewer than d+1 class-``r`` samples are available; raises
    :class:`TrainingError` when there are none.
    """
    Z = np.asarray(Z, dtype=float)
    labels = _check_labels(labels)
    if Z.ndim != 2 or Z.shape[0] != labels.size:
        raise ValueError(
            f"scores and labels disagree: {Z.shape} rows vs {labels.size} labels"
        )
    if r not in (0, 1):
        raise ValueError(f"class must be 0 or 1, got {r}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")

    Zr = Z[labels == r]
    n_r, d = Zr.shape
    if n_r == 0:
        raise TrainingError(f"no samples of class {r}")
    if n_r < d + 1:
        warnings.warn(
            f"class {r} has only {n_r} samples for a {d}-dimensional "
            "covariance; the estimate is rank-deficient without a ridge",
            stacklevel=2,
        )
    M = _symmetrize(Zr.T @ Zr / n_r)
    if ridge:
        M = M + ridge * np.eye(d)
    return M


def _cholesky_lower(M: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            f"{what} is not positive definite; increase the ridge"
        ) from None


def log_det_spd(M) -> float:
    """Log-determinant of a symmetric positive definite matrix.

    Computed as twice the log-sum of the Cholesky diagonal. Raises
    :class:`SingularMatrixError` if the factorization fails.
    """
    L = _cholesky_lower(np.asarray(M, dtype=float), "matrix")
    return float(2.0 * np.sum(np.log(np.diag(L))))


def inverse_spd(M) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky.

    The result is symmetrized exactly; ``max|M @ inv - I|`` stays below
    1e-8 for reasonably conditioned inputs.
    """
    M = np.asarray(M, dtype=float)
    L = _cholesky_lower(M, "matrix")
    inv = cho_solve((L, True), np.eye(M.shape[0]))
    return _symmetrize(inv)


@dataclass(frozen=True)
class RqdaModel:
    """Fitted quadratic discriminant for one projection.

    Holds priors, per-class covariances of the projected scores, and the
    cached inverses/log-determinants they imply. Immutable after fit and
    safe to share across concurrent readers.
    """

    prior0: float
    prior1: float
    cov0: np.ndarray
    cov1: np.ndarray
    inv0: np.ndarray
    inv1: np.ndarray
    log_det0: float
    log_det1: float
    ridge: float

    @property
    def dim(self) -> int:
        return self.cov0.shape[0]


def model_from_parameters(prior1: float, cov0, cov1, ridge: float = 0.0) -> RqdaModel:
    """Build a model directly from known (prior1, cov0, cov1).

    Used for oracles with true generative parameters and for
    deserialization; caches are recomputed from the covariances, so two
    models built from bit-identical inputs are bit-identical throughout.
    """
    if not 0.0 < prior1 < 1.0:
        raise ValueError(f"class-1 prior must lie in (0, 1), got {prior1}")
    cov0 = np.asarray(cov0, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)
    if cov0.shape != cov1.shape or cov0.ndim != 2 or cov0.shape[0] != cov0.shape[1]:
        raise ValueError(
            f"covariances must be square and same-shape, got {cov0.shape} and {cov1.shape}"
        )
    return RqdaModel(
        prior0=1.0 - prior1,
        prior1=prior1,
        cov0=cov0,
        cov1=cov1,
        inv0=inverse_spd(cov0),
        inv1=inverse_spd(cov1),
        log_det0=log_det_spd(cov0),
        log_det1=log_det_spd(cov1),
        ridge=ridge,
    )


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
    TrainingError
        On single-class labels.
    SingularMatrixError
        If a class covariance has no Cholesky factor at the given ridge;
        the message names the offending class.
    """
    Z = np.asarray(Z, dtype=float)
    prior0, prior1 = estimate_priors(labels)
    if ridge is None:
        ridge = RIDGE_SCALE * float(np.mean(Z * Z))

    covs, invs, log_dets = [], [], []
    for r in (0, 1):
        cov = estimate_projected_covariance(Z, labels, r, ridge)
        L = _cholesky_lower(cov, f"class {r} covariance (ridge={ridge:g})")
        covs.append(cov)
        invs.append(_symmetrize(cho_solve((L, True), np.eye(cov.shape[0]))))
        log_dets.append(float(2.0 * np.sum(np.log(np.diag(L)))))

    return RqdaModel(
        prior0=prior0,
        prior1=prior1,
        cov0=covs[0],
        cov1=covs[1],
        inv0=invs[0],
        inv1=invs[1],
        log_det0=log_dets[0],
        log_det1=log_dets[1],
        ridge=float(ridge),
    )


def decision_terms(model: RqdaModel) -> tuple[np.ndarray, float]:
    """``(D, const)`` with ``discriminant(s) = const - 0.5 * s'Ds``.

    ``D = inv1 - inv0`` and ``const = log(prior1/prior0) - 0.5*(log_det1 - log_det0)``.
    """
    const = np.log(model.prior1 / model.prior0) - 0.5 * (model.log_det1 - model.log_det0)
    return model.inv1 - model.inv0, float(const)


def stacked_discriminant(Z, D, const) -> np.ndarray:
    """Discriminant scores of ``b`` blocks for ``m`` rows in one pass.

    ``Z`` has shape (m, b, d): row i's projected scores under each block.
    ``D`` has shape (b, d, d) and ``const`` shape (b,), one
    :func:`decision_terms` pair per block. Returns the (m, b) matrix
    ``const[k] - 0.5 * Z[i, k]' D[k] Z[i, k]``.
    """
    Y = np.matmul(Z.transpose(1, 0, 2), D)
    return const - 0.5 * np.einsum("bmj,mbj->mb", Y, Z)


def discriminant(s, model: RqdaModel):
    """Quadratic discriminant score; >= 0 means class 1.

    Accepts a single d-vector (returns a float) or an (m, d) matrix of
    rows (returns an m-vector).
    """
    s = np.asarray(s, dtype=float)
    single = s.ndim == 1
    S = s[None, :] if single else s
    if S.ndim != 2 or S.shape[1] != model.dim:
        raise ValueError(
            f"score dimension mismatch: model expects d={model.dim}, got shape {s.shape}"
        )
    D, const = decision_terms(model)
    delta = stacked_discriminant(S[:, None, :], D[None], np.array([const]))[:, 0]
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

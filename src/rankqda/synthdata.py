"""Two-class meta-Gaussian data generation and the Bayes oracle.

A scenario draws labels Bernoulli(prior1), latent scores
``S | Y=r ~ N_p(0, cov_r)`` with unit-diagonal positive definite
``cov_r``, and observed features ``X_j = m_j(S_j)`` for strictly
increasing per-feature maps ``m_j``. Because the maps are shared by both
classes, the optimal decision rule depends on the latent scores and the
two correlation matrices only; :func:`oracle_model` builds it from the
true parameters, for :func:`qda.rqda_classify` to evaluate, and
:func:`monte_carlo_bayes_risk` estimates the corresponding minimal error
rate.

A :class:`ScenarioSpec` keeps read-only copies of its two correlation
matrices and derives, once, at construction, their Cholesky factors and
the resolved per-feature maps; sampling reads those and factors nothing.
The private ``_check_correlation_matrix`` is the module's one
factorization: it checks a correlation matrix and returns its factor,
for the spec and for :func:`block_correlation_matrix`, whose ``rho``
comes from the caller. :func:`random_correlation_matrix` draws once and
checks nothing: the spec that uses its matrix checks and factors it. The
oracle model factors its covariances through :mod:`qda`'s own SPD gate.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import qda
from .errors import checked_int, checked_number, freeze, real_array


def piecewise_linear_map(breakpoints) -> Callable[[np.ndarray], np.ndarray]:
    """Strictly increasing piecewise-linear map through user breakpoints.

    ``breakpoints`` is a sequence of finite (input, output) knots with
    strictly increasing coordinates on both axes; the map interpolates
    linearly between knots and extrapolates with the end-segment slopes,
    which must be finite too (an infinite knot or slope would make the
    map constant or infinite). Complex breakpoints or map inputs are
    rejected.
    """
    pts = real_array(breakpoints, "breakpoints must be real, not complex")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("breakpoints must be a sequence of at least two (x, y) pairs")
    if not np.isfinite(pts).all():
        raise ValueError("breakpoints must be finite")
    with np.errstate(all="ignore"):  # an overflow or 0/0 here is rejected below
        steps = np.diff(pts, axis=0)
        slope_lo, slope_hi = steps[[0, -1], 1] / steps[[0, -1], 0]
    if not (steps > 0).all():
        raise ValueError("breakpoints must be strictly increasing in both coordinates")
    if not np.isfinite([*steps.ravel(), slope_lo, slope_hi]).all():
        raise ValueError("breakpoints must give finite differences and end-segment slopes")
    xs, ys = pts[:, 0], pts[:, 1]

    def apply(s):
        s = real_array(s, "map input must be real, not complex")
        out = np.array(np.interp(s, xs, ys))
        # each end line only where it applies: elsewhere it can overflow
        below, above = s < xs[0], s > xs[-1]
        out[below] = ys[0] + slope_lo * (s[below] - xs[0])
        out[above] = ys[-1] + slope_hi * (s[above] - xs[-1])
        return out

    return apply


MARGINAL_MAPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda s: real_array(s, "map input must be real, not complex"),
    "exp": lambda s: np.exp(real_array(s, "map input must be real, not complex")),
    "cube": lambda s: real_array(s, "map input must be real, not complex") ** 3,
}


def _resolve_maps(spec, p: int) -> list[Callable[[np.ndarray], np.ndarray]]:
    if isinstance(spec, str) or callable(spec):
        spec = [spec] * p
    maps = list(spec)
    if len(maps) != p:
        raise ValueError(f"expected {p} per-feature marginal maps, got {len(maps)}")
    resolved = []
    for m in maps:
        if isinstance(m, str):
            if m not in MARGINAL_MAPS:
                raise ValueError(
                    f"unknown marginal map {m!r}; choose from {sorted(MARGINAL_MAPS)} "
                    "or pass a callable"
                )
            resolved.append(MARGINAL_MAPS[m])
        elif callable(m):
            resolved.append(m)
        else:
            raise ValueError(f"marginal map must be a name or callable, got {m!r}")
    return resolved


def _check_correlation_matrix(C: np.ndarray, p: int, name: str) -> np.ndarray:
    """The lower Cholesky factor of the float (p, p) correlation matrix ``C``.

    Raises ``ValueError`` naming ``name`` unless ``C`` has shape (p, p),
    finite entries, a unit diagonal, exact symmetry and a factor, checked
    in that order. The module's one factorization, run by
    :class:`ScenarioSpec` on each of its matrices and by
    :func:`block_correlation_matrix` on the matrix it builds.
    """
    if C.shape != (p, p):
        raise ValueError(f"{name} must have shape ({p}, {p}), got {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError(f"{name} has a non-finite value")
    if not np.allclose(np.diag(C), 1.0, rtol=0.0, atol=1e-12):
        raise ValueError(f"{name} must have unit diagonal")
    if not np.array_equal(C, C.T):
        raise ValueError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Generative parameters of one synthetic two-class scenario.

    ``marginal_maps`` is a single map (name or callable) applied to every
    feature, or a length-p sequence of per-feature maps, stored as a
    tuple so a later edit of the caller's list changes nothing here.
    ``prior1`` may sit on the boundary for sampling-only use; the Bayes
    oracle and the classification pipeline require an interior prior.
    ``seed`` is a provenance label that sampling never reads: the draws
    come only from the generator passed to :func:`sample_meta_gaussian`
    or :func:`monte_carlo_bayes_risk`.

    Construction checks ``p`` (an integer >= 1; numpy's is stored as
    int, bool is rejected), ``prior1`` (a finite number in [0, 1]; a
    numpy scalar is stored as a float), both correlation matrices (each
    real, not complex, then as ``_check_correlation_matrix`` says) and
    the maps, keeps read-only copies of ``cov0`` and ``cov1`` (a later
    write to the caller's matrix changes nothing here), and derives from
    them, once, what sampling reads: ``factor0`` and ``factor1``, the
    lower Cholesky factors, and ``maps``, the tuple of per-feature map
    callables. Immutable and safe for concurrent reads.
    """

    p: int
    prior1: float
    cov0: np.ndarray
    cov1: np.ndarray
    marginal_maps: str | Callable | Sequence = "identity"
    seed: int = 0
    factor0: np.ndarray = field(init=False, repr=False)
    factor1: np.ndarray = field(init=False, repr=False)
    maps: tuple[Callable[[np.ndarray], np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        freeze(self, p=checked_int(self.p, "p", 1), prior1=checked_number(self.prior1, "prior1", 0.0, 1.0))
        for r in (0, 1):
            cov = real_array(getattr(self, f"cov{r}"), f"cov{r} must be real, not complex", copy=True)
            freeze(self, **{f"cov{r}": cov, f"factor{r}": _check_correlation_matrix(cov, self.p, f"cov{r}")})
        if not (isinstance(self.marginal_maps, str) or callable(self.marginal_maps)):
            freeze(self, marginal_maps=tuple(self.marginal_maps))
        freeze(self, maps=tuple(_resolve_maps(self.marginal_maps, self.p)))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled features with labels; latent scores kept for introspection."""

    features: np.ndarray
    labels: np.ndarray
    latent: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


class BayesRiskEstimate(NamedTuple):
    risk: float
    std_error: float
    n_samples: int


def block_correlation_matrix(p: int, block_size: int, rho: float) -> np.ndarray:
    """Identity with an equicorrelated leading block of the given size.

    Positive definite for ``-1/(block_size-1) < rho < 1``.
    """
    if checked_int(block_size, "block size", 0) > p:
        raise ValueError(f"block size must lie in [0, {p}], got {block_size}")
    C = np.eye(p)
    C[:block_size, :block_size] = rho
    np.fill_diagonal(C, 1.0)
    _check_correlation_matrix(C, p, "block correlation matrix")
    return C


def random_correlation_matrix(p: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-diagonal symmetric matrix, almost surely positive definite.

    Normalizes the Gram matrix of p Gaussian vectors of dimension p+2,
    drawn as one (p, p+2) standard-normal block, and is checked and
    factored where it is used, by :class:`ScenarioSpec`.
    """
    p = checked_int(p, "p", 1)
    G = rng.standard_normal((p, p + 2))
    M = G @ G.T
    scale = np.sqrt(np.diag(M))
    C = M / np.outer(scale, scale)
    C = (C + C.T) / 2.0
    np.fill_diagonal(C, 1.0)
    return C


def _sample_latent(
    n: int, spec: ScenarioSpec, rng: np.random.Generator, fixed_counts: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and latent Gaussian scores, before any marginal map."""
    n = checked_int(n, "n", 1)
    if fixed_counts:
        n1 = int(round(spec.prior1 * n))
        labels = np.zeros(n, dtype=int)
        labels[:n1] = 1
        rng.shuffle(labels)
    else:
        labels = (rng.random(n) < spec.prior1).astype(int)

    normals = rng.standard_normal((n, spec.p))
    latent = normals @ spec.factor0.T
    ones = labels == 1
    latent[ones] = normals[ones] @ spec.factor1.T
    return labels, latent


def sample_meta_gaussian(
    n: int, spec: ScenarioSpec, rng: np.random.Generator, fixed_counts: bool = False
) -> Dataset:
    """Draw a dataset from the scenario.

    Labels are Bernoulli(prior1) by default; ``fixed_counts=True``
    instead fixes the class-1 count at ``round(prior1 * n)`` (useful for
    variance reduction in tests). Features are the latent scores pushed
    through the per-feature marginal maps.
    """
    labels, latent = _sample_latent(n, spec, rng, fixed_counts)
    features = np.empty_like(latent)
    for j, m in enumerate(spec.maps):
        features[:, j] = m(latent[:, j])
    return Dataset(features=features, labels=labels, latent=latent)


def oracle_model(spec: ScenarioSpec) -> qda.RqdaModel:
    """Discriminant model with the true generative parameters (no ridge).

    ``qda.rqda_classify(s, oracle_model(spec))`` is the Bayes-optimal
    decision for latent scores ``s``. Raises ``ValueError`` unless
    ``spec.prior1`` lies strictly inside (0, 1).
    """
    if not 0.0 < spec.prior1 < 1.0:
        raise ValueError(
            f"Bayes oracle needs prior1 strictly inside (0, 1), got {spec.prior1}"
        )
    return qda.RqdaModel(1.0 - spec.prior1, spec.prior1, spec.cov0, spec.cov1, 0.0)


def monte_carlo_bayes_risk(
    spec: ScenarioSpec, n_samples: int, rng: np.random.Generator
) -> BayesRiskEstimate:
    """Misclassification rate of the Bayes oracle on fresh draws.

    The oracle consumes latent scores directly, so the estimate is
    invariant to the scenario's marginal maps by construction. Returns
    the rate with its binomial standard error sqrt(r(1-r)/N).
    """
    n_samples = checked_int(n_samples, "n_samples", 1)
    model = oracle_model(spec)
    labels, latent = _sample_latent(n_samples, spec, rng)
    preds = qda.rqda_classify(latent, model)
    risk = float(np.mean(preds != labels))
    std_error = float(np.sqrt(risk * (1.0 - risk) / n_samples))
    return BayesRiskEstimate(risk=risk, std_error=std_error, n_samples=n_samples)

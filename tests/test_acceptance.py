"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

Pinned constants were computed once with the oracles in this repository
and are asserted as regression values, never re-derived from the code
paths they guard.
"""

import json
import math
import time

import numpy as np
import pytest

import rankqda as rq
from rankqda.model_io import model_to_dict
from rankqda.rng import substream

from oracles import adjugate_inverse, bisection_inv_norm_cdf, cofactor_det

# Desk-scale benchmark scenario (criterion 4): class 1 carries several
# |rho| >= 0.8 correlations that class 0 lacks; features pass through
# non-identity monotone maps. Bayes risk pinned from
# monte_carlo_bayes_risk(spec, 200000, substream(20260810, 5)).
DESK_SEED = 20260810
DESK_BAYES_RISK = 0.102205


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _desk_scenario() -> rq.ScenarioSpec:
    p = 10
    cov0 = np.eye(p)
    idx = np.arange(p - 1)
    cov0[idx, idx + 1] = 0.05
    cov0[idx + 1, idx] = 0.05
    cov1 = np.eye(p)
    cov1[:4, :4] = 0.85
    cov1[4, 5] = cov1[5, 4] = -0.8
    np.fill_diagonal(cov1, 1.0)
    return rq.ScenarioSpec(
        p=p, prior1=0.5, cov0=cov0, cov1=cov1,
        marginal_maps=["exp", "cube"] * 5, seed=DESK_SEED,
    )


def _random_increasing_maps(p: int, rng: np.random.Generator):
    """One random strictly increasing map per column."""
    maps = []
    for _ in range(p):
        kind = rng.integers(0, 4)
        if kind == 0:
            a, b = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)
            maps.append(lambda v, a=a, b=b: a * v + b)
        elif kind == 1:
            s = rng.uniform(0.3, 1.2)
            maps.append(lambda v, s=s: np.exp(s * v))
        elif kind == 2:
            c = rng.uniform(0.0, 2.0)
            maps.append(lambda v, c=c: v**3 + c * v)
        else:
            xs = np.cumsum(rng.uniform(0.5, 1.5, size=5)) - 4.0
            ys = np.cumsum(rng.uniform(0.5, 2.0, size=5))
            maps.append(rq.piecewise_linear_map(np.column_stack([xs, ys])))
    return maps


def _apply_maps(X, maps):
    out = np.empty_like(X)
    for j, m in enumerate(maps):
        out[:, j] = m(X[:, j])
    return out


def test_criterion_1_quantile_accuracy():
    tails = np.logspace(-10, -2, 20000)
    u = np.concatenate([tails, np.linspace(0.01, 0.99, 60000), 1.0 - tails])
    assert len(u) == 100000

    t0 = time.perf_counter()
    z = rq.inv_norm_cdf(u)
    round_trip = np.abs(rq.norm_cdf(z) - u)
    elapsed = time.perf_counter() - t0

    oracle_gap = np.abs(z - bisection_inv_norm_cdf(u))
    ok = oracle_gap.max() <= 1e-8 and round_trip.max() <= 1e-12 and elapsed < 2.0
    _report(1, ok,
            f"1e5 points: |quantile-bisection| max {oracle_gap.max():.2e} (<=1e-8), "
            f"round trip max {round_trip.max():.2e} (<=1e-12), {elapsed:.2f}s (<2s)")


def test_criterion_2_rank_invariance_suite():
    n, p = 200, 8
    failures = []
    for trial in range(20):
        data_rng = substream(1000, trial)
        X = data_rng.standard_normal((n, p)) @ np.diag(data_rng.uniform(0.5, 2.0, p))
        labels = np.array([0, 1] * (n // 2))
        X[labels == 1] *= 1.8
        X_test = data_rng.standard_normal((n, p))
        maps = _random_increasing_maps(p, substream(2000, trial))

        config = rq.EnsembleConfig(d=3, b1=6, b2=3, flavor="haar", seed=3000 + trial)
        model = rq.train_ensemble(X, labels, config)
        preds, votes = rq.predict(model, X_test)

        model_g = rq.train_ensemble(_apply_maps(X, maps), labels, config)
        preds_g, votes_g = rq.predict(model_g, _apply_maps(X_test, maps))

        covs = json.dumps([[b.model.cov0.tolist(), b.model.cov1.tolist()]
                           for b in model.blocks])
        covs_g = json.dumps([[b.model.cov0.tolist(), b.model.cov1.tolist()]
                             for b in model_g.blocks])
        if not (np.array_equal(preds, preds_g) and np.array_equal(votes, votes_g)
                and covs == covs_g):
            failures.append(trial)
    _report(2, not failures,
            f"20 datasets (n={n}, p={p}), random monotone per-column maps: "
            f"{'all bit-identical' if not failures else f'mismatches in trials {failures}'}")


def test_criterion_3_linear_algebra_oracle_equivalence():
    rng = substream(42)
    worst_logdet, worst_inv = 0.0, 0.0
    for i in range(1000):
        d = 1 + i % 3
        G = rng.standard_normal((d, d))
        M = (G @ G.T + 0.1 * np.eye(d)) * 10.0 ** rng.uniform(-2, 2)

        oracle_det = cofactor_det(M)
        oracle_inv = adjugate_inverse(M)
        logdet_err = abs(rq.log_det_spd(M) - math.log(oracle_det)) / max(
            1.0, abs(math.log(oracle_det))
        )
        inv_err = np.max(np.abs(rq.inverse_spd(M) - oracle_inv)) / np.max(np.abs(oracle_inv))
        worst_logdet = max(worst_logdet, logdet_err)
        worst_inv = max(worst_inv, inv_err)
    ok = worst_logdet <= 1e-9 and worst_inv <= 1e-9
    _report(3, ok,
            f"1000 SPD matrices d in {{1,2,3}}: log-det rel err {worst_logdet:.2e}, "
            f"inverse rel err {worst_inv:.2e} (<=1e-9)")


def test_criterion_4_desk_scale_bayes_gap():
    spec = _desk_scenario()

    est = rq.monte_carlo_bayes_risk(spec, 200000, substream(DESK_SEED, 5))
    assert est.risk == pytest.approx(DESK_BAYES_RISK, abs=0.005), (
        "scenario drifted from its pinned Bayes risk"
    )

    train = rq.sample_meta_gaussian(500, spec, substream(DESK_SEED, 3))
    test = rq.sample_meta_gaussian(5000, spec, substream(DESK_SEED, 4))
    config = rq.EnsembleConfig(d=3, b1=100, b2=20, flavor="haar", seed=42)

    t0 = time.perf_counter()
    model = rq.train_ensemble(train.features, train.labels, config)
    preds, _ = rq.predict(model, test.features)
    elapsed = time.perf_counter() - t0

    error = float(np.mean(preds != test.labels))
    ok = error <= DESK_BAYES_RISK + 0.10 and error <= 0.45 and elapsed < 60.0
    _report(4, ok,
            f"ensemble error {error:.4f} vs Bayes risk {DESK_BAYES_RISK} "
            f"(gap {error - DESK_BAYES_RISK:+.4f} <= 0.10, cap 0.45), {elapsed:.1f}s (<60s)")


def test_criterion_5_null_scenario():
    p = 6
    cov = rq.random_correlation_matrix(p, substream(500, 0))
    spec = rq.ScenarioSpec(p=p, prior1=0.5, cov0=cov, cov1=cov.copy(),
                           marginal_maps="exp", seed=500)
    train = rq.sample_meta_gaussian(400, spec, substream(500, 3))
    test = rq.sample_meta_gaussian(5000, spec, substream(500, 4))
    model = rq.train_ensemble(
        train.features, train.labels, rq.EnsembleConfig(d=2, b1=20, b2=4, seed=77)
    )
    preds, _ = rq.predict(model, test.features)
    error = float(np.mean(preds != test.labels))
    ok = 0.45 <= error <= 0.55
    _report(5, ok, f"identical class laws: test error {error:.4f} in [0.45, 0.55]")


def test_criterion_6_estimator_consistency():
    cov0 = np.array([[1.0, 0.3], [0.3, 1.0]])
    cov1 = np.array([[1.0, -0.7], [-0.7, 1.0]])
    spec = rq.ScenarioSpec(p=2, prior1=0.5, cov0=cov0, cov1=cov1,
                           marginal_maps="cube", seed=600)
    worst = 0.0
    for seed in range(10):
        data = rq.sample_meta_gaussian(10000, spec, substream(600, seed), fixed_counts=True)
        _, scores = rq.fit_transform(data.features)
        for r, target in ((0, cov0), (1, cov1)):
            est = rq.estimate_projected_covariance(scores, data.labels, r, ridge=0.0)
            worst = max(worst, float(np.max(np.abs(est - target))))
    ok = worst <= 0.05
    _report(6, ok,
            f"10 seeds, n=5000 per class, identity projection: "
            f"max |estimate - truth| {worst:.4f} (<=0.05)")


def test_criterion_7_determinism_and_persistence(tmp_path):
    rng = substream(700)
    X = rng.standard_normal((120, 5))
    labels = np.array([0, 1] * 60)
    X[labels == 1] *= 2.0
    config = rq.EnsembleConfig(d=2, b1=8, b2=3, seed=11)

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        rq.save_model(rq.train_ensemble(X, labels, config), path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    model = rq.train_ensemble(X, labels, config)
    reloaded = rq.load_model(paths[0])
    X_new = rng.standard_normal((1000, 5))
    preds_a, votes_a = rq.predict(model, X_new)
    preds_b, votes_b = rq.predict(reloaded, X_new)
    bit_identical = np.array_equal(preds_a, preds_b) and np.array_equal(votes_a, votes_b)
    assert model_to_dict(model) == model_to_dict(reloaded)

    ok = identical and bit_identical
    _report(7, ok,
            f"same seed -> byte-identical files: {identical}; "
            f"load(save) predictions bit-identical on 1000 points: {bit_identical}")


def test_criterion_8_degenerate_ensemble_equivalence():
    rng = substream(800)
    X = rng.standard_normal((150, 4))
    labels = np.array([0, 1] * 75)
    X[labels == 1] *= 2.2
    X_test = rng.standard_normal((1000, 4))

    config = rq.EnsembleConfig(d=2, b1=1, b2=1, flavor="haar", alpha=0.5, seed=9)
    model = rq.train_ensemble(X, labels, config)
    preds, votes = rq.predict(model, X_test)

    block = model.blocks[0]
    scores = rq.transform_new(model.marginal_model, X_test)
    direct = rq.rqda_classify(rq.project(block.projection, scores), block.model)

    pointwise = [rq.classify(model, X_test[i]) for i in range(0, 1000, 40)]
    ok = (np.array_equal(preds, direct)
          and np.array_equal(votes, direct.astype(float))
          and pointwise == [int(direct[i]) for i in range(0, 1000, 40)])
    _report(8, ok, "b1=b2=1 ensemble equals transform->project->quadratic rule "
                   f"on 1000 points exactly: {ok}")


def _test_error(train, test, config) -> float:
    preds, _ = rq.predict(rq.train_ensemble(train.features, train.labels, config), test.features)
    return float(np.mean(preds != test.labels))


def test_criterion_9_monte_carlo_error_shrinks_with_b1():
    # Cannings & Samworth bound the finite-b1 ensemble's excess error over
    # its b1 -> inf limit by O(1/b1); so, on fixed data and seeds fixed up
    # front, ten times the blocks must lower every error and shrink the
    # spread across seeds (about 1/sqrt(10) is expected; half is asserted).
    spec = _desk_scenario()
    train = rq.sample_meta_gaussian(500, spec, substream(DESK_SEED, 3))
    test = rq.sample_meta_gaussian(20000, spec, substream(DESK_SEED, 4))
    errors = {b1: [_test_error(train, test, rq.EnsembleConfig(d=3, b1=b1, b2=20, seed=seed))
                   for seed in range(5)]
              for b1 in (10, 100)}
    sd = {b1: float(np.std(e, ddof=1)) for b1, e in errors.items()}
    ok = max(errors[100]) < min(errors[10]) and sd[100] <= 0.5 * sd[10]
    _report(9, ok,
            f"desk, 5 seeds: b1=10 errors {min(errors[10]):.4f}..{max(errors[10]):.4f} "
            f"(sd {sd[10]:.4f}), b1=100 {min(errors[100]):.4f}..{max(errors[100]):.4f} "
            f"(sd {sd[100]:.4f}); b1=100 all lower and sd <= half")


@pytest.mark.filterwarnings("ignore:class [01] has only:UserWarning")
def test_criterion_10_projection_beats_full_dimension_baseline_at_p50_n100():
    # The regime where the paper says projection helps: the bench's
    # ``large`` scenario with only 100 training rows, where a d=p
    # copula QDA (one axis block of all features) has too few rows per
    # class for its 50-dimensional covariances and warns so.
    spec = rq.ScenarioSpec(p=50, prior1=0.5, cov0=np.eye(50),
                           cov1=rq.block_correlation_matrix(50, 10, 0.5),
                           marginal_maps=["exp", "cube"] * 25, seed=7)
    ensemble = rq.EnsembleConfig(d=5, b1=100, b2=20, seed=42)
    baseline = rq.EnsembleConfig(d=50, b1=1, b2=1, flavor="axis", seed=42)
    pairs = []
    for k in range(3):
        train = rq.sample_meta_gaussian(100, spec, substream(7, 3, k))
        test = rq.sample_meta_gaussian(20000, spec, substream(7, 4, k))
        pairs.append([_test_error(train, test, config) for config in (ensemble, baseline)])
    ok = all(e < b for e, b in pairs)
    _report(10, ok,
            "p=50, n=100, 3 draws: ensemble d=5 vs d=p baseline test error "
            + ", ".join(f"{e:.4f} vs {b:.4f}" for e, b in pairs) + " (ensemble lower on each)")

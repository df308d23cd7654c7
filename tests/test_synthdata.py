import math
import re

import numpy as np
import pytest

from rankqda import (
    MARGINAL_MAPS,
    ScenarioSpec,
    block_correlation_matrix,
    estimate_projected_covariance,
    fit_transform,
    monte_carlo_bayes_risk,
    oracle_model,
    piecewise_linear_map,
    random_correlation_matrix,
    sample_meta_gaussian,
)
from rankqda.qda import discriminant, rqda_classify
from rankqda.rng import substream


def _spec(p=3, prior1=0.5, cov0=None, cov1=None, maps="identity", seed=0):
    return ScenarioSpec(
        p=p,
        prior1=prior1,
        cov0=np.eye(p) if cov0 is None else cov0,
        cov1=np.eye(p) if cov1 is None else cov1,
        marginal_maps=maps,
        seed=seed,
    )


class TestRandomCorrelationMatrix:
    def test_one_dimensional(self):
        np.testing.assert_array_equal(random_correlation_matrix(1, substream(0)), [[1.0]])

    @pytest.mark.parametrize("p", [2, 5, 12])
    def test_unit_diagonal_and_positive_definite(self, p):
        C = random_correlation_matrix(p, substream(p))
        np.testing.assert_array_equal(np.diag(C), np.ones(p))
        np.testing.assert_array_equal(C, C.T)
        np.linalg.cholesky(C)  # must not raise
        assert np.abs(C[~np.eye(p, dtype=bool)]).max() < 1.0

    @pytest.mark.parametrize("p", [1, 2, 6, 12])
    def test_draws_one_block(self, p):
        rng = substream(31, p)
        C = random_correlation_matrix(p, rng)
        fresh = substream(31, p)
        G = fresh.standard_normal((p, p + 2))
        assert rng.random() == fresh.random()  # the stream moved by one (p, p + 2) block
        M = G @ G.T  # and the matrix is that block's normalized Gram matrix
        scale = np.sqrt(np.diag(M))
        np.testing.assert_allclose(C, M / np.outer(scale, scale), rtol=0, atol=1e-15)


class TestBlockCorrelationMatrix:
    def test_structure(self):
        C = block_correlation_matrix(5, 3, 0.8)
        assert C[0, 1] == C[1, 2] == 0.8
        assert C[0, 4] == 0.0
        np.testing.assert_array_equal(np.diag(C), np.ones(5))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            block_correlation_matrix(4, 3, -0.9)


class TestPiecewiseLinearMap:
    def test_interpolation_and_extrapolation(self):
        m = piecewise_linear_map([(0.0, 0.0), (1.0, 2.0), (2.0, 5.0)])
        assert m(0.5) == 1.0
        assert m(1.5) == pytest.approx(3.5)
        assert m(-1.0) == pytest.approx(-2.0)  # slope 2 below
        assert m(3.0) == pytest.approx(8.0)  # slope 3 above

    def test_strictly_increasing_on_grid(self):
        m = piecewise_linear_map([(-1.0, 0.0), (0.0, 0.5), (2.0, 0.9)])
        s = np.linspace(-4, 4, 1001)
        assert np.all(np.diff(m(s)) > 0)

    def test_bad_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            piecewise_linear_map([(0.0, 0.0)])
        with pytest.raises(ValueError):
            piecewise_linear_map([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            piecewise_linear_map([(0.0, 1.0), (0.0, 2.0)])

    @pytest.mark.parametrize("breakpoints, message", [
        ([(0.0, 0.0), (math.inf, 1.0)], "breakpoints must be finite"),
        ([(0.0, math.nan), (1.0, 1.0)], "breakpoints must be finite"),
        ([(0.0, 0.0), (1e-320, 1.0)], "breakpoints must give finite differences and end-segment slopes"),
        ([(0.0, -1e308), (1.0, 1e308)], "breakpoints must give finite differences and end-segment slopes"),
    ])
    def test_non_finite_knots_and_overflowing_slopes_rejected(self, breakpoints, message):
        # either would give a constant, infinite or NaN map, not a strictly increasing one
        with pytest.raises(ValueError, match=f"^{message}$"):
            piecewise_linear_map(breakpoints)

    def test_steep_map_computes_each_end_line_only_where_it_applies(self):
        # the end lines evaluated everywhere overflow inside the knot range
        m = piecewise_linear_map([(0.0, 0.0), (1.0, 1e308), (2.0, 1.7e308)])
        assert m(1.9) == pytest.approx(1.63e308)
        np.testing.assert_allclose(m([-0.5, 0.5, 1.9, 2.1]), [-5e307, 5e307, 1.63e308, 1.77e308])
        assert m(1.9).shape == () and m([[-0.5], [2.1]]).shape == (2, 1)


class TestScenarioSpecValidation:
    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            _spec(cov0=2.0 * np.eye(3))

    def test_non_positive_definite_rejected(self):
        C = np.full((3, 3), 0.99)
        np.fill_diagonal(C, 1.0)
        C[0, 1] = C[1, 0] = -0.99
        with pytest.raises(ValueError, match="positive definite"):
            _spec(cov1=C)

    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_correlation_rejected_as_non_finite(self, which):
        C = np.eye(3)
        C[0, 1] = C[1, 0] = np.nan
        with pytest.raises(ValueError, match=f"^cov{which} has a non-finite value$"):
            _spec(**{f"cov{which}": C})

    def test_non_finite_block_correlation_rejected_as_non_finite(self):
        with pytest.raises(ValueError, match="^block correlation matrix has a non-finite value$"):
            block_correlation_matrix(3, 2, np.nan)

    def test_prior_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            _spec(prior1=1.5)

    def test_unknown_marginal_rejected(self):
        with pytest.raises(ValueError, match="unknown marginal map"):
            _spec(maps="sigmoid")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(cov0=np.eye(3) + 0j), "cov0 must be real, not complex"),
            (dict(prior1="0.5"), "prior1 must be a finite number, got '0.5'"),
            (dict(prior1=0.5 + 0j), "prior1 must be a finite number, got (0.5+0j)"),
            (dict(prior1=1.5), "prior1 must lie in [0, 1], got 1.5"),
            (dict(cov1=np.eye(2)), "cov1 must have shape (3, 3), got (2, 2)"),
            (dict(cov1=[[1.0, 0.5, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]]), "cov1 must be symmetric"),
            (dict(maps=["exp", "cube"]), "expected 3 per-feature marginal maps, got 2"),
            (dict(maps=["exp", 3, "cube"]), "marginal map must be a name or callable, got 3"),
        ],
        ids=["complex_cov0", "string_prior1", "complex_prior1", "prior1_above_one", "cov1_shape",
             "asymmetric_cov1", "maps_length", "map_of_no_kind"],
    )
    def test_malformed_spec_rejected_naming_the_problem(self, kwargs, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            _spec(**kwargs)


class TestScenarioSpecOwnsItsState:
    def _inputs_and_spec(self):
        cov0 = random_correlation_matrix(4, substream(21))
        cov1 = block_correlation_matrix(4, 3, 0.6)
        return cov0, cov1, _spec(p=4, cov0=cov0, cov1=cov1, maps=["exp", "cube", "identity", "exp"])

    def test_factors_are_bit_equal_to_cholesky_of_its_covariances(self):
        _, _, spec = self._inputs_and_spec()
        for cov, factor in ((spec.cov0, spec.factor0), (spec.cov1, spec.factor1)):
            np.testing.assert_array_equal(factor.view(np.uint64), np.linalg.cholesky(cov).view(np.uint64))

    def test_derived_fields_are_set_at_construction(self):
        _, _, spec = self._inputs_and_spec()
        assert {"factor0", "factor1", "maps"} <= set(vars(spec))
        exp, cube, identity = (MARGINAL_MAPS[k] for k in ("exp", "cube", "identity"))
        assert spec.maps == (exp, cube, identity, exp)

    def test_arrays_are_read_only(self):
        _, _, spec = self._inputs_and_spec()
        for name in ("cov0", "cov1", "factor0", "factor1"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(spec, name)[0, 0] = 0.5

    def test_a_later_write_to_the_input_changes_neither_spec_nor_samples(self):
        cov0, cov1, spec = self._inputs_and_spec()
        held = spec.cov0.copy(), spec.cov1.copy()
        before = sample_meta_gaussian(300, spec, substream(22))
        cov0[...] = np.eye(4)
        cov1[0, 1] = cov1[1, 0] = -0.3
        np.testing.assert_array_equal(spec.cov0, held[0])
        np.testing.assert_array_equal(spec.cov1, held[1])
        after = sample_meta_gaussian(300, spec, substream(22))
        np.testing.assert_array_equal(after.features, before.features)
        np.testing.assert_array_equal(after.latent, before.latent)

    def test_a_later_edit_of_the_maps_list_changes_neither_spec_nor_samples(self):
        maps = ["exp", "cube", "identity", "exp"]
        spec = _spec(p=4, cov0=np.eye(4), cov1=block_correlation_matrix(4, 3, 0.6), maps=maps)
        before = sample_meta_gaussian(300, spec, substream(23))
        maps[0] = "identity"
        assert spec.marginal_maps == ("exp", "cube", "identity", "exp")
        after = sample_meta_gaussian(300, spec, substream(23))
        np.testing.assert_array_equal(after.features, before.features)

    def test_a_single_map_is_kept_as_given(self):
        spec = _spec(p=3, cov0=np.eye(3), cov1=np.eye(3), maps="cube")
        assert spec.marginal_maps == "cube"
        spec = _spec(p=3, cov0=np.eye(3), cov1=np.eye(3), maps=np.exp)
        assert spec.marginal_maps is np.exp

    def test_sampling_factors_nothing(self, monkeypatch):
        _, _, spec = self._inputs_and_spec()
        calls, cholesky = [], np.linalg.cholesky

        def counting(*args, **kwargs):
            calls.append(1)
            return cholesky(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        for fixed_counts in (False, True):
            sample_meta_gaussian(100, spec, substream(23), fixed_counts)
        assert calls == []
        oracle_model(spec)
        oracle_calls = len(calls)
        calls.clear()
        monte_carlo_bayes_risk(spec, 1000, substream(24))
        # the only factors are the oracle model's, taken by qda's one SPD gate
        assert len(calls) == oracle_calls == 2


class TestSampleMetaGaussian:
    def test_identity_maps_expose_latent(self):
        data = sample_meta_gaussian(50, _spec(), substream(1))
        np.testing.assert_array_equal(data.features, data.latent)

    def test_boundary_prior_gives_constant_labels(self):
        data = sample_meta_gaussian(20, _spec(prior1=1.0), substream(2))
        np.testing.assert_array_equal(data.labels, np.ones(20, dtype=int))

    def test_latent_correlation_close_to_target(self):
        spec = _spec(p=4)
        data = sample_meta_gaussian(10000, spec, substream(3))
        corr = np.corrcoef(data.latent, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() <= 0.05

    def test_label_frequency_within_binomial_band(self):
        for prior1 in (0.2, 0.5, 0.9):
            data = sample_meta_gaussian(4000, _spec(prior1=prior1), substream(4))
            band = 4.0 * math.sqrt(prior1 * (1 - prior1) / 4000)
            assert abs(data.labels.mean() - prior1) <= band

    def test_fixed_counts(self):
        data = sample_meta_gaussian(101, _spec(prior1=0.3), substream(5), fixed_counts=True)
        assert data.labels.sum() == round(0.3 * 101)

    def test_fixed_counts_are_shuffled_over_the_rows(self):
        labels = sample_meta_gaussian(200, _spec(prior1=0.5), substream(5), fixed_counts=True).labels
        assert labels.sum() == 100
        assert not labels[:100].all()

    def test_marginal_maps_applied_per_feature(self):
        spec = _spec(p=2, maps=["exp", "cube"])
        data = sample_meta_gaussian(30, spec, substream(6))
        assert (data.n, data.p) == data.features.shape == (30, 2)
        np.testing.assert_array_equal(data.features[:, 0], np.exp(data.latent[:, 0]))
        np.testing.assert_array_equal(data.features[:, 1], data.latent[:, 1] ** 3)

    def test_class_conditional_covariance(self):
        cov1 = block_correlation_matrix(3, 2, 0.7)
        spec = _spec(p=3, cov1=cov1)
        data = sample_meta_gaussian(20000, spec, substream(7))
        sample_cov = np.cov(data.latent[data.labels == 1], rowvar=False)
        assert np.max(np.abs(sample_cov - cov1)) <= 0.05


class TestBayesOracle:
    def test_identical_classes_constant_one(self):
        spec = _spec()
        S = substream(8).standard_normal((40, 3))
        np.testing.assert_array_equal(rqda_classify(S, oracle_model(spec)), np.ones(40, dtype=int))

    def test_majority_prior_wins_with_equal_covariances(self):
        spec = _spec(prior1=0.7)
        S = substream(9).standard_normal((40, 3))
        np.testing.assert_array_equal(rqda_classify(S, oracle_model(spec)), np.ones(40, dtype=int))

    def test_origin_with_correlated_class_one(self):
        cov1 = np.array([[1.0, 0.9], [0.9, 1.0]])
        spec = _spec(p=2, cov1=cov1)
        # at the origin only the log-det ratio survives: -0.5*log(0.19) > 0
        delta = discriminant(np.zeros(2), oracle_model(spec))
        assert delta == pytest.approx(-0.5 * math.log(0.19), abs=1e-12)
        assert rqda_classify(np.zeros(2), oracle_model(spec)) == 1

    def test_boundary_prior_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            oracle_model(_spec(prior1=1.0))

    def test_non_finite_scores_are_rejected_not_classified(self):
        with pytest.raises(ValueError, match="^scores have a non-finite value$"):
            rqda_classify(np.array([np.nan, 0.0]), oracle_model(_spec(p=2)))


class TestMonteCarloBayesRisk:
    def test_identical_classes_risk_half(self):
        est = monte_carlo_bayes_risk(_spec(), 20000, substream(10))
        assert abs(est.risk - 0.5) <= 3.0 * est.std_error

    def test_lopsided_prior_risk_matches_minority_mass(self):
        est = monte_carlo_bayes_risk(_spec(prior1=0.9), 20000, substream(11))
        assert abs(est.risk - 0.1) <= 3.0 * est.std_error

    def test_invariant_to_marginal_maps(self):
        cov1 = block_correlation_matrix(3, 2, 0.8)
        base = monte_carlo_bayes_risk(_spec(cov1=cov1), 5000, substream(12))
        mapped = monte_carlo_bayes_risk(
            _spec(cov1=cov1, maps=["exp", "cube", "identity"]), 5000, substream(12)
        )
        assert base == mapped

    def test_standard_error_formula(self):
        est = monte_carlo_bayes_risk(_spec(), 1000, substream(13))
        assert est.std_error == pytest.approx(
            math.sqrt(est.risk * (1 - est.risk) / 1000), abs=1e-15
        )
        assert est.n_samples == 1000


@pytest.mark.parametrize("call, message", [
    (lambda v: ScenarioSpec(p=v, prior1=0.5, cov0=np.eye(2), cov1=np.eye(2)), "p must be a positive integer"),
    (lambda v: sample_meta_gaussian(v, _spec(), substream(15)), "n must be a positive integer"),
    (lambda v: monte_carlo_bayes_risk(_spec(), v, substream(16)), "n_samples must be a positive integer"),
    (lambda v: random_correlation_matrix(v, substream(17)), "p must be a positive integer"),
    (lambda v: block_correlation_matrix(3, v, 0.5), "block size must be an integer >= 0"),
])
@pytest.mark.parametrize("value", [2.0, True, -1])
def test_counts_must_be_integers_with_an_error_naming_them(call, message, value):
    with pytest.raises(ValueError, match=f"^{message}, got "):
        call(value)


def test_numpy_integer_counts_are_accepted():
    spec = _spec(p=np.int64(3))
    assert type(spec.p) is int
    assert sample_meta_gaussian(np.int32(5), spec, substream(18)).n == 5
    assert monte_carlo_bayes_risk(spec, np.int64(10), substream(19)).n_samples == 10


class TestPipelineRecoversLatentCorrelation:
    def test_rank_transform_then_estimator_recovers_both_classes(self):
        cov0 = block_correlation_matrix(2, 2, 0.3)
        cov1 = np.array([[1.0, -0.7], [-0.7, 1.0]])
        spec = _spec(p=2, cov0=cov0, cov1=cov1, maps="exp")
        data = sample_meta_gaussian(10000, spec, substream(14), fixed_counts=True)
        _, scores = fit_transform(data.features)
        for r, target in ((0, cov0), (1, cov1)):
            est = estimate_projected_covariance(scores, data.labels, r, ridge=0.0)
            assert np.max(np.abs(est - target)) <= 0.05

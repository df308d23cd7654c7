import dataclasses
import math
import re

import numpy as np
import pytest

from rankqda import (
    RqdaModel,
    SingularMatrixError,
    TrainingError,
    discriminant,
    estimate_priors,
    estimate_projected_covariance,
    fit_rqda,
    inverse_spd,
    log_det_spd,
    model_from_parameters,
    rqda_classify,
)

from oracles import adjugate_inverse, cofactor_det


class TestEstimatePriors:
    def test_balanced(self):
        assert estimate_priors([0, 1, 0, 1]) == (0.5, 0.5)

    def test_unbalanced(self):
        assert estimate_priors([1, 1, 1, 0]) == (0.25, 0.75)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="degenerate"):
            estimate_priors([1, 1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0/1"):
            estimate_priors([0, 1, 2])


class TestEstimateProjectedCovariance:
    def test_single_outer_product(self):
        Z = np.array([[1.0, 2.0]])
        with pytest.warns(UserWarning):
            M = estimate_projected_covariance(Z, [0], 0, ridge=0.0)
        np.testing.assert_array_equal(M, [[1.0, 2.0], [2.0, 4.0]])

    def test_average_of_orthogonal_rows(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning):
            M = estimate_projected_covariance(Z, [1, 1], 1, ridge=0.0)
        np.testing.assert_array_equal(M, 0.5 * np.eye(2))

    def test_ridge_adds_exactly_to_diagonal(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((12, 3))
        labels = np.array([0, 1] * 6)
        plain = estimate_projected_covariance(Z, labels, 0, ridge=0.0)
        ridged = estimate_projected_covariance(Z, labels, 0, ridge=0.1)
        np.testing.assert_array_equal(ridged, plain + 0.1 * np.eye(3))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((40, 4))
        labels = rng.integers(0, 2, size=40)
        M = estimate_projected_covariance(Z, labels, 1, ridge=0.0)
        np.testing.assert_array_equal(M, M.T)

    def test_unridged_is_psd(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((15, 3))
        labels = rng.integers(0, 2, size=15)
        M = estimate_projected_covariance(Z, labels, 0, ridge=0.0)
        for _ in range(100):
            s = rng.standard_normal(3)
            assert s @ M @ s >= -1e-12

    def test_no_samples_of_class(self):
        with pytest.raises(TrainingError, match="class 1"):
            estimate_projected_covariance(np.ones((2, 1)), [0, 0], 1)


class TestLogDetAndInverse:
    def test_identity(self):
        assert log_det_spd(np.eye(4)) == 0.0
        np.testing.assert_array_equal(inverse_spd(np.eye(3)), np.eye(3))

    def test_scaled_identity(self):
        assert log_det_spd(2.0 * np.eye(3)) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_diagonal_inverse(self):
        np.testing.assert_allclose(
            inverse_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_brute_force(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            G = rng.standard_normal((d, d))
            M = G @ G.T + 0.1 * np.eye(d)
            oracle_det = cofactor_det(M)
            assert log_det_spd(M) == pytest.approx(
                math.log(oracle_det), rel=1e-10, abs=1e-10
            )
            oracle_inv = adjugate_inverse(M)
            np.testing.assert_allclose(inverse_spd(M), oracle_inv, rtol=1e-9, atol=1e-9)

    def test_inverse_is_symmetric_and_accurate(self):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((5, 5))
        M = G @ G.T + 0.5 * np.eye(5)
        inv = inverse_spd(M)
        np.testing.assert_array_equal(inv, inv.T)
        assert np.max(np.abs(M @ inv - np.eye(5))) <= 1e-8

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            log_det_spd(np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError):
            inverse_spd(np.array([[1.0, 1.0], [1.0, 1.0]]))


def _brute_force_discriminant_1d(s, prior0, prior1, var0, var1):
    # scalar transcription of the quadratic decision score
    return (
        math.log(prior1 / prior0)
        - 0.5 * math.log(var1 / var0)
        - 0.5 * s * s * (1.0 / var1 - 1.0 / var0)
    )


class TestDiscriminant:
    def test_identical_classes_give_zero(self):
        model = model_from_parameters(0.5, np.eye(3), np.eye(3))
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert discriminant(rng.standard_normal(3), model) == 0.0

    def test_prior_term_only(self):
        model = model_from_parameters(0.8, np.eye(2), np.eye(2))
        s = np.array([0.3, -1.2])
        assert discriminant(s, model) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_one_dimensional_hand_value(self):
        model = model_from_parameters(0.5, [[1.0]], [[4.0]])
        value = discriminant(np.array([2.0]), model)
        assert value == pytest.approx(0.8068528194400547, abs=1e-12)
        assert value == pytest.approx(
            _brute_force_discriminant_1d(2.0, 0.5, 0.5, 1.0, 4.0), abs=1e-12
        )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((3, 3))
        model = model_from_parameters(0.3, G @ G.T + np.eye(3), np.eye(3))
        S = rng.standard_normal((20, 3))
        batch = discriminant(S, model)
        for i in range(20):
            assert batch[i] == pytest.approx(discriminant(S[i], model), abs=1e-12)

    def test_dimension_mismatch(self):
        model = model_from_parameters(0.5, np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="d=2"):
            discriminant(np.ones(3), model)


class TestFitRqda:
    @staticmethod
    def _toy():
        # class second moments both exactly I after the 1/n_r average
        root2 = math.sqrt(2.0)
        Z = np.array([
            [root2, 0.0], [-root2, 0.0], [0.0, root2], [0.0, -root2],
            [root2, 0.0], [-root2, 0.0], [0.0, root2], [0.0, -root2],
        ])
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        return Z, labels

    def test_identical_second_moments_reduce_to_prior_term(self):
        Z, labels = self._toy()
        model = fit_rqda(Z, labels, ridge=0.0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            s = rng.standard_normal(2)
            assert discriminant(s, model) == pytest.approx(0.0, abs=1e-14)

    def test_label_swap_negates_discriminant(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((30, 3))
        labels = np.array([0, 1] * 15)
        model = fit_rqda(Z, labels)
        swapped = fit_rqda(Z, 1 - labels)
        for _ in range(20):
            s = rng.standard_normal(3)
            assert discriminant(s, swapped) == pytest.approx(
                -discriminant(s, model), abs=1e-12
            )

    def test_cached_quantities_match_fresh_recomputation(self):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((25, 2))
        labels = rng.permutation([0] * 12 + [1] * 13)
        model = fit_rqda(Z, labels, ridge=1e-3)
        inv = [inverse_spd(cov) for cov in (model.cov0, model.cov1)]
        log_det = [log_det_spd(cov) for cov in (model.cov0, model.cov1)]
        # the model votes with exactly these two terms, bit for bit
        np.testing.assert_array_equal(model.D, inv[1] - inv[0])
        assert model.const == np.log(model.prior1 / model.prior0) - 0.5 * (log_det[1] - log_det[0])
        for cov, inv_r, log_det_r in zip((model.cov0, model.cov1), inv, log_det):
            assert abs(log_det_r - np.linalg.slogdet(cov)[1]) <= 1e-10
            assert np.max(np.abs(cov @ inv_r - np.eye(2))) <= 1e-8
        # what it saves and what it votes with, nothing else
        assert [f.name for f in dataclasses.fields(model)] == [
            "prior0", "prior1", "cov0", "cov1", "ridge", "D", "const"
        ]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_four_point_toy_against_scratch_oracle(self):
        Z = np.array([[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0], [2.0, 0.75]])
        labels = np.array([0, 1, 0, 1])
        model = fit_rqda(Z, labels, ridge=0.05)

        oracle_inv, oracle_log_det = [], []
        for r, cov in enumerate((model.cov0, model.cov1)):
            rows = Z[labels == r]
            expected = sum(np.outer(z, z) for z in rows) / len(rows) + 0.05 * np.eye(2)
            oracle_inv.append(adjugate_inverse(expected))
            oracle_log_det.append(math.log(cofactor_det(expected)))
            np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-15)
            np.testing.assert_allclose(inverse_spd(cov), oracle_inv[r], rtol=1e-12, atol=1e-12)
            assert log_det_spd(cov) == pytest.approx(oracle_log_det[r], abs=1e-12)
        assert (model.prior0, model.prior1) == (0.5, 0.5)
        np.testing.assert_allclose(model.D, oracle_inv[1] - oracle_inv[0], rtol=1e-12, atol=1e-12)
        # equal priors: the constant is the log-determinant term alone
        assert model.const == pytest.approx(-0.5 * (oracle_log_det[1] - oracle_log_det[0]), abs=1e-12)

    def test_auto_ridge_recorded_and_positive(self):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((16, 2))
        labels = np.array([0, 1] * 8)
        model = fit_rqda(Z, labels)
        assert model.ridge == pytest.approx(1e-6 * np.mean(Z * Z))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_singularity_names_class(self):
        # class 0 rows are collinear, so its unridged covariance is rank 1
        Z = np.array([[1.0, 2.0], [2.0, 4.0], [0.3, -1.0], [1.0, 0.2]])
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(SingularMatrixError, match="class 0"):
            fit_rqda(Z, labels, ridge=0.0)


@pytest.mark.parametrize(
    "labels, rows, ridge, error, message",
    [
        ([0, 1, 2, 1], 4, None, ValueError, "labels must be 0/1"),
        ([[0, 1], [1, 0]], 2, None, ValueError, "labels must be a non-empty 1-d array"),
        ([0, 1, 0, 1], 5, None, ValueError, "scores and labels disagree: (5, 2) rows vs 4 labels"),
        ([0, 1, 0, 1, 0, 1], 6, -1.0, ValueError, "ridge must be >= 0, got -1.0"),
        ([0, 1, 0, 1, 0, 1], 6, "0.1", ValueError, "ridge must be a finite number, got '0.1'"),
        ([1, 1, 1, 1], 4, None, TrainingError, "degenerate class distribution: all 4 labels are 1"),
    ],
)
def test_fit_rqda_rejects_bad_input_with_one_message(labels, rows, ridge, error, message):
    Z = np.random.default_rng(12).standard_normal((rows, 2))
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        fit_rqda(Z, labels, ridge)


def test_fit_rqda_rank_warning_points_at_its_caller():
    Z = np.array([[1.0, 0.5], [-0.5, 1.0], [0.25, -1.0], [2.0, 0.75], [0.3, 0.1]])
    labels = np.array([0, 1, 0, 1, 1])
    with pytest.warns(UserWarning) as caught:
        fit_rqda(Z, labels, ridge=0.05)
    assert [str(w.message) for w in caught] == [
        "class 0 has only 2 samples for a 2-dimensional covariance; "
        "the estimate is rank-deficient without a ridge"
    ]
    assert caught[0].filename == __file__


@pytest.mark.parametrize(
    "ridge, message",
    [(-3.0, "ridge must be >= 0, got -3.0"), (float("nan"), "ridge must be a finite number, got nan")],
)
def test_model_constructor_rejects_a_bad_ridge(ridge, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        RqdaModel(0.5, 0.5, np.eye(2), np.eye(2), ridge)


@pytest.mark.parametrize(
    "prior0, prior1, message",
    [
        ("0.5", 0.5, "prior0 must be a finite number, got '0.5'"),
        (0.5 + 0j, 0.5, "prior0 must be a finite number, got (0.5+0j)"),
        (0.5, "0.5", "prior1 must be a finite number, got '0.5'"),
        (0.7, 0.5, "priors must lie in (0, 1) and sum to 1, got prior0=0.7, prior1=0.5"),
    ],
    ids=["string_prior0", "complex_prior0", "string_prior1", "not_summing_to_one"],
)
def test_model_constructor_rejects_a_bad_prior_with_one_value_error(prior0, prior1, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RqdaModel(prior0, prior1, np.eye(2), np.eye(2), 0.0)


@pytest.mark.parametrize("prior1, shown", [("0.5", "'0.5'"), (math.nan, "nan")], ids=["string", "nan"])
def test_model_from_parameters_checks_prior1_before_deriving_prior0(prior1, shown):
    # 1.0 - prior1 would raise a TypeError for a string and name prior0 for a NaN
    with pytest.raises(ValueError, match="^" + re.escape(f"prior1 must be a finite number, got {shown}") + "$"):
        model_from_parameters(prior1, np.eye(2), np.eye(2))


class TestRqdaClassify:
    def test_boundary_tie_is_class_one(self):
        model = model_from_parameters(0.5, np.eye(2), np.eye(2))
        assert discriminant(np.array([0.7, -0.2]), model) == 0.0
        assert rqda_classify(np.array([0.7, -0.2]), model) == 1

    def test_prior_dominates_with_equal_covariances(self):
        model = model_from_parameters(0.7, np.eye(2), np.eye(2))
        rng = np.random.default_rng(11)
        assert all(rqda_classify(rng.standard_normal(2), model) == 1 for _ in range(20))

    def test_sign_of_hand_value(self):
        model = model_from_parameters(0.5, [[1.0]], [[4.0]])
        assert rqda_classify(np.array([2.0]), model) == 1

    def test_batch_shape(self):
        model = model_from_parameters(0.5, np.eye(2), np.eye(2))
        out = rqda_classify(np.zeros((5, 2)), model)
        np.testing.assert_array_equal(out, np.ones(5, dtype=int))

    @pytest.mark.parametrize(
        "s", [[np.nan, 1.0], [[np.inf, 1.0], [0.0, 0.0]]], ids=["nan-row", "infinite-entry"]
    )
    def test_non_finite_scores_are_rejected_not_classified(self, s):
        model = model_from_parameters(0.5, np.eye(2), 2.0 * np.eye(2))
        with pytest.raises(ValueError, match="^scores have a non-finite value$"):
            rqda_classify(np.array(s), model)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RqdaModel(0.5, 0.5, [[np.nan, 0.0], [0.0, 1.0]], np.eye(2), 0.0),
         "class 0 covariance (ridge=0) has a non-finite value"),
        (lambda: RqdaModel(0.5, 0.5, np.eye(2), [[1.0, np.nan], [0.5, 1.0]], 0.0),
         "class 1 covariance (ridge=0) has a non-finite value"),
        (lambda: inverse_spd([[1.0, np.nan], [0.5, 1.0]]), "matrix has a non-finite value"),
        (lambda: log_det_spd([[2.0, np.inf], [0.5, 1.0]]), "matrix has a non-finite value"),
    ],
    ids=["model_nan_on_diagonal", "model_nan_above_diagonal", "inverse_nan", "log_det_inf"],
)
def test_spd_gate_rejects_a_non_finite_entry_anywhere(build, message):
    # a plain ValueError: training must not discard such a candidate as merely singular
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$") as caught:
        build()
    assert type(caught.value) is ValueError


def test_model_rejects_an_asymmetric_covariance():
    # LAPACK reads only the lower triangle, so the 5.0 would otherwise be ignored
    with pytest.raises(ValueError, match="^class 0 covariance is not symmetric$"):
        RqdaModel(0.5, 0.5, [[2.0, 5.0], [0.5, 1.0]], np.eye(2), 0.0)


@pytest.mark.parametrize(
    "cov0, cov1, message",
    [
        (np.eye(2) + 0.1j, np.eye(2), "class 0 covariance must be real, not complex"),
        (np.eye(2), np.eye(2).astype(complex), "class 1 covariance must be real, not complex"),
        (np.eye(2), np.eye(3), "covariances must be same-shape, got (2, 2) and (3, 3)"),
    ],
    ids=["complex_cov0", "complex_cov1_without_imaginary_part", "shapes_differ"],
)
def test_model_constructor_rejects_malformed_covariances(cov0, cov1, message):
    # a complex covariance would otherwise be cast to its real part with only a warning
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RqdaModel(0.5, 0.5, cov0, cov1, 0.0)


def test_empty_matrix_has_an_empty_inverse_and_zero_log_det():
    assert inverse_spd(np.empty((0, 0))).shape == (0, 0)
    assert log_det_spd(np.empty((0, 0))) == 0.0


@pytest.mark.parametrize("fn", [inverse_spd, log_det_spd])
@pytest.mark.parametrize(
    "M, shape",
    [([1.0, 2.0], (2,)), ([[1.0, 2.0, 3.0]], (1, 3)), (np.ones((2, 2, 2)), (2, 2, 2))],
    ids=["one_d", "non_square", "three_d"],
)
def test_spd_gate_rejects_an_argument_that_is_not_a_square_matrix(fn, M, shape):
    # a plain ValueError: a shape error is not the ridge's fault
    message = f"matrix must be a square matrix, got shape {shape}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$") as caught:
        fn(M)
    assert type(caught.value) is ValueError


def test_model_reports_non_square_covariances_through_the_spd_gate():
    cov = [[1.0, 0.0, 0.0]]
    message = "class 0 covariance (ridge=0) must be a square matrix, got shape (1, 3)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RqdaModel(0.5, 0.5, cov, cov, 0.0)


def test_projected_covariance_rejects_a_class_other_than_0_or_1():
    with pytest.raises(ValueError, match="^class must be 0 or 1, got 2$"):
        estimate_projected_covariance(np.zeros((4, 2)), np.array([0, 1, 0, 1]), r=2)

import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankqda import (
    FLAVORS,
    DataError,
    EnsembleConfig,
    RqdaModel,
    ScenarioSpec,
    SingularMatrixError,
    block_correlation_matrix,
    qda,
    TrainingError,
    classify,
    fit_transform,
    inv_norm_cdf,
    load_model,
    norm_cdf,
    predict,
    project,
    rqda_classify,
    sample_meta_gaussian,
    sample_projection,
    save_model,
    select_alpha,
    train_ensemble,
    training_error,
    transform_new,
    vote_fraction,
    vote_fractions,
)
from rankqda import ensemble, projections
from rankqda.ensemble import Block, EnsembleModel
from rankqda.model_io import model_to_dict
from rankqda.projections import Projection
from rankqda.qda import fit_rqda
from rankqda.rng import substream
from rankqda.synthdata import MARGINAL_MAPS, piecewise_linear_map

GOLDEN_PATH = Path(__file__).parent / "data" / "toy8_model.json"

def _two_cluster_data(n=60, p=4, seed=0, scale1=2.5):
    """Classes differ in latent scale, so quadratic decisions separate them."""
    rng = substream(seed)
    labels = np.array([0, 1] * (n // 2))
    X = rng.standard_normal((n, p))
    X[labels == 1] *= scale1
    return X, labels


class TestTrainingError:
    def _constant_one_model(self):
        # equal covariances, prior1 > prior0: predicts 1 everywhere
        return RqdaModel(0.2, 0.8, np.eye(2), np.eye(2), 0.0)

    def test_perfect_classifier(self):
        model = self._constant_one_model()
        Z = np.zeros((5, 2))
        assert training_error(model, Z, np.ones(5, dtype=int)) == 0.0

    def test_complemented_labels(self):
        model = self._constant_one_model()
        Z = np.zeros((5, 2))
        base = training_error(model, Z, np.ones(5, dtype=int))
        flipped = training_error(model, Z, np.zeros(5, dtype=int))
        assert flipped == 1.0 - base

    def test_quarter_error(self):
        model = self._constant_one_model()
        Z = np.zeros((4, 2))
        assert training_error(model, Z, np.array([1, 1, 1, 0])) == 0.25

    def test_non_finite_scores_are_rejected(self):
        Z = np.zeros((4, 2))
        Z[2, 1] = np.nan
        with pytest.raises(ValueError, match="^scores have a non-finite value$"):
            training_error(self._constant_one_model(), Z, np.array([1, 1, 1, 0]))


class TestSelectAlpha:
    def test_grid_midpoint_between_votes(self):
        alpha = select_alpha(np.array([0.2, 0.8]), np.array([0, 1]), b1=5)
        assert alpha == 0.3

    def test_all_positive_labels_choose_zero(self):
        alpha = select_alpha(np.array([0.4, 0.9, 0.1]), np.array([1, 1, 1]), b1=10)
        assert alpha == 0.0

    def test_identical_votes_get_best_constant_classifier(self):
        votes = np.full(6, 0.6)
        labels = np.array([0, 0, 0, 0, 1, 1])
        alpha = select_alpha(votes, labels, b1=5)
        err = np.mean((votes >= alpha).astype(int) != labels)
        assert err == pytest.approx(min(4 / 6, 2 / 6))

    def test_ties_take_smallest_alpha(self):
        # both 0.3 and 0.5 give zero error; 0.3 must win
        alpha = select_alpha(np.array([0.2, 0.6, 0.8]), np.array([0, 1, 1]), b1=5)
        assert alpha == 0.3

    def test_bad_votes_rejected(self):
        with pytest.raises(ValueError):
            select_alpha(np.array([1.2]), np.array([1]), b1=2)


class TestTrainEnsemble:
    def test_degenerate_ensemble_equals_composed_classifier(self):
        X, labels = _two_cluster_data(seed=1)
        config = EnsembleConfig(d=2, b1=1, b2=1, flavor="haar", alpha=0.5, seed=3)
        model = train_ensemble(X, labels, config)

        X_test = substream(99).standard_normal((200, 4))
        preds, votes = predict(model, X_test)

        block = model.blocks[0]
        scores = transform_new(model.marginal_model, X_test)
        direct = rqda_classify(project(block.projection, scores), block.model)
        np.testing.assert_array_equal(preds, direct)
        np.testing.assert_array_equal(votes, direct.astype(float))

    def test_block_selection_is_argmin_with_lowest_index(self):
        X, labels = _two_cluster_data(seed=2)
        config = EnsembleConfig(d=2, b1=3, b2=5, flavor="gaussian", seed=11)
        model = train_ensemble(X, labels, config)

        _, scores = fit_transform(X)
        for b, block in enumerate(model.blocks):
            errors = []
            for c in range(config.b2):
                proj = sample_projection(4, 2, "gaussian", substream(11, b, c))
                Z = project(proj, scores)
                errors.append(training_error(fit_rqda(Z, labels, config.ridge), Z, labels))
            assert block.train_error == min(errors)
            assert block.candidate == int(np.argmin(errors))
            assert all(block.train_error <= e for e in errors)

    def test_deterministic_serialization(self):
        X, labels = _two_cluster_data(seed=3)
        config = EnsembleConfig(d=2, b1=4, b2=3, seed=21)
        doc_a = json.dumps(model_to_dict(train_ensemble(X, labels, config)))
        doc_b = json.dumps(model_to_dict(train_ensemble(X, labels, config)))
        assert doc_a == doc_b

    @pytest.mark.parametrize("alpha", [0.25, 1])
    def test_fixed_alpha_skips_selection(self, alpha):
        X, labels = _two_cluster_data(seed=4)
        config = EnsembleConfig(d=2, b1=3, b2=2, alpha=alpha, seed=5)
        model = train_ensemble(X, labels, config)
        assert model.alpha == alpha and type(model.alpha) is float
        # the file writes the model's alpha as a float (1.0 for the int 1); the config keeps its 1
        doc = model_to_dict(model)
        assert json.dumps(doc["alpha"]) == repr(float(alpha))
        assert json.dumps(doc["config"]["alpha"]) == json.dumps(config.alpha) == repr(alpha)

    def test_single_class_rejected(self):
        X = substream(0).standard_normal((10, 3))
        with pytest.raises(TrainingError):
            train_ensemble(X, np.ones(10, dtype=int), EnsembleConfig(d=2, b1=1, b2=1, seed=1))

    def test_d_larger_than_p_rejected(self):
        X, labels = _two_cluster_data(seed=5)
        with pytest.raises(ValueError, match="d <= p"):
            train_ensemble(X, labels, EnsembleConfig(d=5, b1=1, b2=1, seed=1))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_all_singular_block_aborts_naming_block(self):
        # the single class-0 row holds the middle rank of every column, so
        # its probit scores are exactly zero and the class-0 covariance is
        # the zero matrix for every candidate at the forced zero ridge
        X = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
        labels = np.array([1, 0, 1])
        config = EnsembleConfig(d=2, b1=2, b2=3, ridge=0.0, seed=9)
        with pytest.raises(TrainingError, match="block 0: all 3"):
            train_ensemble(X, labels, config)

    def test_monotone_invariance_end_to_end(self):
        X, labels = _two_cluster_data(seed=6)
        X_test = substream(77).standard_normal((100, 4))
        config = EnsembleConfig(d=2, b1=5, b2=2, seed=13)

        model = train_ensemble(X, labels, config)
        preds, votes = predict(model, X_test)

        Xg, Xg_test = X.copy(), X_test.copy()
        for arr in (Xg, Xg_test):
            arr[:, 0] = np.exp(arr[:, 0])
            arr[:, 1] = arr[:, 1] ** 3
            arr[:, 2] = 3.0 * arr[:, 2] + 1.0
        model_g = train_ensemble(Xg, labels, config)
        preds_g, votes_g = predict(model_g, Xg_test)

        np.testing.assert_array_equal(preds, preds_g)
        np.testing.assert_array_equal(votes, votes_g)
        for block, block_g in zip(model.blocks, model_g.blocks):
            np.testing.assert_array_equal(block.model.cov0, block_g.model.cov0)
            np.testing.assert_array_equal(block.model.cov1, block_g.model.cov1)


def _constant_vote_model(n_ones: int, n_zeros: int, alpha: float) -> EnsembleModel:
    """Hand-built ensemble whose blocks are constant classifiers."""
    X = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    marginal_model, _ = fit_transform(X)
    blocks = []
    for prior1 in [0.8] * n_ones + [0.2] * n_zeros:
        blocks.append(
            Block(
                projection=Projection(matrix=np.eye(2), flavor="axis"),
                model=RqdaModel(1.0 - prior1, prior1, np.eye(2), np.eye(2), 0.0),
                train_error=0.5,
                candidate=0,
            )
        )
    config = EnsembleConfig(d=2, b1=len(blocks), b2=1, alpha=alpha, seed=0)
    return EnsembleModel(
        marginal_model=marginal_model, blocks=blocks, alpha=alpha, config=config
    )


class TestVotingAndClassify:
    def test_unanimous_vote(self):
        model = _constant_vote_model(3, 0, alpha=0.5)
        assert vote_fraction(model, np.array([0.3, 0.6])) == 1.0

    def test_half_vote(self):
        model = _constant_vote_model(2, 2, alpha=0.5)
        nu = vote_fraction(model, np.array([0.3, 0.6]))
        assert nu == 0.5 and type(nu) is float

    def test_single_block_votes_are_hard(self):
        model = _constant_vote_model(1, 0, alpha=0.5)
        assert vote_fraction(model, np.array([0.3, 0.6])) in (0.0, 1.0)

    def test_tie_with_alpha_is_class_one(self):
        model = _constant_vote_model(2, 2, alpha=0.5)
        label = classify(model, np.array([0.3, 0.6]))
        assert label == 1 and type(label) is int

    def test_alpha_zero_classifies_everything_one(self):
        model = _constant_vote_model(0, 4, alpha=0.0)
        assert vote_fraction(model, np.array([0.3, 0.6])) == 0.0
        assert classify(model, np.array([0.3, 0.6])) == 1

    def test_vote_times_b1_is_integer(self):
        X, labels = _two_cluster_data(seed=7)
        model = train_ensemble(X, labels, EnsembleConfig(d=2, b1=7, b2=2, seed=17))
        votes = vote_fractions(model, substream(55).standard_normal((50, 4)))
        np.testing.assert_array_equal(votes * 7, np.round(votes * 7))
        assert votes.min() >= 0.0 and votes.max() <= 1.0


class TestEnsembleConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            EnsembleConfig(d=1, b1=1, b2=1, alpha=1.5, seed=0)

    def test_bad_blocks(self):
        with pytest.raises(ValueError):
            EnsembleConfig(d=1, b1=0, b2=1, seed=0)

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            EnsembleConfig(d=1, b1=1, b2=1, flavor="fourier", seed=0)


def test_select_alpha_rejects_non_finite_votes():
    with pytest.raises(ValueError, match="votes must be finite"):
        select_alpha(np.array([np.nan, 0.5]), np.array([1, 0]), b1=2)


@pytest.mark.parametrize("b1, message", [(2.5, "got 2.5"), (True, "got True")])
def test_select_alpha_rejects_a_non_integer_b1(b1, message):
    with pytest.raises(ValueError, match=r"^b1 must be a positive integer, " + message):
        select_alpha(np.array([0.0, 1.0]), np.array([0, 1]), b1)


def test_row_count_mismatch_rejected_before_any_candidate_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("qda.fit_rqda called")

    monkeypatch.setattr(qda, "fit_rqda", no_fit)
    X, labels = _two_cluster_data(n=50)
    with pytest.raises(ValueError, match="^X has 50 rows but there are 40 labels$"):
        train_ensemble(X, labels[:40], EnsembleConfig(d=2, b1=1, b2=1, seed=0))


@pytest.mark.parametrize(
    "labels, small",
    [([0, 1, 0, 1, 1, 1, 1], [0]), ([1, 0, 1, 0, 0, 0, 0], [1]), ([0, 1, 0, 1], [0, 1])],
)
def test_rank_warning_fires_once_per_fit_and_small_class_naming_the_caller(labels, small):
    labels = np.array(labels)
    X = substream(4).standard_normal((labels.size, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train_ensemble(X, labels, EnsembleConfig(d=2, b1=4, b2=5, ridge=0.1, seed=4))
    assert [str(w.message) for w in caught] == [
        f"class {r} has only 2 samples for a 2-dimensional covariance; "
        "the estimate is rank-deficient without a ridge"
        for r in small
    ]
    assert all(w.filename == __file__ for w in caught)


def test_one_row_training_data_rejected():
    with pytest.raises(TrainingError, match="degenerate class distribution"):
        train_ensemble(np.ones((1, 2)), np.array([1]), EnsembleConfig(d=1, b1=1, b2=1, seed=0))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("d", 2.5, "d must be a positive integer, got 2.5"),
        ("b1", True, "b1 must be a positive integer, got True"),
        ("b2", np.bool_(True), "b2 must be a positive integer"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("ridge", float("inf"), "ridge must be a finite number, got inf"),
        ("ridge", float("nan"), "ridge must be a finite number, got nan"),
        ("ridge", -0.5, "ridge must be >= 0, got -0.5"),
        ("alpha", "0.5", "alpha must be a finite number, got '0.5'"),
        ("flavor", 5, "flavor must be one of ('gaussian', 'haar', 'axis'), got 5"),
    ],
)
def test_config_rejects_a_bad_value_with_one_error_naming_it(field, value, message):
    values = dict(d=1, b1=1, b2=1, seed=0) | {field: value}
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        EnsembleConfig(**values)


def test_config_of_numpy_integers_stores_python_ints_and_trains():
    config = EnsembleConfig(d=np.int64(3), b1=np.int64(2), b2=2, seed=np.uint16(5))
    assert [type(getattr(config, f)) for f in ("d", "b1", "b2", "seed")] == [int] * 4
    X, labels = _two_cluster_data(seed=3)
    plain = EnsembleConfig(d=3, b1=2, b2=2, seed=5)
    assert model_to_dict(train_ensemble(X, labels, config)) == model_to_dict(
        train_ensemble(X, labels, plain)
    )


def test_hand_built_model_checks_alpha_and_block_count():
    model = _constant_vote_model(2, 1, alpha=0.5)
    parts = model.marginal_model, model.blocks
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 7"):
        EnsembleModel(*parts, 7, model.config)
    with pytest.raises(ValueError, match="^model has 3 blocks, expected b1=4"):
        EnsembleModel(*parts, 0.5, dataclasses.replace(model.config, b1=4))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda: dict(candidate=1), "block 0: candidate must be < b2=1, got 1"),
        (lambda: dict(candidate=-1), "candidate must be an integer >= 0, got -1"),
        (lambda: dict(train_error=1.5), "train_error must lie in [0, 1], got 1.5"),
        (lambda: dict(projection=Projection(np.eye(2), "fourier")), "flavor must be one of"),
        (lambda: dict(projection=Projection(np.eye(2), "axis", [0, 1])), "stream must be None or a tuple"),
        (lambda: dict(projection=Projection(np.eye(2), "axis", (0, -2))), "stream entry must be"),
    ],
)
def test_hand_built_model_checks_block_metadata(change, message):
    model = _constant_vote_model(1, 1, alpha=0.5)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        blocks = [dataclasses.replace(model.blocks[0], **change()), model.blocks[1]]
        EnsembleModel(model.marginal_model, blocks, model.alpha, model.config)


def test_block_stores_numpy_scalars_as_python_int_and_float():
    block = _constant_vote_model(1, 0, alpha=0.5).blocks[0]
    numpy_block = dataclasses.replace(block, candidate=np.int64(3), train_error=np.float32(0.25))
    assert (numpy_block.candidate, numpy_block.train_error) == (3, 0.25)
    assert (type(numpy_block.candidate), type(numpy_block.train_error)) == (int, float)
    assert type(dataclasses.replace(block, train_error=0).train_error) is float


def test_fit_that_selects_always_class_0_trains_and_round_trips(tmp_path):
    X = np.array([[-0.991], [-0.710], [-0.445], [0.091], [0.807], [-0.656], [0.930]])
    labels = np.array([0, 0, 0, 1, 0, 1, 0])
    model = train_ensemble(X, labels, EnsembleConfig(d=1, b1=1, b2=1, flavor="gaussian"))
    assert model.alpha == 1.5
    preds, votes = predict(model, X)
    np.testing.assert_array_equal(preds, np.zeros(7, dtype=int))
    save_model(model, tmp_path / "model.json")
    reloaded = load_model(tmp_path / "model.json")
    assert model_to_dict(reloaded) == model_to_dict(model)
    np.testing.assert_array_equal(vote_fractions(reloaded, X), votes)


def test_hand_built_model_accepts_only_the_top_threshold_above_one():
    model = _constant_vote_model(1, 0, alpha=0.5)
    parts = model.marginal_model, model.blocks
    assert EnsembleModel(*parts, 1.5, model.config).alpha == 1.5
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1.2"):
        EnsembleModel(*parts, 1.2, model.config)


def _golden_with_matrix(matrix) -> EnsembleModel:
    model = load_model(GOLDEN_PATH)
    block = model.blocks[0]
    bad = dataclasses.replace(block, projection=dataclasses.replace(block.projection, matrix=matrix))
    return EnsembleModel(model.marginal_model, [bad], model.alpha, model.config)


def test_hand_built_model_rejects_a_non_finite_block_matrix():
    with pytest.raises(ValueError, match="^projection matrix has a non-finite value$"):
        _golden_with_matrix(np.full((2, 3), np.nan))


def test_hand_built_model_rejects_a_block_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=re.escape("block 0: matrix has shape (2, 1), expected (2, 3)")):
        _golden_with_matrix(np.ones((2, 1)))


def test_hand_built_model_rejects_covariances_of_another_size():
    model = load_model(GOLDEN_PATH)
    bad = dataclasses.replace(model.blocks[0], model=RqdaModel(0.5, 0.5, np.eye(3), np.eye(3), 0.0))
    with pytest.raises(ValueError, match=re.escape("block 0: covariances have shape (3, 3), expected (2, 2)")):
        EnsembleModel(model.marginal_model, [bad], model.alpha, model.config)


def test_hand_built_model_rejects_d_above_n_features():
    model = load_model(GOLDEN_PATH)
    block = model.blocks[0]
    wide = dataclasses.replace(
        block,
        projection=dataclasses.replace(block.projection, matrix=np.eye(4, 3)),
        model=RqdaModel(0.5, 0.5, np.eye(4), 2.0 * np.eye(4), 0.0),
    )
    config = dataclasses.replace(model.config, d=4)
    with pytest.raises(ValueError, match="^model needs d <= n_features, got d=4, n_features=3$"):
        EnsembleModel(model.marginal_model, [wide], model.alpha, config)


def test_select_alpha_rejects_more_votes_than_labels():
    with pytest.raises(ValueError, match=re.escape("votes and labels disagree: (3,) vs (2,)")):
        select_alpha(np.array([0.1, 0.5, 0.9]), np.array([0, 1]), b1=1)


def test_vote_fraction_rejects_a_2d_input():
    model = load_model(GOLDEN_PATH)
    with pytest.raises(ValueError, match=re.escape("expected a 1-d feature vector, got shape (2, 3)")):
        vote_fraction(model, np.zeros((2, 3)))


def test_config_rejects_a_ridge_too_large_for_a_float():
    with pytest.raises(ValueError, match="^ridge must be a finite number, got 1000"):
        EnsembleConfig(d=1, b1=1, b2=1, seed=0, ridge=10**400)


def _candidate_projections(p, config, b):
    return [sample_projection(p, config.d, config.flavor, substream(config.seed, b, c)) for c in range(config.b2)]


def _per_candidate_blocks(X, labels, config, singular=()):
    """Each block's (candidate, train_error, model) from one fit_rqda per candidate.

    None for a block where every candidate is singular; a (block,
    candidate) pair in ``singular`` is treated as singular too.
    """
    _, scores = fit_transform(X)
    chosen = []
    for b in range(config.b1):
        best = None
        for c, proj in enumerate(_candidate_projections(X.shape[1], config, b)):
            Z = project(proj, scores)
            try:
                if (b, c) in singular:
                    raise SingularMatrixError("treated as singular")
                model = fit_rqda(Z, labels, config.ridge)
            except SingularMatrixError:
                continue
            err = training_error(model, Z, labels)
            if best is None or err < best[1]:
                best = (c, err, model)
        chosen.append(best)
    return chosen


def _assert_blocks_match(model, chosen):
    for block, (candidate, err, fitted) in zip(model.blocks, chosen):
        assert (block.candidate, block.train_error) == (candidate, err)
        for name in ("cov0", "cov1"):
            assert getattr(block.model, name).tobytes() == getattr(fitted, name).tobytes()


@st.composite
def selection_problems(draw):
    p = draw(st.integers(1, 5))
    d = draw(st.integers(1, p))
    n0 = draw(st.integers(1, 12))  # may be below d + 1
    n1 = draw(st.integers(1, 12))
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat([0, 1], [n0, n1]))
    X = rng.standard_normal((n0 + n1, p)) * np.where(labels == 1, 2.0, 1.0)[:, None]
    if draw(st.booleans()):
        X = np.round(X)  # quantized features: tied columns and tied errors
    config = EnsembleConfig(
        d=d,
        b1=draw(st.integers(1, 3)),
        b2=draw(st.integers(1, 8)),
        flavor=draw(st.sampled_from(FLAVORS)),
        ridge=draw(st.sampled_from([None, 0.0, 0.1])),
        seed=draw(st.integers(0, 1000) | st.sampled_from([2**32 - 1, 2**32, 2**64 + 5])),
    )
    return X, labels, config


@settings(max_examples=150, deadline=None)
@given(selection_problems())
def test_batched_selection_equals_the_per_candidate_argmin(problem):
    X, labels, config = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chosen = _per_candidate_blocks(X, labels, config)
        failed = [b for b, best in enumerate(chosen) if best is None]
        if failed:
            with pytest.raises(TrainingError, match=f"^block {failed[0]}: all {config.b2} "):
                train_ensemble(X, labels, config)
            return
        model = train_ensemble(X, labels, config)
    _assert_blocks_match(model, chosen)


def _stack_failures(monkeypatch):
    """Count the batched factorizations that raise, keeping their behaviour."""
    failures, stacked = [], qda._stacked_terms

    def counting(*args):
        try:
            return stacked(*args)
        except np.linalg.LinAlgError:
            failures.append(1)
            raise

    monkeypatch.setattr(qda, "_stacked_terms", counting)
    return failures


def test_block_whose_batched_factor_fails_refits_every_candidate(monkeypatch):
    # the two class-0 rows tie at the middle rank of column 0, so their
    # scores there are exactly zero: at the zero ridge, a candidate on
    # column 0 is singular and the others are not
    X = substream(5).standard_normal((7, 3))
    X[:, 0] = [1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 7.0]
    labels = np.array([1, 1, 0, 0, 1, 1, 1])
    config = EnsembleConfig(d=1, b1=6, b2=3, flavor="axis", ridge=0.0, seed=2)
    failures = _stack_failures(monkeypatch)
    chosen = _per_candidate_blocks(X, labels, config)
    model = train_ensemble(X, labels, config)
    assert 0 < len(failures) < config.b1
    _assert_blocks_match(model, chosen)


def test_a_singular_exact_refit_widens_the_refits_to_the_next_best(monkeypatch):
    X, labels = _two_cluster_data(seed=8)
    config = EnsembleConfig(d=2, b1=4, b2=10, seed=17)
    winners = [block.candidate for block in train_ensemble(X, labels, config).blocks]
    _, scores = fit_transform(X)
    refused = [project(sample_projection(4, 2, "haar", substream(17, b, c)), scores)
               for b, c in enumerate(winners)]
    fit = qda._fit

    def refusing(Z, *args):
        if any(np.array_equal(Z, R) for R in refused):
            raise SingularMatrixError("refused")
        return fit(Z, *args)

    monkeypatch.setattr(qda, "_fit", refusing)
    model = train_ensemble(X, labels, config)
    chosen = _per_candidate_blocks(X, labels, config, singular=set(enumerate(winners)))
    assert [block.candidate for block in model.blocks] != winners
    _assert_blocks_match(model, chosen)


def test_a_forced_zero_haar_diagonal_is_drawn_once_from_its_keyed_stream(monkeypatch):
    # the QR of candidate (1, 2)'s draw gets a zero diagonal entry; training
    # keeps that one draw (Q's columns stay orthonormal, the zero takes the
    # sign +1), builds no substream and matches the per-candidate path
    X, labels = _two_cluster_data(seed=3)
    config = EnsembleConfig(d=2, b1=3, b2=4, seed=2**64 + 5)
    target = substream(config.seed, 1, 2).standard_normal((2, 4)).T
    qr, hits = np.linalg.qr, []

    def zeroing(a):
        Q, R = qr(a)
        for k in np.ndindex(a.shape[:-2]):
            if np.array_equal(a[k], target):
                hits.append(k)
                R[k][0, 0] = 0.0
        return Q, R

    drawn, sample, restarts, keyed = [], projections._sample_matrices, [], ensemble.substream
    monkeypatch.setattr(np.linalg, "qr", zeroing)
    monkeypatch.setattr(projections, "_sample_matrices", lambda *args: drawn.append(sample(*args)) or drawn[-1])
    monkeypatch.setattr(ensemble, "substream", lambda *key: restarts.append(key) or keyed(*key))
    model = train_ensemble(X, labels, config)
    assert (hits, restarts, len(drawn)) == ([(2,)], [], config.b1)
    np.testing.assert_allclose(drawn[1][2] @ drawn[1][2].T, np.eye(2), atol=1e-12)
    for b, matrices in enumerate(drawn[:config.b1]):
        for c, matrix in enumerate(matrices):
            expected = sample_projection(4, 2, "haar", substream(config.seed, b, c)).matrix
            assert matrix.tobytes() == expected.tobytes()
    assert hits == [(2,), (0,)]  # the per-candidate draw of the same candidate
    _assert_blocks_match(model, _per_candidate_blocks(X, labels, config))


def _desk_draw(n=500, stream=3):
    """The desk scenario's n rows drawn from substream (1, stream): by default its 500 training rows."""
    p = 10
    cov0 = np.eye(p)
    idx = np.arange(p - 1)
    cov0[idx, idx + 1] = cov0[idx + 1, idx] = 0.05
    cov1 = np.eye(p)
    cov1[:4, :4] = 0.85
    cov1[4, 5] = cov1[5, 4] = -0.8
    np.fill_diagonal(cov1, 1.0)
    spec = ScenarioSpec(p=p, prior1=0.5, cov0=cov0, cov1=cov1,
                        marginal_maps=["exp", "cube"] * 5, seed=20260810)
    data = sample_meta_gaussian(n, spec, substream(1, stream))
    return data.features, data.labels


def test_haar_and_gaussian_pick_the_same_candidates_and_nearly_the_same_votes():
    # a haar matrix is an invertible d x d map of the gaussian one, which the
    # centred QDA sees only through rounding and the ridge: at seed 42 the
    # flavors agree on every candidate, error, alpha and label, yet 2 of
    # 20000 held-out vote fractions differ by one block's vote when this was
    # written
    X, labels = _desk_draw()
    held_out, _ = _desk_draw(20000, 4)
    gaussian, haar = (train_ensemble(X, labels, EnsembleConfig(d=3, b1=100, b2=20, seed=42, flavor=flavor))
                      for flavor in ("gaussian", "haar"))
    assert [(b.candidate, b.train_error) for b in gaussian.blocks] == [(b.candidate, b.train_error) for b in haar.blocks]
    assert gaussian.alpha == haar.alpha
    (labels_g, votes_g), (labels_h, votes_h) = predict(gaussian, held_out), predict(haar, held_out)
    np.testing.assert_array_equal(labels_g, labels_h)
    assert np.count_nonzero(votes_g != votes_h) <= held_out.shape[0] // 1000


def test_selection_refits_about_one_candidate_per_block(monkeypatch):
    # 104 exact refits for 100 blocks of 20 candidates when this was written;
    # a looser bound or selection rule would refit many more
    X, labels = _desk_draw()
    calls, fit = [], qda._fit

    def counting(*args):
        calls.append(1)
        return fit(*args)

    monkeypatch.setattr(qda, "_fit", counting)
    train_ensemble(X, labels, EnsembleConfig(d=3, b1=100, b2=20, seed=1))
    assert 100 <= len(calls) <= 110


def _fit_inputs(X, labels):
    """The probit scores, class rows, priors and class second moments a fit bounds its candidates with."""
    _, scores = fit_transform(X)
    rows = qda._class_rows(labels)
    return scores, rows, qda._priors(rows), np.stack([qda._second_moment(scores[r], 0.0) for r in rows])


def _block_bounds(matrices, inputs, ridge):
    scores, rows, priors, _ = inputs
    return qda._lower_bounds(matrices, qda._bound_rows(scores, rows), priors, ridge)


@settings(max_examples=150, deadline=None)
@given(selection_problems())
def test_every_candidate_errs_at_least_its_lower_bound(problem):
    # the ordered refit pass keeps the exact argmin only if no candidate's
    # bound exceeds its exact error; the argmin test above sees only winners
    X, labels, config = problem
    inputs = _fit_inputs(X, labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for b in range(config.b1):
            candidates = _candidate_projections(X.shape[1], config, b)
            try:
                lower = _block_bounds(np.stack([proj.matrix for proj in candidates]), inputs, config.ridge)
            except np.linalg.LinAlgError:
                continue  # training refits every candidate of this block
            for c, proj in enumerate(candidates):
                Z = project(proj, inputs[0])
                try:
                    model = fit_rqda(Z, labels, config.ridge)
                except SingularMatrixError:
                    continue
                assert lower[c] <= training_error(model, Z, labels)


def _large_draw():
    """The bench's ``large`` scenario: 20000 training rows at p=50."""
    spec = ScenarioSpec(p=50, prior1=0.5, cov0=np.eye(50), cov1=block_correlation_matrix(50, 10, 0.5),
                        marginal_maps=["exp", "cube"] * 25, seed=7)
    data = sample_meta_gaussian(20000, spec, substream(20260810, 3))
    return data.features, data.labels


_SLACK_DRAWS = pytest.mark.parametrize("draw, config", [
    (_desk_draw, EnsembleConfig(d=3, b1=100, b2=20, seed=42)),
    (_large_draw, EnsembleConfig(d=5, b1=3, b2=20, seed=42)),
], ids=["desk", "large"])


def _class_norm_max(scores, rows):
    """Each class's largest squared score norm ``||s||^2``, the (2,) ``norm_max`` of ``qda._sure_error_terms``."""
    return np.array([np.einsum("ij,ij->i", scores[r], scores[r]).max() for r in rows])


def _eigenbasis(matrices, moments, priors, ridge):
    """A block's float64 terms, eigenvalues and ``W``, the (p, b2*d) rotated projections qda casts to float32."""
    D, const, scale = qda._stacked_terms(matrices, moments, priors, ridge)
    lam, V = np.linalg.eigh(D)
    W = (V.swapaxes(1, 2) @ matrices).transpose(2, 0, 1).reshape(matrices.shape[2], -1)
    return D, const, scale, lam, W


@_SLACK_DRAWS
def test_rotated_discriminants_leave_the_unsure_margin_its_slack(draw, config):
    # the bound trusts a sign beyond 1e-10 of the scale; the eigenbasis and
    # qda.stacked_discriminant agree to 3.7e-17 of it on desk and large draws
    X, labels = draw()
    scores, rows, priors, moments = _fit_inputs(X, labels)
    n, p = scores.shape
    norm_max = _class_norm_max(scores, rows)
    for b in range(config.b1):
        matrices = np.stack([proj.matrix for proj in _candidate_projections(p, config, b)])
        D, const, scale, lam, W = _eigenbasis(matrices, moments, priors, config.ridge)
        W32 = qda._sure_error_terms(matrices, moments, priors, config.ridge, norm_max)[0]
        assert W32.tobytes() == W.astype(np.float32).tobytes()
        U = (scores @ W).reshape(n, config.b2, config.d)
        rotated = const - 0.5 * np.einsum("mkj,kj->mk", U * U, lam)
        Z = (scores @ matrices.transpose(2, 0, 1).reshape(p, -1)).reshape(n, config.b2, config.d)
        tol = 1e-13 * (scale[0] + scale[1] * np.einsum("mkj,mkj->mk", Z, Z))
        assert (np.abs(rotated - qda.stacked_discriminant(Z, D, const)) <= tol).all()


@pytest.mark.parametrize("draw, config, scale0", [
    (_desk_draw, EnsembleConfig(d=3, b1=100, b2=20, seed=42), 1.0),
    (_large_draw, EnsembleConfig(d=5, b1=3, b2=20, seed=42), 1.0),
    (_desk_draw, EnsembleConfig(d=3, b1=100, b2=20, seed=42), 30.0),
], ids=["desk", "large", "desk_class0_x30"])
def test_float32_rotated_discriminants_stay_within_the_derived_rounding_margin(draw, config, scale0):
    # qda lowers each class's thresholds to float32 limits by c times the
    # class's largest ||s||^2; the gap must cover every row's float32 error
    # against the float64 W and weights. When this was written the worst
    # row of every block left a slack of 10.9 (desk) and 60.9 (large); with
    # class 0's scores scaled by 30, 13.9, and 0.024 with the two classes'
    # maxima swapped, so each class needs its own
    X, labels = draw()
    scores, rows, priors, _ = _fit_inputs(X, labels)
    scores[rows[0]] *= scale0
    moments = np.stack([qda._second_moment(scores[r], 0.0) for r in rows])
    p = scores.shape[1]
    norm_max = _class_norm_max(scores, rows)
    sign = np.array([-1.0, 1.0])[:, None]
    slack = np.inf
    for b in range(config.b1):
        matrices = np.stack([proj.matrix for proj in _candidate_projections(p, config, b)])
        _, const, scale, lam, W = _eigenbasis(matrices, moments, priors, config.ridge)
        weights = -0.5 * sign[..., None] * lam + qda._UNSURE_MARGIN * scale[1][:, None]
        threshold = -(sign * const + qda._UNSURE_MARGIN * scale[0])
        W32, weights32, limit = qda._sure_error_terms(matrices, moments, priors, config.ridge, norm_max)
        gap = threshold - limit.astype(np.float64)
        for r, idx in enumerate(rows):
            S = scores[idx]
            U = (S @ W).reshape(idx.size, config.b2, config.d)
            exact = np.einsum("mkj,kj->mk", U * U, weights[r])
            U32 = S.astype(np.float32) @ W32
            U32 *= U32
            error = np.abs((U32 @ weights32[r]).astype(np.float64) - exact)
            slack = min(slack, (gap[r] / np.maximum(error, np.finfo(float).tiny)).min())
    assert slack >= 1.0, f"float32 error exceeds the derived margin: slack {slack:.3g}"
    print(f"float32 rounding margin slack: {slack:.3g}")


def test_float32_bounds_refit_about_one_candidate_per_large_block(monkeypatch):
    # 3 exact refits for 3 blocks of 20 candidates when this was written; a
    # rounding margin grown too wide would count no sure error and refit all 60
    X, labels = _large_draw()
    calls, fit = [], qda._fit
    monkeypatch.setattr(qda, "_fit", lambda *args: calls.append(1) or fit(*args))
    train_ensemble(X, labels, EnsembleConfig(d=5, b1=3, b2=20, seed=42))
    assert 3 <= len(calls) <= 6


@pytest.mark.parametrize("where", ["D", "const", "eigenvalue", "eigenvector", "float32_overflow"])
def test_a_non_finite_candidate_term_refits_its_whole_block(monkeypatch, where):
    # eigh of a stack with one NaN entry in D may return a NaN eigenpair or
    # fail the whole stack; a non-finite term anywhere in the batch, or one
    # finite in float64 but not in the float32 bound pass (an eigenvalue of
    # 1e39), fails it as a covariance with no factor does, and training
    # refits every candidate of the block exactly
    X, labels = _desk_draw()
    config = EnsembleConfig(d=3, b1=5, b2=20, seed=1)
    inputs = _fit_inputs(X, labels)
    matrices = np.stack([proj.matrix for proj in _candidate_projections(X.shape[1], config, 0)])
    target = int(np.argmax(_block_bounds(matrices, inputs, config.ridge)))
    chosen = _per_candidate_blocks(X, labels, config)
    stacked, eigh, fit = qda._stacked_terms, np.linalg.eigh, qda._fit

    def poisoned_terms(*args):
        D, const, scale = stacked(*args)
        if where == "D":
            D[target, 0, 0] = np.nan
        else:
            const[target] = np.nan
        return D, const, scale

    def poisoned_eigh(D):
        lam, V = eigh(D)
        if where == "float32_overflow":
            lam[target, 0] = 1e39
        else:
            (lam if where == "eigenvalue" else V)[target, 0] = np.nan
        return lam, V

    if where in ("D", "const"):
        monkeypatch.setattr(qda, "_stacked_terms", poisoned_terms)
    else:
        monkeypatch.setattr(np.linalg, "eigh", poisoned_eigh)
    with pytest.raises(np.linalg.LinAlgError):
        _block_bounds(matrices, inputs, config.ridge)
    refits = []
    monkeypatch.setattr(qda, "_fit", lambda *args: refits.append(1) or fit(*args))
    _assert_blocks_match(train_ensemble(X, labels, config), chosen)
    assert len(refits) == config.b1 * config.b2


@pytest.mark.parametrize("flavor", FLAVORS)
def test_rows_on_a_candidates_boundary_are_never_sure_errors(flavor):
    # rows where a candidate's batched discriminant is about 0, labelled by
    # the exact model's sign, so the exact error on them is 0; the bound
    # must count none of them. With _UNSURE_MARGIN at 0 it counted up to 587,
    # 714 and 581 of a candidate's rows (haar, gaussian, axis) when this was
    # written; at 1e-15 none
    X, labels = _desk_draw()
    config = EnsembleConfig(d=3, b1=1, b2=20, seed=42, flavor=flavor)
    scores, rows, priors, moments = _fit_inputs(X, labels)
    candidates = _candidate_projections(X.shape[1], config, 0)
    matrices = np.stack([proj.matrix for proj in candidates])
    D, const, _ = qda._stacked_terms(matrices, moments, priors, None)
    for c in (0, 5, 10, 15):
        v = substream(99, c).standard_normal((2000, X.shape[1]))
        Av = v @ matrices[c].T
        ratio = 2.0 * const[c] / np.einsum("mi,ij,mj->m", Av, D[c], Av)
        rows_B = np.sqrt(ratio[ratio > 0.0])[:, None] * v[ratio > 0.0]
        exact = qda._fit(project(candidates[c], scores), rows, priors, None)
        labels_B = (qda.discriminant(project(candidates[c], rows_B), exact) >= 0.0).astype(int)
        assert 0 < labels_B.sum() < labels_B.size
        # the candidate's terms come from the training moments, the count from the boundary rows
        _, class_rows, norm_max = qda._bound_rows(rows_B, qda._class_rows(labels_B))
        bound = qda._lower_bounds(matrices[c:c + 1], (moments, class_rows, norm_max), priors, None)
        assert bound[0] == 0.0


@pytest.mark.parametrize("ridge", [None, 0.1])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_a_fit_s_blocks_are_a_prefix_of_a_larger_b1_fit_s(flavor, ridge):
    # block b draws from the keys (seed, b, c) and nothing in it depends on
    # b1, so growing b1 appends blocks and leaves the first ones as they were
    X, labels = _desk_draw()

    def blocks(b1):
        config = EnsembleConfig(d=3, b1=b1, b2=5, seed=42, flavor=flavor, ridge=ridge)
        return model_to_dict(train_ensemble(X, labels, config))["blocks"]

    assert json.dumps(blocks(10)) == json.dumps(blocks(40)[:10])


@pytest.mark.parametrize("entry", ["classify", "vote_fraction", "predict", "vote_fractions", "train_ensemble"])
def test_complex_features_are_rejected_at_every_entry_point(entry):
    # a cast to float would keep only the real part and answer for other features
    model = load_model(GOLDEN_PATH)
    x = np.ones(model.n_features) + 1j
    X, labels = _two_cluster_data(n=20, p=3, seed=1)
    calls = {
        "classify": lambda: classify(model, x),
        "vote_fraction": lambda: vote_fraction(model, x),
        "predict": lambda: predict(model, np.stack([x, x])),
        "vote_fractions": lambda: vote_fractions(model, x),
        "train_ensemble": lambda: train_ensemble(X + 0.5j, labels, EnsembleConfig(d=2, b1=2, b2=2)),
    }
    with pytest.raises(DataError, match="^complex feature values are not supported; features must be real$"):
        calls[entry]()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda c: project(sample_projection(3, 2, "haar", substream(1)), np.ones((4, 3)) + c), "scores"),
        (lambda c: qda.discriminant(np.ones(2) + c, RqdaModel(0.5, 0.5, np.eye(2), np.eye(2), 0.0)), "scores"),
        (lambda c: rqda_classify(np.ones((3, 2)) + c, RqdaModel(0.5, 0.5, np.eye(2), np.eye(2), 0.0)), "scores"),
        (lambda c: fit_rqda(np.arange(8.0).reshape(4, 2) + c, [0, 1, 0, 1], 0.1), "scores"),
        (lambda c: qda.estimate_projected_covariance(np.arange(8.0).reshape(4, 2) + c, [0, 1, 0, 1], 0), "scores"),
        (lambda c: select_alpha(np.full(4, 0.5) + c, [0, 1, 0, 1], 2), "votes"),
        (lambda c: qda.inverse_spd(np.eye(2) + c), "matrix"),
        (lambda c: qda.log_det_spd(np.eye(2) + c), "matrix"),
        (lambda c: piecewise_linear_map([(0.0, 0.0), (1.0, 1.0 + c)]), "breakpoints"),
        (lambda c: piecewise_linear_map([(0.0, 0.0), (1.0, 1.0)])(np.zeros(2) + c), "map input"),
        (lambda c: MARGINAL_MAPS["cube"](np.zeros(2) + c), "map input"),
        (lambda c: MARGINAL_MAPS["exp"](np.zeros(2) + c), "map input"),
        (lambda c: norm_cdf(np.zeros(2) + c), "cdf argument"),
        (lambda c: inv_norm_cdf(np.full(2, 0.5) + c), "quantile argument"),
    ],
    ids=["project", "discriminant", "rqda_classify", "fit_rqda", "estimate_projected_covariance",
         "select_alpha", "inverse_spd", "log_det_spd", "piecewise_linear_map", "piecewise_map_input",
         "cube_map_input", "exp_map_input", "norm_cdf", "inv_norm_cdf"],
)
@pytest.mark.parametrize("imaginary", [0.5j, 0j], ids=["complex", "zero_imaginary_part"])
def test_complex_arrays_are_rejected_at_every_numeric_entry(call, message, imaginary):
    # a cast to float would keep only the real part, with only a ComplexWarning
    with pytest.raises(ValueError, match=f"^{message} must be real, not complex$"):
        call(imaginary)


def test_plain_lists_train_and_vote_as_arrays_do():
    X, labels = _two_cluster_data(n=40, p=3, seed=2)
    config = EnsembleConfig(d=2, b1=3, b2=4, seed=5)
    model = train_ensemble(X, labels, config)
    from_lists = train_ensemble(X.tolist(), labels.tolist(), config)
    assert json.dumps(model_to_dict(from_lists)) == json.dumps(model_to_dict(model))
    for x in X[:5]:
        assert vote_fraction(model, x.tolist()) == vote_fraction(model, x)

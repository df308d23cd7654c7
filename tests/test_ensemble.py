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
    EnsembleConfig,
    ScenarioSpec,
    SingularMatrixError,
    qda,
    TrainingError,
    classify,
    fit_transform,
    load_model,
    model_from_parameters,
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
from rankqda.ensemble import Block, EnsembleModel
from rankqda.model_io import model_to_dict
from rankqda.projections import Projection
from rankqda.qda import fit_rqda
from rankqda.rng import substream

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
        return model_from_parameters(0.8, np.eye(2), np.eye(2))

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

    def test_fixed_alpha_skips_selection(self):
        X, labels = _two_cluster_data(seed=4)
        model = train_ensemble(X, labels, EnsembleConfig(d=2, b1=3, b2=2, alpha=0.25, seed=5))
        assert model.alpha == 0.25

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
                model=model_from_parameters(prior1, np.eye(2), np.eye(2)),
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
        assert vote_fraction(model, np.array([0.3, 0.6])) == 0.5

    def test_single_block_votes_are_hard(self):
        model = _constant_vote_model(1, 0, alpha=0.5)
        assert vote_fraction(model, np.array([0.3, 0.6])) in (0.0, 1.0)

    def test_tie_with_alpha_is_class_one(self):
        model = _constant_vote_model(2, 2, alpha=0.5)
        assert classify(model, np.array([0.3, 0.6])) == 1

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
        (dict(candidate=1), "block 0 candidate must be < b2=1, got 1"),
        (dict(candidate=-1), "block 0 candidate must be an integer >= 0, got -1"),
        (dict(train_error=1.5), "block 0 train_error must lie in [0, 1], got 1.5"),
        (dict(projection=Projection(np.eye(2), "fourier")), "block 0 flavor must be one of"),
        (dict(projection=Projection(np.eye(2), "axis", [0, 1])), "block 0 stream must be None or a tuple"),
        (dict(projection=Projection(np.eye(2), "axis", (0, -2))), "block 0 stream entry must be"),
    ],
)
def test_hand_built_model_checks_block_metadata(change, message):
    model = _constant_vote_model(1, 1, alpha=0.5)
    blocks = [dataclasses.replace(model.blocks[0], **change), model.blocks[1]]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        EnsembleModel(model.marginal_model, blocks, model.alpha, model.config)


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
    with pytest.raises(ValueError, match="^block 0 matrix has a non-finite value$"):
        _golden_with_matrix(np.full((2, 3), np.nan))


def test_hand_built_model_rejects_a_block_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match=re.escape("block 0 matrix has shape (2, 1), expected (2, 3)")):
        _golden_with_matrix(np.ones((2, 1)))


def test_hand_built_model_rejects_covariances_of_another_size():
    model = load_model(GOLDEN_PATH)
    bad = dataclasses.replace(model.blocks[0], model=model_from_parameters(0.5, np.eye(3), np.eye(3)))
    with pytest.raises(ValueError, match=re.escape("block 0 covariances have shape (3, 3), expected (2, 2)")):
        EnsembleModel(model.marginal_model, [bad], model.alpha, model.config)


def test_hand_built_model_rejects_d_above_n_features():
    model = load_model(GOLDEN_PATH)
    block = model.blocks[0]
    wide = dataclasses.replace(
        block,
        projection=dataclasses.replace(block.projection, matrix=np.eye(4, 3)),
        model=model_from_parameters(0.5, np.eye(4), 2.0 * np.eye(4)),
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


def _per_candidate_blocks(X, labels, config, singular=()):
    """Each block's (candidate, train_error, model) from one fit_rqda per candidate.

    None for a block where every candidate is singular; a (block,
    candidate) pair in ``singular`` is treated as singular too.
    """
    _, scores = fit_transform(X)
    chosen = []
    for b in range(config.b1):
        best = None
        for c in range(config.b2):
            proj = sample_projection(X.shape[1], config.d, config.flavor, substream(config.seed, b, c))
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
        seed=draw(st.integers(0, 1000)),
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


def _desk_draw():
    """The desk scenario's 500 training rows drawn from substream (1, 3)."""
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
    data = sample_meta_gaussian(500, spec, substream(1, 3))
    return data.features, data.labels


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

"""The stacked vote kernel, the marginal score table and the label check.

Votes from :func:`vote_fractions` must equal, exactly, those of the
per-block loop in ``oracles.py``, and table scores must equal the
quantile function evaluated entry by entry.
"""

import numpy as np
import pytest

from rankqda import (
    EnsembleConfig,
    estimate_priors,
    fit_transform,
    inv_norm_cdf,
    predict,
    qda,
    select_alpha,
    train_ensemble,
    transform_new,
    vote_fraction,
    vote_fractions,
)
from rankqda.rng import substream

from oracles import per_block_vote_fractions
from test_ensemble import _constant_vote_model, _two_cluster_data


def _model(flavor, b1=6, d=2, seed=31):
    X, labels = _two_cluster_data(n=80, p=5, seed=seed)
    return train_ensemble(X, labels, EnsembleConfig(d=d, b1=b1, b2=3, flavor=flavor, seed=seed))


class TestStackedVotesMatchPerBlockLoop:
    @pytest.mark.parametrize("flavor", ["haar", "gaussian", "axis"])
    def test_multi_block_model_of_each_flavor(self, flavor):
        model = _model(flavor)
        X = substream(41).standard_normal((300, 5)) * 2.0
        np.testing.assert_array_equal(vote_fractions(model, X), per_block_vote_fractions(model, X))

    @pytest.mark.parametrize("rows", ["one", "chunk", "chunk_plus_one"])
    def test_row_counts_around_the_chunk_size(self, rows):
        model = _model("haar", b1=9, d=3)
        chunk = qda._chunk_rows(model.stacked_projection.shape[1])
        m = {"one": 1, "chunk": chunk, "chunk_plus_one": chunk + 1}[rows]
        X = substream(43).standard_normal((m, 5))
        votes = vote_fractions(model, X)
        assert votes.shape == (m,)
        np.testing.assert_array_equal(votes, per_block_vote_fractions(model, X))

    def test_single_row_equals_bulk(self):
        model = _model("gaussian")
        X = substream(47).standard_normal((40, 5))
        bulk = vote_fractions(model, X)
        for i in range(X.shape[0]):
            assert vote_fraction(model, X[i]) == bulk[i]

    @pytest.mark.parametrize("n_ones,n_zeros", [(3, 0), (2, 2), (0, 4), (1, 0)])
    def test_hand_built_constant_vote_model(self, n_ones, n_zeros):
        model = _constant_vote_model(n_ones, n_zeros, alpha=0.5)
        X = np.array([[0.3, 0.6], [-5.0, 9.0], [0.0, 0.0]])
        votes = vote_fractions(model, X)
        np.testing.assert_array_equal(votes, per_block_vote_fractions(model, X))
        np.testing.assert_array_equal(votes, np.full(3, n_ones / (n_ones + n_zeros)))

    @pytest.mark.parametrize("flavor", ["haar", "gaussian", "axis"])
    def test_alpha_is_selected_on_the_votes_predict_gives_the_training_rows(self, flavor):
        X, labels = _two_cluster_data(n=80, p=5, seed=37)
        model = train_ensemble(X, labels, EnsembleConfig(d=2, b1=7, b2=3, flavor=flavor, seed=37))
        assert model.alpha == select_alpha(vote_fractions(model, X), labels, model.b1)

    def test_stacked_arrays_are_derived_once_in_block_order(self):
        model = _model("haar", b1=4, d=3)
        projection = model.stacked_projection
        assert model.stacked_projection is projection
        assert projection.shape == (5, 12)
        assert model.stacked_D.shape == (4, 3, 3)
        assert model.stacked_const.shape == (4,)
        np.testing.assert_array_equal(projection[:, 3:6], model.blocks[1].projection.matrix.T)
        assert model.stacked_D[1].tobytes() == model.blocks[1].model.D.tobytes()
        assert model.stacked_const[1] == model.blocks[1].model.const

    def test_predict_thresholds_kernel_votes(self):
        model = _model("axis")
        X = substream(53).standard_normal((50, 5))
        preds, votes = predict(model, X)
        expected = per_block_vote_fractions(model, X)
        np.testing.assert_array_equal(votes, expected)
        np.testing.assert_array_equal(preds, (expected >= model.alpha).astype(int))


class TestScoreTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 500])
    def test_transforms_equal_direct_quantiles(self, n):
        rng = substream(59, n)
        X = rng.standard_normal((n, 3))
        X[:, 2] = np.round(X[:, 2])  # ties share the maximal count
        model, scores = fit_transform(X)

        counts = np.stack(
            [np.searchsorted(np.sort(X[:, j]), X[:, j], side="right") for j in range(3)], axis=1
        )
        np.testing.assert_array_equal(scores, inv_norm_cdf(counts / (n + 1.0)))
        np.testing.assert_array_equal(transform_new(model, X), scores)

        lo, hi = X.min(axis=0), X.max(axis=0)
        new = np.vstack([lo - 1.0, hi + 1.0, hi, rng.standard_normal(3)])
        new_counts = np.stack(
            [np.searchsorted(np.sort(X[:, j]), new[:, j], side="right") for j in range(3)], axis=1
        )
        expected = inv_norm_cdf(np.clip(new_counts, 1, n) / (n + 1.0))
        np.testing.assert_array_equal(transform_new(model, new), expected)
        lowest, highest = inv_norm_cdf(1 / (n + 1.0)), inv_norm_cdf(n / (n + 1.0))
        np.testing.assert_array_equal(transform_new(model, new[0]), np.full(3, lowest))
        np.testing.assert_array_equal(transform_new(model, new[1]), np.full(3, highest))

    def test_table_has_one_entry_per_count(self):
        model, _ = fit_transform(substream(61).standard_normal((7, 2)))
        np.testing.assert_array_equal(model.score_table, inv_norm_cdf(np.arange(1, 8) / 8.0))


class TestLabelCheck:
    @pytest.mark.parametrize(
        "labels",
        [np.array([0, 1, 1]), np.array([0.0, 1.0, 0.0]), np.array([True, False])],
        ids=["int", "float", "bool"],
    )
    def test_binary_labels_accepted(self, labels):
        prior0, prior1 = estimate_priors(labels)
        assert prior0 + prior1 == 1.0

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_other_values_rejected(self, bad):
        with pytest.raises(ValueError, match="0/1"):
            estimate_priors(np.array([0.0, 1.0, bad]))

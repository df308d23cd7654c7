"""One state per model: every derived array is set at construction, in one layout.

A fitted, a hand-built and a reloaded model hold the same marginal table,
column-contiguous and bit-equal to ``np.sort(X, axis=0)``, and each has its
score table and stacked vote arrays from the moment it exists.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankqda import EnsembleConfig, fit_transform, inv_norm_cdf, load_model, save_model, train_ensemble
from rankqda.ensemble import StackedBlocks
from rankqda.marginals import MarginalModel, transform_new
from rankqda.rng import substream

from test_ensemble import _two_cluster_data


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@st.composite
def tied_matrices(draw):
    """Small matrices on a 0.5 grid with both signed zeros, so columns hold ties."""
    n, p = draw(st.integers(2, 40)), draw(st.integers(2, 6))
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.standard_normal((n, p)) * 2.0) / 2.0
    X[rng.random((n, p)) < 0.3] = 0.0
    X[rng.random((n, p)) < 0.5] *= -1.0  # flips some zeros to -0.0
    return X


def _assert_column_contiguous_sorted_table(model: MarginalModel, X):
    table = model.sorted_columns
    assert table.flags.f_contiguous and not table.flags.c_contiguous
    np.testing.assert_array_equal(_bits(table), _bits(np.sort(X, axis=0)))


@settings(max_examples=60, deadline=None)
@given(X=tied_matrices())
def test_fitted_and_hand_built_tables_are_column_contiguous_sorted_copies(X):
    fitted, _ = fit_transform(X)
    _assert_column_contiguous_sorted_table(fitted, X)
    hand_built = MarginalModel(np.ascontiguousarray(np.sort(X, axis=0)))
    _assert_column_contiguous_sorted_table(hand_built, X)


def test_reloaded_table_equals_the_fitted_one_in_value_and_layout(tmp_path):
    X, labels = _two_cluster_data(n=60, p=4, seed=5)
    X = np.round(X * 2.0) / 2.0
    X[::7, 1] = -0.0
    X[3::7, 1] = 0.0
    model = train_ensemble(X, labels, EnsembleConfig(d=2, b1=3, b2=2, seed=5))
    save_model(model, tmp_path / "model.json")
    reloaded = load_model(tmp_path / "model.json")
    _assert_column_contiguous_sorted_table(model.marginal_model, X)
    _assert_column_contiguous_sorted_table(reloaded.marginal_model, X)


def _assert_derived_at_construction(model):
    marginal = model.marginal_model
    assert "score_table" in vars(marginal) and "stacked" in vars(model)
    n = marginal.n_samples
    np.testing.assert_array_equal(
        _bits(marginal.score_table), _bits(inv_norm_cdf(np.arange(1, n + 1) / (n + 1.0)))
    )
    expected = StackedBlocks.from_blocks(model.blocks)
    for name in ("projection", "D", "const"):
        np.testing.assert_array_equal(
            _bits(getattr(model.stacked, name)), _bits(getattr(expected, name))
        )


def test_score_table_and_stacked_are_set_at_construction(tmp_path):
    X, labels = _two_cluster_data(n=40, p=5, seed=9)
    fitted = train_ensemble(X, labels, EnsembleConfig(d=2, b1=4, b2=2, seed=9))
    save_model(fitted, tmp_path / "model.json")
    hand_built = dataclasses.replace(
        fitted, marginal_model=MarginalModel(np.sort(X, axis=0)), blocks=list(fitted.blocks)
    )
    for model in (fitted, load_model(tmp_path / "model.json"), hand_built):
        _assert_derived_at_construction(model)


@settings(max_examples=60, deadline=None)
@given(X=tied_matrices(), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_scores_do_not_depend_on_the_memory_layout_of_table_or_query(X, m, seed):
    table = np.sort(X, axis=0)
    wide = np.zeros((table.shape[0], 2 * table.shape[1]))
    wide[:, ::2] = table
    models = [MarginalModel(t) for t in (table, np.asfortranarray(table), wide[:, ::2])]
    Q = np.round(substream(seed).standard_normal((m, X.shape[1])) * 2.0) / 2.0
    tall = np.zeros((2 * m, X.shape[1]))
    tall[::2] = Q
    queries = (Q, np.asfortranarray(Q), tall[::2], X)
    expected = [transform_new(models[0], q) for q in queries]
    for model in models:
        for q, scores in zip(queries, expected):
            np.testing.assert_array_equal(_bits(transform_new(model, q)), _bits(scores))

"""One state per model: every derived array is set at construction, in one layout.

A fitted, a hand-built and a reloaded model hold the same marginal table,
column-contiguous and bit-equal to ``np.sort(X, axis=0)``, and each has its
score table and stacked vote arrays from the moment it exists. Every
array-holding type compares and hashes by identity, and the model types
hold arrays no caller can write, so what a model votes with is what it saves.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankqda import (
    EnsembleConfig, ScenarioSpec, fit_transform, inv_norm_cdf, load_model, save_model, train_ensemble,
    vote_fractions,
)
from rankqda.ensemble import _stack
from rankqda.marginals import MarginalModel, transform_new
from rankqda.model_io import model_to_dict
from rankqda.projections import Projection
from rankqda.qda import RqdaModel
from rankqda.rng import substream
from rankqda.synthdata import Dataset

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
    assert "score_table" in vars(marginal)
    assert {"stacked_projection", "stacked_D", "stacked_const"} <= set(vars(model))
    n = marginal.n_samples
    np.testing.assert_array_equal(
        _bits(marginal.score_table), _bits(inv_norm_cdf(np.arange(1, n + 1) / (n + 1.0)))
    )
    for name, expected in zip(("projection", "D", "const"), _stack(model.blocks)):
        np.testing.assert_array_equal(_bits(getattr(model, f"stacked_{name}")), _bits(expected))


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


def _equal_value_pair(kind, tmp_path):
    """Two distinct instances of ``kind`` that hold equal values."""
    X, labels = _two_cluster_data(n=40, p=3, seed=2)
    fitted = train_ensemble(X, labels, EnsembleConfig(d=2, b1=2, b2=2, seed=2))
    save_model(fitted, tmp_path / "model.json")
    pair = (fitted, load_model(tmp_path / "model.json"))
    parts = {
        "EnsembleModel": lambda m: m,
        "MarginalModel": lambda m: m.marginal_model,
        "Block": lambda m: m.blocks[0],
        "Projection": lambda m: m.blocks[0].projection,
        "RqdaModel": lambda m: m.blocks[0].model,
        "ScenarioSpec": lambda m: ScenarioSpec(p=2, prior1=0.5, cov0=np.eye(2), cov1=np.eye(2)),
        "Dataset": lambda m: Dataset(X.copy(), labels.copy(), X.copy()),
    }
    return tuple(parts[kind](m) for m in pair)


@pytest.mark.parametrize("kind", ["EnsembleModel", "MarginalModel", "Block",
                                  "Projection", "RqdaModel", "ScenarioSpec", "Dataset"])
def test_array_holding_types_compare_and_hash_by_identity(kind, tmp_path):
    a, b = _equal_value_pair(kind, tmp_path)
    assert type(a).__name__ == kind and a is not b
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert isinstance(hash(a), int) and hash(a) == hash(a)


# One write per model type into the arrays a trained model votes with and saves.
_WRITES = {
    "Projection": lambda m: np.copyto(m.blocks[0].projection.matrix, m.blocks[1].projection.matrix),
    "RqdaModel": lambda m: np.copyto(m.blocks[2].model.cov0, 3 * np.eye(2)),
    "MarginalModel": lambda m: np.copyto(m.marginal_model.sorted_columns[0], 0.0),
    "EnsembleModel": lambda m: np.copyto(m.stacked_D[0], 0.0),
}


@pytest.mark.parametrize("kind", sorted(_WRITES))
def test_a_write_to_model_arrays_raises_and_reloaded_votes_equal_in_memory_votes(kind, tmp_path):
    X, labels = _two_cluster_data(n=200, p=5, seed=4)
    held_out = substream(40).standard_normal((2000, 5))
    model = train_ensemble(X, labels, EnsembleConfig(d=2, b1=5, b2=3, seed=4))
    votes = vote_fractions(model, held_out)
    with pytest.raises(ValueError, match="read-only"):
        _WRITES[kind](model)
    with pytest.raises(AttributeError):
        model.blocks.append(model.blocks[0])
    save_model(model, tmp_path / "model.json")
    np.testing.assert_array_equal(vote_fractions(model, held_out), votes)
    np.testing.assert_array_equal(vote_fractions(load_model(tmp_path / "model.json"), held_out), votes)


def test_hand_built_types_copy_their_input_arrays_or_make_them_read_only():
    cov, matrix = np.eye(2), np.eye(2, 3)
    model = RqdaModel(0.5, 0.5, cov, cov, 0.0)
    projection = Projection(matrix, "axis")
    cov[0, 0] = matrix[0, 0] = 9.0
    assert model.cov0[0, 0] == model.cov1[0, 0] == projection.matrix[0, 0] == 1.0
    column_major = np.asfortranarray([[0.0, 1.0], [2.0, 3.0]])
    assert MarginalModel(column_major).sorted_columns is column_major
    assert not column_major.flags.writeable
    row_major = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert not MarginalModel(row_major).sorted_columns.flags.writeable and row_major.flags.writeable


def test_fence_key_is_derived_read_only_and_never_persisted(tmp_path):
    X, labels = _two_cluster_data(n=70, p=3, seed=6)
    X[::5, 0] = -0.0
    fitted = train_ensemble(X, labels, EnsembleConfig(d=2, b1=3, b2=2, seed=6))
    save_model(fitted, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    hand_built = MarginalModel(np.sort(X, axis=0))
    for marginal in (fitted.marginal_model, loaded.marginal_model, hand_built):
        assert "fence_key" in vars(marginal) and not marginal.fence_key.flags.writeable
        np.testing.assert_array_equal(_bits(marginal.fence_key.view(float)),
                                      _bits(fitted.marginal_model.fence_key.view(float)))
    doc = model_to_dict(fitted)
    assert doc == model_to_dict(loaded)
    assert set(doc["marginals"]) == {"n", "columns"}

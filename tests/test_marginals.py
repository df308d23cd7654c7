import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rankqda import DataError, fit_transform, inv_norm_cdf, norm_cdf, transform_new
from rankqda import marginals
from rankqda.marginals import _FENCE_ROWS, _FENCE_WIDTH, MarginalModel
from rankqda.rng import substream

from oracles import bisection_inv_norm_cdf, direct_probit_scores


class TestNormCdf:
    def test_symmetry_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_value_at_1_96(self):
        # series oracle (mpmath, 30 digits): 0.97500210485177956...
        assert norm_cdf(1.96) == pytest.approx(0.9750021049, abs=1e-10)
        # cross-check against adaptive quadrature of the density
        val, quad_err = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -12.0, 1.96)
        assert quad_err < 1e-10
        assert norm_cdf(1.96) == pytest.approx(val, abs=1e-9)

    def test_reflection(self):
        assert norm_cdf(-1.96) == pytest.approx(0.0249978951, abs=1e-10)
        z = np.linspace(-8, 8, 321)
        np.testing.assert_allclose(norm_cdf(z) + norm_cdf(-z), 1.0, rtol=0, atol=1e-15)

    def test_strictly_increasing(self):
        # +-6.5 covers every score the rank transform can produce; beyond
        # ~7.6 double precision saturates and increments vanish.
        z = np.linspace(-6.5, 6.5, 10001)
        assert np.all(np.diff(norm_cdf(z)) > 0)

    def test_scalar_and_array_shapes(self):
        assert isinstance(norm_cdf(0.3), float)
        assert norm_cdf(np.zeros((2, 3))).shape == (2, 3)


class TestInvNormCdf:
    def test_median(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_known_quantiles(self):
        assert inv_norm_cdf(0.75) == pytest.approx(0.6744897502, abs=1e-9)
        assert inv_norm_cdf(0.025) == pytest.approx(-1.9599639845, abs=1e-9)

    def test_matches_bisection_oracle(self):
        u = np.concatenate([
            np.logspace(-10, -2, 50),
            np.linspace(0.01, 0.99, 200),
            1.0 - np.logspace(-10, -2, 50),
        ])
        z = inv_norm_cdf(u)
        oracle = bisection_inv_norm_cdf(u)
        np.testing.assert_allclose(z, oracle, rtol=0, atol=1e-9)

    def test_round_trip(self):
        u = np.linspace(1e-10, 1 - 1e-10, 20001)
        err = np.abs(norm_cdf(inv_norm_cdf(u)) - u)
        assert err.max() <= 1e-12

    def test_odd_around_half(self):
        u = np.linspace(0.01, 0.49, 100)
        np.testing.assert_allclose(
            inv_norm_cdf(0.5 + u), -inv_norm_cdf(0.5 - u), rtol=0, atol=1e-12
        )

    def test_scalar_and_array_shapes(self):
        u = np.random.default_rng(0).random((3, 4, 5))
        z = inv_norm_cdf(u)
        assert z.shape == (3, 4, 5)
        np.testing.assert_array_equal(inv_norm_cdf(u[0, :2, :3]), z[0, :2, :3])  # strided (2, 3)
        for scalar in (float(u[1, 2, 3]), np.array(u[1, 2, 3])):  # a Python float, a 0-d array
            out = inv_norm_cdf(scalar)
            assert type(out) is float
            assert np.float64(out).tobytes() == z[1, 2, 3].tobytes()
        assert inv_norm_cdf(np.empty((0, 3))).shape == (0, 3)
        assert inv_norm_cdf([]).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            inv_norm_cdf(bad)


class TestFitTransform:
    def test_single_row_maps_to_zero(self):
        _, scores = fit_transform([[123.4, -5.0, 0.0]])
        np.testing.assert_array_equal(scores, np.zeros((1, 3)))

    def test_three_point_column(self):
        _, scores = fit_transform(np.array([[10.0], [20.0], [30.0]]))
        expected = bisection_inv_norm_cdf([0.25, 0.5, 0.75])
        np.testing.assert_allclose(scores[:, 0], expected, rtol=0, atol=1e-9)

    def test_ties_share_maximal_count(self):
        _, scores = fit_transform(np.array([[5.0], [5.0]]))
        expected = float(bisection_inv_norm_cdf(2.0 / 3.0)[0])
        np.testing.assert_allclose(scores[:, 0], expected, rtol=0, atol=1e-9)

    def test_scores_within_fitted_range(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((37, 5))
        _, scores = fit_transform(X)
        n = 37
        lo, hi = inv_norm_cdf(1 / (n + 1)), inv_norm_cdf(n / (n + 1))
        assert np.isfinite(scores).all()
        assert scores.min() >= lo and scores.max() <= hi

    def test_model_columns_sorted(self):
        rng = np.random.default_rng(3)
        model, _ = fit_transform(rng.standard_normal((20, 4)))
        assert np.all(np.diff(model.sorted_columns, axis=0) >= 0)
        assert model.n_samples == 20 and model.n_features == 4

    def test_rank_invariance_bit_identical(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 3))
        _, base = fit_transform(X)
        Xg = X.copy()
        Xg[:, 0] = np.exp(X[:, 0])
        Xg[:, 1] = X[:, 1] ** 3
        Xg[:, 2] = 2.5 * X[:, 2] - 7.0
        _, transformed = fit_transform(Xg)
        np.testing.assert_array_equal(base, transformed)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        perm = rng.permutation(30)
        _, scores = fit_transform(X)
        _, permuted = fit_transform(X[perm])
        np.testing.assert_array_equal(scores[perm], permuted)

    def test_non_finite_entry_reported_with_location(self):
        X = np.ones((4, 3))
        X[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2, column 1"):
            fit_transform(X)

    def test_empty_rejected(self):
        for shape in [(0, 3), (3, 0)]:
            match = rf"marginal table must be a non-empty 2-d array, got shape \({shape[0]}, {shape[1]}\)"
            with pytest.raises(ValueError, match=match):
                fit_transform(np.empty(shape))


class TestTransformNew:
    @pytest.fixture
    def model(self) -> MarginalModel:
        model, _ = fit_transform(np.array([[10.0], [20.0], [30.0]]))
        return model

    def test_below_all_training_values(self, model):
        score = transform_new(model, np.array([-100.0]))
        assert score[0] == inv_norm_cdf(1 / 4)

    def test_at_training_maximum(self, model):
        score = transform_new(model, np.array([30.0]))
        assert score[0] == inv_norm_cdf(3 / 4)

    def test_between_training_values(self, model):
        score = transform_new(model, np.array([25.0]))
        assert score[0] == 0.0

    def test_training_rows_reproduce_training_scores(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((25, 4))
        model, scores = fit_transform(X)
        np.testing.assert_array_equal(transform_new(model, X), scores)
        np.testing.assert_array_equal(transform_new(model, X[3]), scores[3])

    def test_rank_invariance_out_of_sample(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 2))
        X_new = rng.standard_normal((15, 2))
        model, _ = fit_transform(X)
        base = transform_new(model, X_new)
        g = lambda v: np.exp(0.5 * v) + v  # strictly increasing
        model_g, _ = fit_transform(g(X))
        np.testing.assert_array_equal(transform_new(model_g, g(X_new)), base)

    def test_non_finite_rejected(self, model):
        with pytest.raises(DataError):
            transform_new(model, np.array([np.inf]))

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError, match="p=1"):
            transform_new(model, np.array([1.0, 2.0]))


@pytest.mark.parametrize("bad", [[2.0, 1.0, 3.0], [0.0, np.nan, 1.0]])
def test_marginal_model_rejects_an_unsorted_column(bad):
    columns = np.column_stack([np.arange(3.0), bad])
    with pytest.raises(ValueError, match="^marginal column 1 is not sorted ascending"):
        MarginalModel(columns)


@pytest.mark.parametrize(
    "bad", [[-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf], [np.inf, np.inf, np.inf]],
    ids=["minus_inf_first", "plus_inf_last", "all_inf"],
)
def test_marginal_model_rejects_an_infinite_column_value(bad):
    columns = np.column_stack([np.arange(3.0), bad])
    with pytest.raises(ValueError, match="^marginal column 1 has a non-finite value$"):
        MarginalModel(columns)


def test_one_row_marginal_model_rejects_nan():
    # with one row there is no order to break, so the finiteness check is what catches NaN
    with pytest.raises(ValueError, match="^marginal column 0 has a non-finite value$"):
        MarginalModel(np.array([[np.nan, 1.0]]))


@pytest.mark.parametrize(
    "table, message",
    [
        (np.ones((3, 2)) + 1j, "marginal table must be real, not complex"),
        (np.zeros(3), "marginal table must be a non-empty 2-d array, got shape (3,)"),
        (np.zeros((2, 2, 2)), "marginal table must be a non-empty 2-d array, got shape (2, 2, 2)"),
        (np.empty((0, 3)), "marginal table must be a non-empty 2-d array, got shape (0, 3)"),
        (np.empty((4, 0)), "marginal table must be a non-empty 2-d array, got shape (4, 0)"),
    ],
    ids=["complex", "one_d", "three_d", "no_rows", "no_columns"],
)
def test_marginal_model_rejects_a_malformed_table_at_construction(table, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        MarginalModel(table)


def test_marginal_model_converts_an_array_like_table_once():
    table = [[1.0, 2.0], [3.0, 4.0]]
    model = MarginalModel(table)
    assert model.sorted_columns.flags.f_contiguous and not model.sorted_columns.flags.writeable
    np.testing.assert_array_equal(model.sorted_columns, table)
    np.testing.assert_array_equal(transform_new(model, [3.0, 3.0]),
                                  transform_new(MarginalModel(np.array(table)), [3.0, 3.0]))


def test_fit_transform_rejects_a_1d_array():
    with pytest.raises(ValueError, match="^expected a 2-d feature matrix, got ndim=1$"):
        fit_transform(np.zeros(3))


# Values where a search can go wrong: both signed zeros, the smallest
# subnormals and the largest finite values.
_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                         np.finfo(float).max, -np.finfo(float).max])


@st.composite
def tied_matrices(draw):
    """An (n, p) matrix, rows unsorted, with many ties, edge values and constant columns.

    Values come from a half-step grid plus _EDGE_VALUES; each column is
    constant with probability 1/4.
    """
    n = draw(st.one_of(st.sampled_from([1, _FENCE_WIDTH, _FENCE_WIDTH + 1, 2 * _FENCE_WIDTH,
                                        2 * _FENCE_WIDTH + 1]), st.integers(1, 80)))
    p = draw(st.integers(1, 4))
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    grid = np.round(rng.standard_normal(n * p) * 2.0) / 2.0  # many ties
    X = rng.choice(np.concatenate([grid, _EDGE_VALUES]), (n, p))
    constant = rng.random(p) < 0.25
    X[:, constant] = X[:1, constant]
    return X


@st.composite
def tables_and_queries(draw):
    """A sorted table with ties and edge values, and 1 to _FENCE_ROWS + 1 query rows.

    Queries mix table values (every fence among them), values just off them,
    edge values and points below the minimum and above the maximum.
    """
    table = np.sort(draw(tied_matrices()), axis=0)
    p = table.shape[1]
    m = draw(st.one_of(st.sampled_from([1, _FENCE_ROWS, _FENCE_ROWS + 1]),
                       st.integers(1, _FENCE_ROWS + 1)))
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    low, high = table.min() - 1.0, table.max() + 1.0  # rounds back onto an edge value at +-1.7e308
    with np.errstate(over="ignore"):  # next to the largest finite value is inf, dropped below
        pool = np.concatenate([table.ravel(), np.nextafter(table.ravel(), np.inf),
                               np.nextafter(table.ravel(), -np.inf), _EDGE_VALUES, [low, high]])
    pool = pool[np.isfinite(pool)]
    return table, rng.choice(pool, (m, p))


@settings(max_examples=300, deadline=None)
@given(case=tables_and_queries())
def test_fence_search_counts_equal_the_per_column_loop(case):
    table, Q = case
    model = MarginalModel(table)
    # padded past _FENCE_ROWS rows, the same queries take the per-column loop
    padded = np.vstack([Q, np.repeat(Q[:1], _FENCE_ROWS + 1, axis=0)])
    loop = transform_new(model, padded)[: Q.shape[0]]
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    np.testing.assert_array_equal(bits(transform_new(model, Q)), bits(loop))
    np.testing.assert_array_equal(bits(transform_new(model, Q[0])), bits(loop[0]))


@settings(max_examples=100, deadline=None)
@given(case=tables_and_queries())
@example(case=(np.array([[-1.0, 0.0], [0.0, 0.0], [2.5, 3.0]]), np.array([[0.0, -0.0], [3.0, 4.0]])))
def test_split_search_scores_do_not_depend_on_the_worker_count(case):
    table, Q = case
    model = MarginalModel(table)
    # padded past _FENCE_ROWS rows, the loop splits its columns over the threads
    padded = np.vstack([Q, np.repeat(Q[-1:], _FENCE_ROWS + 1, axis=0)])
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    expected = bits(transform_new(model, Q))
    for workers in (1, 2, 3):  # 3 workers split a 1- or 2-column table into 1 or 2 slabs
        with mock.patch.object(marginals, "_WORKERS", workers):
            scores = transform_new(model, padded)
        np.testing.assert_array_equal(bits(scores[: Q.shape[0]]), expected)
        np.testing.assert_array_equal(bits(scores[Q.shape[0]:]), np.repeat(expected[-1:], _FENCE_ROWS + 1, axis=0))


def test_a_split_search_runs_its_last_slab_on_the_caller_and_leaves_no_thread_behind():
    model = MarginalModel(np.sort(substream(5).standard_normal((300, 3)), axis=0))
    Q = substream(6).standard_normal((_FENCE_ROWS + 1, 3))
    search, ran = marginals._search_columns, []

    def record(table, X, counts, lo, hi):
        ran.append((lo, hi, threading.current_thread()))
        search(table, X, counts, lo, hi)

    with mock.patch.object(marginals, "_WORKERS", 3), mock.patch.object(marginals, "_search_columns", record):
        transform_new(model, Q)
    caller = threading.current_thread()
    assert sorted((lo, hi) for lo, hi, _ in ran) == [(0, 1), (1, 2), (2, 3)]
    assert [(lo, hi) for lo, hi, thread in ran if thread is caller] == [(2, 3)]
    assert all(thread.name.startswith("rankqda-search") for _, _, thread in ran if thread is not caller)
    assert not any(thread.name.startswith("rankqda-search") for thread in threading.enumerate())


def test_a_failed_worker_slab_raises_from_the_split_search():
    model = MarginalModel(np.sort(substream(5).standard_normal((300, 2)), axis=0))
    Q = substream(6).standard_normal((_FENCE_ROWS + 1, 2))
    search, caller = marginals._search_columns, threading.current_thread()

    def fail_off_the_caller(table, X, counts, lo, hi):
        if threading.current_thread() is not caller:
            raise MemoryError("slab failed")
        search(table, X, counts, lo, hi)

    with mock.patch.object(marginals, "_WORKERS", 2), mock.patch.object(marginals, "_search_columns", fail_off_the_caller):
        with pytest.raises(MemoryError, match="^slab failed$"):
            transform_new(model, Q)


def test_scoring_at_interpreter_exit_searches_inline():
    # at interpreter exit no executor takes new work, and an atexit handler may still score rows
    code = (
        "import atexit, numpy as np\n"
        "from rankqda import marginals\n"
        "marginals._WORKERS = 2\n"
        "model = marginals.MarginalModel(np.sort(np.linspace(-1, 1, 300).reshape(100, 3), axis=0))\n"
        "Q = np.linspace(-2, 2, 60).reshape(20, 3)\n"
        "expected = marginals.transform_new(model, Q)\n"
        "atexit.register(lambda: print((marginals.transform_new(model, Q) == expected).all()))\n"
    )
    src = str(Path(marginals.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


def test_concurrent_split_searches_on_more_threads_than_cpus_keep_every_column():
    model = MarginalModel(np.sort(substream(7).standard_normal((500, 16)), axis=0))
    Q = substream(8).standard_normal((_FENCE_ROWS + 1, 16))
    with mock.patch.object(marginals, "_WORKERS", 1):
        expected = transform_new(model, Q).view(np.uint64)
    results = []

    def score():
        for _ in range(20):
            results.append(transform_new(model, Q))

    interval = sys.getswitchinterval()
    with mock.patch.object(marginals, "_WORKERS", 8):
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=score) for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
            assert not any(caller.is_alive() for caller in callers)
        finally:
            sys.setswitchinterval(interval)
    assert len(results) == 80
    for scores in results:
        np.testing.assert_array_equal(scores.view(np.uint64), expected)


@settings(max_examples=300, deadline=None)
@given(X=tied_matrices())
def test_training_counts_equal_a_search_of_the_table(X):
    model, scores = fit_transform(X)
    n = X.shape[0]
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    np.testing.assert_array_equal(bits(scores), bits(direct_probit_scores(model.sorted_columns, X)))
    fence = np.vstack([transform_new(model, X[i:i + _FENCE_ROWS]) for i in range(0, n, _FENCE_ROWS)])
    loop = transform_new(model, np.vstack([X, np.repeat(X[:1], _FENCE_ROWS + 1, axis=0)]))[:n]
    np.testing.assert_array_equal(bits(scores), bits(fence))
    np.testing.assert_array_equal(bits(scores), bits(loop))
    assert scores.flags.c_contiguous
    table = X.T.copy()
    table.sort(axis=1)  # the table as a plain sort builds it, signed zeros in its order
    np.testing.assert_array_equal(bits(model.sorted_columns), bits(table.T))


def test_fit_transform_peak_memory_stays_within_a_few_copies_of_the_input():
    # the peak is about 4.15x: the sorted copy, the argsort, the run ends and
    # the counts at once; a counts pass that accumulates out of place reaches
    # about 5x
    X = substream(9).standard_normal((20000, 50))
    tracemalloc.start()
    try:
        fit_transform(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * X.nbytes


def test_fence_key_holds_every_fence_of_each_column_in_order():
    table = np.sort(substream(4).standard_normal((2 * _FENCE_WIDTH + 3, 2)), axis=0)
    model = MarginalModel(table)
    fences = table[_FENCE_WIDTH::_FENCE_WIDTH]
    expected = np.concatenate([j + 1j * fences[:, j] for j in range(2)])
    np.testing.assert_array_equal(model.fence_key, expected)
    assert np.all(model.fence_key[1:] >= model.fence_key[:-1])  # numpy's complex order
    assert not model.fence_key.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        model.fence_key[0] = 0.0
    assert MarginalModel(table[:_FENCE_WIDTH]).fence_key.size == 0  # one window holds the column


@pytest.mark.parametrize("call", [
    lambda: fit_transform(np.ones((3, 2)) + 1j),
    lambda: fit_transform(np.ones((3, 2)).astype(complex)),  # even with no imaginary part
    lambda: transform_new(fit_transform(np.ones((3, 2)))[0], np.ones(2) + 1j),
    lambda: transform_new(fit_transform(np.ones((3, 2)))[0], [[1.0, 2.0 + 0.5j]]),
])
def test_complex_features_are_rejected_not_truncated(call):
    with pytest.raises(DataError, match="^complex feature values are not supported; features must be real$"):
        call()

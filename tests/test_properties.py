"""Property tests on random small data and configurations."""

import json
import re
import warnings

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from rankqda import (
    FLAVORS,
    EnsembleConfig,
    RqdaModel,
    SingularMatrixError,
    estimate_priors,
    estimate_projected_covariance,
    fit_rqda,
    fit_transform,
    inverse_spd,
    log_det_spd,
    piecewise_linear_map,
    rqda_classify,
    select_alpha,
    train_ensemble,
    training_error,
    transform_new,
    vote_fractions,
)
from rankqda import qda
from rankqda.model_io import model_from_dict, model_to_dict
from rankqda.projections import _sample_matrices
from rankqda.qda import RIDGE_SCALE, _symmetrize
from rankqda.rng import substream

from oracles import per_block_vote_fractions, threshold_loop_select_alpha


@st.composite
def problems(draw):
    p = draw(st.integers(1, 5))
    d = draw(st.integers(1, p))
    per_class = draw(st.integers(d + 1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = substream(seed)
    labels = rng.permutation(np.repeat([0, 1], per_class))
    X = rng.standard_normal((2 * per_class, p)) * np.where(labels == 1, 2.0, 1.0)[:, None]
    if draw(st.booleans()):
        X = np.round(X)  # ties
    config = EnsembleConfig(
        d=d,
        b1=draw(st.integers(1, 5)),
        b2=draw(st.integers(1, 3)),
        flavor=draw(st.sampled_from(FLAVORS)),
        seed=draw(st.integers(0, 1000)),
    )
    X_new = rng.standard_normal((draw(st.integers(1, 20)), p)) * 2.0
    return X, labels, config, X_new


@settings(max_examples=60, deadline=None)
@given(problems())
def test_stacked_votes_equal_per_block_loop(problem):
    X, labels, config, X_new = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = train_ensemble(X, labels, config)
    for rows in (X, X_new):
        np.testing.assert_array_equal(
            vote_fractions(model, rows), per_block_vote_fractions(model, rows)
        )


@settings(max_examples=60, deadline=None)
@given(problems())
def test_transform_new_on_training_rows_equals_fit_scores(problem):
    X = problem[0]
    model, scores = fit_transform(X)
    np.testing.assert_array_equal(transform_new(model, X), scores)


@st.composite
def unbalanced_problems(draw):
    # class counts drawn separately: 1 - n1/n and (n - n1)/n differ in the
    # last bit for many unequal pairs, which equal counts never exercise
    p = draw(st.integers(1, 5))
    d = draw(st.integers(1, p))
    n0, n1 = draw(st.integers(d + 1, 40)), draw(st.integers(d + 1, 40))
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat([0, 1], [n0, n1]))
    X = rng.standard_normal((n0 + n1, p)) * np.where(labels == 1, 2.0, 1.0)[:, None]
    config = EnsembleConfig(
        d=d,
        b1=draw(st.integers(1, 5)),
        b2=draw(st.integers(1, 3)),
        flavor=draw(st.sampled_from(FLAVORS)),
        seed=draw(st.integers(0, 1000)),
    )
    return X, labels, config, rng.standard_normal((20, p)) * 2.0


@settings(max_examples=60, deadline=None)
@given(unbalanced_problems())
def test_save_load_round_trip_is_exact(problem):
    X, labels, config, X_new = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = train_ensemble(X, labels, config)
    doc = model_to_dict(model)
    reloaded = model_from_dict(json.loads(json.dumps(doc)))
    assert model_to_dict(reloaded) == doc
    for rows in (X, X_new):
        np.testing.assert_array_equal(vote_fractions(reloaded, rows), vote_fractions(model, rows))


@st.composite
def vote_samples(draw):
    # votes on the k/b1 grid, exactly on a candidate threshold, and anywhere in [0, 1]
    b1 = draw(st.integers(1, 40))
    on_grid = st.integers(0, b1).map(lambda k: k / b1)
    on_threshold = st.integers(0, b1 - 1).map(lambda k: (k + 0.5) / b1)
    n = draw(st.integers(1, 60))
    votes = draw(st.lists(st.one_of(on_grid, on_threshold, st.floats(0.0, 1.0)), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(votes), np.array(labels), b1


@settings(max_examples=300, deadline=None)
@given(vote_samples())
def test_select_alpha_equals_threshold_loop(sample):
    votes, labels, b1 = sample
    assert select_alpha(votes, labels, b1) == threshold_loop_select_alpha(votes, labels, b1)


STRICTLY_INCREASING_MAPS = st.one_of(
    st.just(np.exp),
    st.just(lambda x: x**3),
    st.tuples(st.floats(0.1, 10.0), st.floats(-5.0, 5.0)).map(lambda ab: lambda x: ab[0] * x + ab[1]),
    st.just(piecewise_linear_map([(-2.0, -7.0), (0.0, 0.0), (0.5, 0.1), (3.0, 9.0)])),
)


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_monotone_feature_maps_leave_fit_and_votes_bit_identical(problem, data):
    X, labels, config, X_new = problem
    p = X.shape[1]
    maps = data.draw(st.lists(STRICTLY_INCREASING_MAPS, min_size=p, max_size=p))

    def warp(A):
        return np.column_stack([f(A[:, j]) for j, f in enumerate(maps)])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = train_ensemble(X, labels, config)
        warped = train_ensemble(warp(X), labels, config)
    for block, block_w in zip(model.blocks, warped.blocks):
        np.testing.assert_array_equal(block.model.cov0, block_w.model.cov0)
        np.testing.assert_array_equal(block.model.cov1, block_w.model.cov1)
    assert warped.alpha == model.alpha
    for rows in (X, X_new):
        np.testing.assert_array_equal(vote_fractions(warped, warp(rows)), vote_fractions(model, rows))


@st.composite
def projected_samples(draw):
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 4))
    rng = substream(draw(st.integers(0, 2**32 - 1)))
    n1 = draw(st.integers(1, n - 1))
    labels = rng.permutation(np.repeat([0, 1], [n - n1, n1]))
    Z = rng.standard_normal((n, d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    ridge = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 10.0)))
    return Z, labels, ridge


@settings(max_examples=200, deadline=None)
@given(projected_samples())
def test_fit_rqda_equals_the_public_estimators(sample):
    Z, labels, ridge = sample
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            model = fit_rqda(Z, labels, ridge)
        except SingularMatrixError as exc:
            # the same covariances must fail the same way
            with pytest.raises(SingularMatrixError, match=re.escape(str(exc))):
                ridge_used = RIDGE_SCALE * float(np.mean(Z * Z)) if ridge is None else ridge
                RqdaModel(*estimate_priors(labels),
                          estimate_projected_covariance(Z, labels, 0, ridge_used),
                          estimate_projected_covariance(Z, labels, 1, ridge_used), ridge_used)
            return
        reference = RqdaModel(*estimate_priors(labels),
                              estimate_projected_covariance(Z, labels, 0, model.ridge),
                              estimate_projected_covariance(Z, labels, 1, model.ridge), model.ridge)
    assert (model.prior0, model.prior1) == (reference.prior0, reference.prior1)
    for name in ("cov0", "cov1", "D"):
        np.testing.assert_array_equal(getattr(model, name), getattr(reference, name))
    assert model.const == reference.const
    assert training_error(model, Z, labels) == np.mean(rqda_classify(Z, model) != labels)


@st.composite
def spd_matrices(draw):
    d = draw(st.integers(1, 6))
    G = substream(draw(st.integers(0, 2**32 - 1))).standard_normal((d, d))
    G *= draw(st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]))
    return G @ G.T + draw(st.floats(1e-3, 10.0)) * np.eye(d)


@settings(max_examples=200, deadline=None)
@given(spd_matrices())
def test_spd_inverse_and_log_det_match_scipy_cholesky_bit_for_bit(M):
    L = np.linalg.cholesky(M)
    expected = _symmetrize(cho_solve((L, True), np.eye(M.shape[0])))
    np.testing.assert_array_equal(inverse_spd(M), expected)
    assert log_det_spd(M) == 2.0 * np.sum(np.log(np.diag(L)))


@st.composite
def candidate_stacks(draw):
    """Tied probit scores, their labels, a stack of candidates of any flavor and a ridge."""
    n, p = draw(st.integers(3, 40)), draw(st.integers(1, 6))
    d, k = draw(st.integers(1, p)), draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = substream(seed)
    n1 = draw(st.integers(1, n - 1))
    labels = rng.permutation(np.repeat([0, 1], [n - n1, n1]))
    X = np.round(rng.standard_normal((n, p)) * draw(st.sampled_from([0.5, 2.0])))  # many ties
    flavor = draw(st.sampled_from(FLAVORS))
    matrices = _sample_matrices(p, d, flavor, [substream(seed, c) for c in range(k)])
    return fit_transform(X)[1], labels, matrices, draw(st.sampled_from([None, 0.0, 0.1]))


@settings(max_examples=200, deadline=None)
@given(candidate_stacks())
def test_stacked_covariances_and_auto_ridge_equal_the_exact_fit(stack):
    scores, labels, matrices, ridge = stack
    rows = qda._class_rows(labels)
    priors = qda._priors(rows)
    moments = np.stack([qda._second_moment(scores[r], 0.0) for r in rows])
    cov, ridges = qda._stacked_covariances(matrices, moments, priors, ridge)
    ridges = np.broadcast_to(ridges, (len(matrices), 1, 1))[:, 0, 0]
    for c, A in enumerate(matrices):
        Z = scores @ A.T
        try:
            model = qda._fit(Z, rows, priors, ridge)
            expected_ridge, expected = model.ridge, (model.cov0, model.cov1)
        except SingularMatrixError:  # the covariances _fit builds, from the public estimator
            expected_ridge = RIDGE_SCALE * float(np.mean(Z * Z)) if ridge is None else ridge
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                expected = [estimate_projected_covariance(Z, labels, r, expected_ridge) for r in (0, 1)]
        if ridge is None:
            np.testing.assert_allclose(ridges[c], expected_ridge, rtol=1e-12, atol=0.0)
        else:
            assert ridges[c] == expected_ridge
        for r in (0, 1):
            # the rounding scale of both products: |A| (|S_r|'|S_r| / n_r) |A|'
            S = np.abs(scores[rows[r]])
            scale = (np.abs(A) @ (S.T @ S / S.shape[0]) @ np.abs(A).T).max() + abs(expected_ridge)
            np.testing.assert_allclose(cov[r, c], expected[r], rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_array_equal(cov[r, c], cov[r, c].T)

"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's production code paths: the
quantile oracle is plain bisection on the normal cdf, determinants use
cofactor expansion, inverses use the adjugate, matrix products use a
naive triple loop, ensemble votes come from a loop over blocks that
evaluates the quantile function per entry and each block's discriminant
on its own, and the vote threshold is chosen by trying each candidate.
"""

import numpy as np
from scipy.special import ndtr

from rankqda.marginals import inv_norm_cdf
from rankqda.qda import inverse_spd, log_det_spd


def bisection_inv_norm_cdf(u, iterations=90):
    """Invert the normal cdf by vectorized bisection (accurate ~1e-15).

    Bisects in the lower half and mirrors for u > 0.5: there the cdf has
    full relative precision, whereas bisecting directly against an upper
    tail value saturates at the cdf's absolute epsilon near 1 and would
    limit the oracle itself to ~5e-8.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    upper = u > 0.5
    q = np.where(upper, 1.0 - u, u)
    lo = np.full_like(q, -13.0)
    hi = np.zeros_like(q)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = ndtr(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    z = 0.5 * (lo + hi)
    return np.where(upper, -z, z)


def cofactor_det(M):
    """Determinant by recursive cofactor expansion along the first row."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return M[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * M[0, j] * cofactor_det(minor)
    return total


def adjugate_inverse(M):
    """Inverse via the adjugate: inv[i, j] = cofactor(j, i) / det."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    det = cofactor_det(M)
    inv = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, j, axis=0), i, axis=1)
            inv[i, j] = ((-1.0) ** (i + j)) * cofactor_det(minor) / det
    return inv


def naive_matmul(A, B):
    """Triple-loop matrix product."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.zeros((A.shape[0], B.shape[1]))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0.0
            for k in range(A.shape[1]):
                acc += A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def direct_probit_scores(sorted_columns, X):
    """``inv_norm_cdf(count / (n + 1))`` per entry, count clamped to [1, n]."""
    n, p = sorted_columns.shape
    X = np.asarray(X, dtype=float)
    counts = np.empty(X.shape)
    for j in range(p):
        c = np.searchsorted(sorted_columns[:, j], X[:, j], side="right")
        counts[:, j] = np.clip(c, 1, n)
    return inv_norm_cdf(counts / (n + 1.0))


def per_block_vote_fractions(model, X):
    """Vote fractions from one projection and one discriminant per block.

    Each block projects the scores with ``S @ A'`` and evaluates
    ``log(p1/p0) - 0.5*(logdet1 - logdet0) - 0.5*s'(inv1 - inv0)s``
    with a three-operand einsum. The inverses and log-determinants are
    :func:`rankqda.qda.inverse_spd`'s and :func:`rankqda.qda.log_det_spd`'s
    of the block's covariances, the same factors the model derives its
    ``D`` and constant from, so the votes keep their bits.
    """
    scores = direct_probit_scores(model.marginal_model.sorted_columns, np.atleast_2d(X))
    counts = np.zeros(scores.shape[0], dtype=int)
    for block in model.blocks:
        m = block.model
        Z = scores @ block.projection.matrix.T
        quad = np.einsum("ij,jk,ik->i", Z, inverse_spd(m.cov1) - inverse_spd(m.cov0), Z)
        log_det1, log_det0 = log_det_spd(m.cov1), log_det_spd(m.cov0)
        delta = np.log(m.prior1 / m.prior0) - 0.5 * (log_det1 - log_det0) - 0.5 * quad
        counts += (delta >= 0.0).astype(int)
    return counts / len(model.blocks)


def threshold_loop_select_alpha(votes, labels, b1):
    """``select_alpha`` by evaluating the error at each of its b1 + 2 thresholds in turn."""
    votes, labels = np.asarray(votes, dtype=float), np.asarray(labels)
    best_alpha, best_err = None, None
    for k in range(-1, b1 + 1):
        alpha = 0.0 if k < 0 else (k + 0.5) / b1
        err = float(np.mean((votes >= alpha).astype(int) != labels))
        if best_err is None or err < best_err:
            best_alpha, best_err = alpha, err
    return best_alpha

"""Print one line per scenario draw and per training configuration.

A change that must keep every output byte-equal runs this script against
two checkouts and compares the lines:

    PYTHONPATH=base/src python3 tools/same_outputs.py > base.txt
    PYTHONPATH=src python3 tools/same_outputs.py > head.txt
    diff base.txt head.txt

The first line hashes the probit pair itself: ``inv_norm_cdf`` over every
score-table grid ``arange(1, n + 1) / (n + 1)`` for n = 1..2000, 5000,
20000 and 100000, then over edge values (the smallest subnormal, 0.02425
where the quantile changes region and both its float neighbours, 0.5 and
its neighbours, their mirrors near 1), each as an array and as a Python
scalar, then ``norm_cdf`` on a fixed grid. Every score a model holds is an
entry of such a table.

The ``marginals-ties`` line hashes the scores and the sorted-table bytes
``fit_transform`` returns for three fixed matrices of tied values: 2000 x 8
on a half-step grid mixed with both signed zeros, the smallest subnormal
and +-1.7e308, with one constant column; a 17-row one (one row past a
fence-index window); and a 1-row one. The scenario and training lines fit
continuous data only, so without it a change in how training counts ties
would not show.

The scenario lines come next. For each of five scenarios (the desk one,
the desk one at prior1=0.3, ``large``, a ``random_correlation_matrix``
pair at p=6 and a ``piecewise_linear_map`` scenario at p=3), one line
hashes the bytes of the features, labels and latent scores that
``sample_meta_gaussian`` draws with Bernoulli labels, one the same with
``fixed_counts``, and one prints the ``monte_carlo_bayes_risk`` estimate.

Each training line hashes the bytes ``save_model`` writes, the raw float64
vote fractions of a held-out sample, then those of its first 200 rows
scored one row at a time with ``vote_fraction`` (single rows take a
different count search from bulk scoring). The grid covers the desk
scenario (p=10, b1=100, b2=20) under each projection flavor and five
seeds, the same scenario at prior1=0.3, a 7-row set with a 2-row class
under the automatic and a fixed ridge, and the ``large`` shape (20000 x 50,
d=5, b1=b2=20). Three lines reach the corners of candidate selection: one
axis coordinate per candidate on the desk draw (repeated coordinates give
exactly tied errors), a 9-row set at ridge 0 whose class-0 scores are zero
in column 0 (so the candidates on that column are singular and the others
are not), and d = p on the desk draw. Six small fits (d=3, b1=10, b2=5) on
the desk draw, one per flavor at seeds 2**32 and 2**64 + 5, reach the
stream keys whose seed is two and three 32-bit entropy words (a key of
five words takes ``SeedSequence``'s extra mixing loop).

The ``writers`` line hashes the bytes the two CSV writers produce:
``dataio.write_data_csv`` on the desk draw with its latent columns, then
``dataio.write_predictions_csv`` on the first configuration's held-out
predictions.

The last line, ``reader``, hashes what ``dataio.read_data_csv`` returns: the
bytes of ``(X, y)`` for a 20000-row desk draw with latent columns as
``dataio.write_data_csv`` writes it (several read blocks), then for the
same file with its cells quoted or padded, then the type and text of
each error a few bad files raise, with the temporary directory removed.

It uses only the public API, so it runs against older checkouts too. The
library's ``UserWarning`` (a class too small for a full-rank covariance)
is silenced, since it is not an output; any other warning is left to the
interpreter's filters, so ``PYTHONWARNINGS=error::RuntimeWarning`` turns
an overflow or an invalid value into a failure.
"""

import hashlib
import os
import sys
import tempfile
import warnings

import numpy as np

import rankqda as rq
from rankqda import dataio
from rankqda.rng import substream


def desk_scenario(prior1: float = 0.5) -> rq.ScenarioSpec:
    p = 10
    cov0 = np.eye(p)
    idx = np.arange(p - 1)
    cov0[idx, idx + 1] = cov0[idx + 1, idx] = 0.05
    cov1 = np.eye(p)
    cov1[:4, :4] = 0.85
    cov1[4, 5] = cov1[5, 4] = -0.8
    np.fill_diagonal(cov1, 1.0)
    return rq.ScenarioSpec(p=p, prior1=prior1, cov0=cov0, cov1=cov1,
                           marginal_maps=["exp", "cube"] * 5, seed=20260810)


def large_scenario() -> rq.ScenarioSpec:
    p = 50
    return rq.ScenarioSpec(p=p, prior1=0.5, cov0=np.eye(p),
                           cov1=rq.block_correlation_matrix(p, 10, 0.5),
                           marginal_maps=["exp", "cube"] * 25, seed=7)


def scenarios():
    """(name, spec) for every scenario line, in output order."""
    yield "desk", desk_scenario()
    yield "desk-prior0.3", desk_scenario(prior1=0.3)
    yield "large", large_scenario()
    yield "random-p6", rq.ScenarioSpec(
        p=6, prior1=0.5, cov0=rq.random_correlation_matrix(6, substream(3, 1)),
        cov1=rq.random_correlation_matrix(6, substream(3, 2)), marginal_maps="exp", seed=3)
    yield "pwl-p3", rq.ScenarioSpec(
        p=3, prior1=0.4, cov0=np.eye(3), cov1=rq.block_correlation_matrix(3, 2, 0.6),
        marginal_maps=rq.piecewise_linear_map([(-1.0, -2.0), (0.0, 0.0), (1.0, 3.0)]), seed=5)


QUANTILE_EDGES = [5e-324, 2.0**-1022, 1e-300, 1e-16, np.nextafter(0.02425, 0.0), 0.02425,
                  np.nextafter(0.02425, 1.0), np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                  np.nextafter(0.97575, 0.0), 0.97575, np.nextafter(0.97575, 1.0), 1.0 - 2.0**-53]


def quantile_line() -> str:
    digest = hashlib.sha256()
    for n in [*range(1, 2001), 5000, 20000, 100000]:
        digest.update(rq.inv_norm_cdf(np.arange(1, n + 1) / (n + 1.0)).tobytes())
    digest.update(rq.inv_norm_cdf(np.array(QUANTILE_EDGES)).tobytes())
    digest.update(np.array([rq.inv_norm_cdf(float(u)) for u in QUANTILE_EDGES]).tobytes())
    digest.update(rq.norm_cdf(np.linspace(-40.0, 40.0, 8001)).tobytes())
    return f"quantile {digest.hexdigest()}"


TIE_EDGES = [0.0, -0.0, 5e-324, 1.7e308, -1.7e308]


def marginals_ties_line() -> str:
    rng = substream(11, 7)
    X = np.round(rng.standard_normal((2000, 8)) * 2.0) / 2.0
    mask = rng.random(X.shape) < 0.2
    X[mask] = rng.choice(TIE_EDGES, mask.sum())
    X[:, 3] = -0.0  # a constant column
    digest = hashlib.sha256()
    for M in (X, X[:17], X[:1]):
        model, scores = rq.fit_transform(M)
        digest.update(scores.tobytes())
        digest.update(model.sorted_columns.tobytes())
    return f"marginals-ties {digest.hexdigest()}"


def scenario_lines():
    for name, spec in scenarios():
        for mode, fixed_counts in (("sample", False), ("fixed-counts", True)):
            data = rq.sample_meta_gaussian(2000, spec, substream(11, 3), fixed_counts)
            digest = hashlib.sha256()
            for a in (data.features, data.labels, data.latent):
                digest.update(a.tobytes())
            yield f"scenario-{name}-{mode} {digest.hexdigest()}"
        est = rq.monte_carlo_bayes_risk(spec, 20000, substream(11, 5))
        yield f"scenario-{name}-bayes-risk {est.risk!r} {est.std_error!r} {est.n_samples}"


def drawn(spec, seed: int, n_train: int, n_test: int):
    train = rq.sample_meta_gaussian(n_train, spec, substream(seed, 3))
    test = rq.sample_meta_gaussian(n_test, spec, substream(seed, 4))
    return train.features, train.labels, test.features


def configurations():
    """(name, X, labels, held-out X, config) for every line, in output order."""
    for flavor in ("haar", "gaussian", "axis"):
        for seed in range(1, 6):
            X, y, T = drawn(desk_scenario(), seed, 500, 2000)
            yield (f"desk-{flavor}-seed{seed}", X, y, T,
                   rq.EnsembleConfig(d=3, b1=100, b2=20, flavor=flavor, seed=seed))
    for seed in (1, 2):
        X, y, T = drawn(desk_scenario(prior1=0.3), seed, 500, 2000)
        yield (f"desk-prior0.3-seed{seed}", X, y, T,
               rq.EnsembleConfig(d=3, b1=100, b2=20, seed=seed))
    rng = np.random.default_rng(7)
    X, T = rng.standard_normal((7, 3)), rng.standard_normal((50, 3))
    y = np.array([0, 0, 1, 0, 0, 1, 0])
    for name, ridge in (("auto", None), ("0.1", 0.1)):
        yield (f"tiny-ridge-{name}", X, y, T,
               rq.EnsembleConfig(d=2, b1=10, b2=5, ridge=ridge, seed=3))
    X, y, T = drawn(desk_scenario(), 1, 500, 2000)
    yield "desk-axis-d1-ties", X, y, T, rq.EnsembleConfig(d=1, b1=100, b2=20, flavor="axis", seed=1)
    yield "desk-d-equals-p", X, y, T, rq.EnsembleConfig(d=10, b1=20, b2=10, seed=1)
    for seed in (2**32, 2**64 + 5):
        for flavor in ("haar", "gaussian", "axis"):
            yield (f"desk-{flavor}-seed{seed}", X, y, T,
                   rq.EnsembleConfig(d=3, b1=10, b2=5, flavor=flavor, seed=seed))
    rng = np.random.default_rng(5)
    X, T = rng.standard_normal((9, 5)), rng.standard_normal((50, 5))
    X[:, 0] = [1.0, 2.0, 5.0, 5.0, 5.0, 6.0, 7.0, 8.0, 9.0]  # class 0 ties at the middle rank
    y = np.array([1, 1, 0, 0, 0, 1, 1, 1, 1])
    yield ("ridge0-some-singular", X, y, T,
           rq.EnsembleConfig(d=1, b1=20, b2=5, flavor="axis", ridge=0.0, seed=0))
    X, y, T = drawn(large_scenario(), 7, 20000, 5000)
    yield "large", X, y, T, rq.EnsembleConfig(d=5, b1=20, b2=20, seed=42)


def writers_line(tmp: str, model, T) -> str:
    data = rq.sample_meta_gaussian(2000, desk_scenario(), substream(11, 3))
    data_path, preds_path = os.path.join(tmp, "data.csv"), os.path.join(tmp, "preds.csv")
    dataio.write_data_csv(data_path, data.features, data.labels, latent=data.latent)
    dataio.write_predictions_csv(preds_path, *rq.predict(model, T))
    digest = hashlib.sha256()
    for path in (data_path, preds_path):
        with open(path, "rb") as f:
            digest.update(f.read())
    return f"writers {digest.hexdigest()}"


BAD_FILES = [
    ("late-non-finite", b"x0,label\n" + b"1.5,0\n" * 15000 + b"1e999,1\n"),
    ("late-bad-label", b"x0,label\n" + b"1.5,0\n" * 15000 + b"1.5,2\n"),
    ("short-row", b"x0,x1,label\n1.5,2.5,0\n1.5,1\n"),
    ("missing-value", b"x0,label\n1.5,0\n ,1\n"),
    ("no-label", b"x0,x1\n1.5,2.5\n"),
    ("header-only", b"x0,label\n"),
    ("empty", b"\n\n"),
    ("over-field-limit", b"x0,label\n1.5,0\n" + b"1" * 131073 + b",1\n"),
    ("undecodable", b"x0,label\n1.5,0\n\xff,1\n"),
    ("non-finite-before-undecodable", b"x0,label\n1e999,0\n\xff,1\n"),
]


def reader_line(tmp: str) -> str:
    data = rq.sample_meta_gaussian(20000, desk_scenario(), substream(11, 6))
    plain, padded = os.path.join(tmp, "plain.csv"), os.path.join(tmp, "padded.csv")
    dataio.write_data_csv(plain, data.features, data.labels, latent=data.latent)
    with open(plain, encoding="utf-8", newline="") as f:
        header, *rows = f.read().splitlines(keepends=True)
    with open(padded, "w", encoding="utf-8", newline="") as f:
        f.write(header)
        for row in rows:  # odd columns quoted, even ones padded
            cells = row.rstrip("\r\n").split(",")
            f.write(",".join(f'"{c}"' if j % 2 else f" {c}\t" for j, c in enumerate(cells)) + "\r\n")
    digest = hashlib.sha256()
    for path in (plain, padded):
        X, y = dataio.read_data_csv(path, "label")
        digest.update(X.tobytes())
        digest.update(y.astype(np.int64).tobytes())
    for name, data in BAD_FILES:
        path = os.path.join(tmp, f"{name}.csv")
        with open(path, "wb") as f:
            f.write(data)
        try:
            dataio.read_data_csv(path, "label")
            outcome = "read"
        except ValueError as exc:  # DataError and UnicodeDecodeError included
            outcome = f"{type(exc).__name__}: {str(exc).replace(tmp, '')}"
        digest.update(outcome.encode())
    return f"reader {digest.hexdigest()}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        print(quantile_line(), flush=True)
        print(marginals_ties_line(), flush=True)
        for line in scenario_lines():
            print(line, flush=True)
        path, first = os.path.join(tmp, "model.json"), None
        for name, X, y, T, config in configurations():
            model = rq.train_ensemble(X, y, config)
            rq.save_model(model, path)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read())
            digest.update(rq.vote_fractions(model, T).tobytes())
            digest.update(np.array([rq.vote_fraction(model, t) for t in T[:200]]).tobytes())
            print(f"{name} {digest.hexdigest()}", flush=True)
            first = first or (model, T)
        print(writers_line(tmp, *first), flush=True)
        print(reader_line(tmp), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

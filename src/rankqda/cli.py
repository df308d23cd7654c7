"""Batch command line: synth, train, predict, eval, bayes-risk.

Seeds are mandatory wherever randomness is involved; there is no
wall-clock fallback, so identical invocations produce identical files.
All failures, bad flags included, exit 1 with one ``error: ...`` line on
stderr; each library warning is one ``warning: ...`` line there.

``synth`` and ``bayes-risk`` build one :class:`synthdata.ScenarioSpec`
from the same scenario flags; the scenario's Bayes risk comes only from
``bayes-risk``. Every error raised while parsing or building ``--cov0``,
``--cov1`` or ``--marginal``, the parser's or synthdata's, is prefixed
with that flag in one place. The count flags (``--p``, ``--n-train``,
``--n-test``, ``--n`` and ``train``'s ``--d``, ``--b1``, ``--b2``) must
be >= 1 and ``--seed`` >= 0; both are checked, naming the flag, before
any spec is parsed or file read, so a spec error is never blamed on a
bad count or seed.
"""

import argparse
import sys
import warnings

import numpy as np

from . import dataio, ensemble, model_io, projections, synthdata
from .errors import checked_int
from .rng import substream

# Substream tags so each CLI draw has its own deterministic stream.
_STREAM_COV0 = 1
_STREAM_COV1 = 2
_STREAM_TRAIN = 3
_STREAM_TEST = 4
_STREAM_RISK = 5

# Lower bounds of the count flags and the seed, checked before anything reads them.
_INT_FLAG_MINIMUMS = {
    "p": 1, "n_train": 1, "n_test": 1, "n": 1, "d": 1, "b1": 1, "b2": 1, "seed": 0,
}


def _parse_cov(value: str, p: int, seed: int, tag: int, cov0=None):
    if value == "identity":
        return np.eye(p)
    if value == "random":
        return synthdata.random_correlation_matrix(p, substream(seed, tag))
    if value == "same":
        if cov0 is None:
            raise ValueError("'same' is only valid for --cov1")
        return cov0
    if value.startswith("block:"):
        try:
            _, size, rho = value.split(":")
            size, rho = int(size), float(rho)
        except ValueError:
            raise ValueError(f"expected block:SIZE:RHO, got {value!r}") from None
        return synthdata.block_correlation_matrix(p, size, rho)
    raise ValueError(
        f"unknown covariance spec {value!r}; use identity, random, block:SIZE:RHO, or same"
    )


def _parse_marginal(value: str):
    if value in synthdata.MARGINAL_MAPS:
        return value
    if value.startswith("pwl:"):
        pairs = []
        for chunk in value[4:].split(","):
            x, _, y = chunk.partition(":")
            try:
                pairs.append((float(x), float(y)))
            except ValueError:
                raise ValueError(f"expected pwl:X:Y,X:Y,... got {value!r}") from None
        return synthdata.piecewise_linear_map(pairs)
    raise ValueError(
        f"unknown marginal map {value!r}; use "
        f"{sorted(synthdata.MARGINAL_MAPS)} or pwl:X:Y,X:Y,..."
    )


def _flagged(flag: str, parse, *args):
    """``parse(*args)``, with any ``ValueError``, its own or synthdata's, naming ``flag``."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _scenario_from_args(args) -> synthdata.ScenarioSpec:
    if not 0.0 < args.pi1 < 1.0:
        raise ValueError(f"prior must be interior: 0 < pi1 < 1, got {args.pi1}")
    cov0 = _flagged("--cov0", _parse_cov, args.cov0, args.p, args.seed, _STREAM_COV0)
    cov1 = _flagged("--cov1", _parse_cov, args.cov1, args.p, args.seed, _STREAM_COV1, cov0)
    return synthdata.ScenarioSpec(
        p=args.p,
        prior1=args.pi1,
        cov0=cov0,
        cov1=cov1,
        marginal_maps=_flagged("--marginal", _parse_marginal, args.marginal),
        seed=args.seed,
    )


def _add_scenario_flags(sub):
    sub.add_argument("--p", type=int, required=True, help="feature count")
    sub.add_argument("--pi1", type=float, default=0.5, help="class-1 prior")
    sub.add_argument("--cov0", default="random",
                     help="class-0 correlation: identity|random|block:SIZE:RHO")
    sub.add_argument("--cov1", default="random",
                     help="class-1 correlation: identity|random|block:SIZE:RHO|same")
    sub.add_argument("--marginal", default="identity",
                     help="marginal map: identity|exp|cube|pwl:X:Y,X:Y,...")
    sub.add_argument("--seed", type=int, required=True)


def cmd_synth(args) -> int:
    spec = _scenario_from_args(args)
    for n, tag, path in ((args.n_train, _STREAM_TRAIN, args.out_train),
                         (args.n_test, _STREAM_TEST, args.out_test)):
        dataset = synthdata.sample_meta_gaussian(n, spec, substream(args.seed, tag), args.fixed_counts)
        latent = dataset.latent if args.latent else None
        dataio.write_data_csv(path, dataset.features, dataset.labels, latent=latent)
        print(f"wrote {dataset.n} rows to {path}")
    return 0


def cmd_bayes_risk(args) -> int:
    spec = _scenario_from_args(args)
    est = synthdata.monte_carlo_bayes_risk(spec, args.n, substream(args.seed, _STREAM_RISK))
    print(f"bayes_risk: {est.risk} (std_error {est.std_error}, n {est.n_samples})")
    return 0


def _parse_auto(value: str, what: str) -> float | None:
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"--{what} must be a number or 'auto', got {value!r}") from None


def cmd_train(args) -> int:
    config = ensemble.EnsembleConfig(
        d=args.d,
        b1=args.b1,
        b2=args.b2,
        flavor=args.projection,
        ridge=_parse_auto(args.ridge, "ridge"),
        alpha=_parse_auto(args.alpha, "alpha"),
        seed=args.seed,
    )
    X, y = dataio.read_data_csv(args.data, label_col=args.label_col)
    model = ensemble.train_ensemble(X, y, config)
    for b, block in enumerate(model.blocks):
        print(f"block {b}: candidate {block.candidate} train_error {block.train_error}")
    print(f"alpha: {model.alpha}")
    model_io.save_model(model, args.model_out)
    print(f"wrote model to {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = model_io.load_model(args.model)
    X, _ = dataio.read_data_csv(args.data, label_col=args.label_col)
    preds, votes = ensemble.predict(model, X)
    dataio.write_predictions_csv(args.out, preds, votes)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = model_io.load_model(args.model)
    X, y = dataio.read_data_csv(args.data, label_col=args.label_col)
    preds, _ = ensemble.predict(model, X)
    error = float(np.mean(preds != y))
    tn = int(np.sum((y == 0) & (preds == 0)))
    fp = int(np.sum((y == 0) & (preds == 1)))
    fn = int(np.sum((y == 1) & (preds == 0)))
    tp = int(np.sum((y == 1) & (preds == 1)))
    print(f"n: {len(y)}")
    print(f"alpha: {model.alpha}")
    print(f"error: {error}")
    print(f"confusion: tn={tn} fp={fp} fn={fn} tp={tp}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error takes main's one error path, not exit 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankqda",
        description="Rank-based robust QDA with random-projection ensembles.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate synthetic train/test CSVs")
    _add_scenario_flags(synth)
    synth.add_argument("--n-train", type=int, required=True)
    synth.add_argument("--n-test", type=int, required=True)
    synth.add_argument("--out-train", default="train.csv")
    synth.add_argument("--out-test", default="test.csv")
    synth.add_argument("--latent", action="store_true",
                       help="include latent score columns in the CSVs")
    synth.add_argument("--fixed-counts", action="store_true",
                       help="fix class counts at round(pi1*n) instead of Bernoulli draws")
    synth.set_defaults(func=cmd_synth)

    risk = commands.add_parser("bayes-risk", help="Monte Carlo Bayes risk of a scenario")
    _add_scenario_flags(risk)
    risk.add_argument("--n", type=int, default=200000)
    risk.set_defaults(func=cmd_bayes_risk)

    train = commands.add_parser("train", help="fit an ensemble on a CSV")
    train.add_argument("--data", required=True)
    train.add_argument("--label-col", default="label")
    train.add_argument("--d", type=int, required=True)
    train.add_argument("--b1", type=int, required=True)
    train.add_argument("--b2", type=int, required=True)
    train.add_argument("--projection", default="haar", help="|".join(projections.FLAVORS))
    train.add_argument("--ridge", default="auto", help="ridge value or 'auto'")
    train.add_argument("--alpha", default="auto", help="vote threshold in [0,1] or 'auto'")
    train.add_argument("--seed", type=int, required=True)
    train.add_argument("--model-out", required=True)
    train.set_defaults(func=cmd_train)

    predict = commands.add_parser("predict", help="write pred/vote CSV for a data file")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--label-col", default=None,
                         help="label column to ignore, if the file has one")
    predict.add_argument("--out", required=True)
    predict.set_defaults(func=cmd_predict)

    evaluate = commands.add_parser("eval", help="error and confusion matrix on a labeled CSV")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--label-col", default="label")
    evaluate.set_defaults(func=cmd_eval)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one line, like errors; restored on exit
        try:
            args = build_parser().parse_args(argv)
            for name, minimum in _INT_FLAG_MINIMUMS.items():  # before any spec is parsed
                if hasattr(args, name):
                    checked_int(getattr(args, name), "--" + name.replace("_", "-"), minimum)
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

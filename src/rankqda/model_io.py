"""Versioned JSON persistence for fitted ensembles.

Matrices are stored row-major as nested lists; floats round-trip exactly
through JSON's shortest-repr serialization, and the inverses and
log-determinants are recomputed from the stored covariances at load
time, so a reloaded model reproduces predictions bit-identically. The
stacked arrays of the vote kernel and the marginal score table are
derived from the loaded model and never stored.

Loading validates the document before building the model: shapes
against ``d`` and ``n_features``, finiteness, ``alpha`` in [0, 1], the
block count against ``b1`` and sorted marginal columns of length ``n``.
A malformed file fails with one :class:`ValueError` naming the field.
"""

import json

import numpy as np

from . import ensemble, marginals, projections, qda

FORMAT_NAME = "rankqda-ensemble"
FORMAT_VERSION = 1


def _matrix(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _finite_array(value, what: str, shape: tuple) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite value")
    return a


def _finite_number(value, what: str) -> float:
    # bool is an int subclass, but JSON true/false is not a number
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def model_to_dict(model: ensemble.EnsembleModel) -> dict:
    cfg = model.config
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": {
            "d": cfg.d,
            "b1": cfg.b1,
            "b2": cfg.b2,
            "projection": cfg.flavor,
            "ridge": cfg.ridge,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
        },
        "alpha": model.alpha,
        "n_features": model.n_features,
        "marginals": {
            "n": model.marginal_model.n_samples,
            # one sorted array per feature
            "columns": _matrix(model.marginal_model.sorted_columns.T),
        },
        "blocks": [
            {
                "flavor": block.projection.flavor,
                "stream": list(block.projection.stream)
                if block.projection.stream is not None
                else None,
                "matrix": _matrix(block.projection.matrix),
                "prior0": block.model.prior0,
                "prior1": block.model.prior1,
                "cov0": _matrix(block.model.cov0),
                "cov1": _matrix(block.model.cov1),
                "ridge": block.model.ridge,
                "train_error": block.train_error,
                "candidate": block.candidate,
            }
            for block in model.blocks
        ],
    }


def model_from_dict(doc: dict) -> ensemble.EnsembleModel:
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file (format={doc.get('format')!r})")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {doc.get('version')!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )

    cfg = doc["config"]
    config = ensemble.EnsembleConfig(
        d=cfg["d"],
        b1=cfg["b1"],
        b2=cfg["b2"],
        flavor=cfg["projection"],
        ridge=cfg["ridge"],
        alpha=cfg["alpha"],
        seed=cfg["seed"],
    )
    d, p, n = config.d, doc["n_features"], doc["marginals"]["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"marginals.n must be a positive integer, got {n!r}")

    raw_columns = doc["marginals"]["columns"]
    if len(raw_columns) != p:
        raise ValueError(f"marginals have {len(raw_columns)} columns, expected n_features={p}")
    for j, column in enumerate(raw_columns):
        if len(column) != n:
            raise ValueError(f"marginal column {j} has {len(column)} values, expected n={n}")
    columns = _finite_array(raw_columns, "marginal columns", (p, n))
    unsorted = np.flatnonzero((np.diff(columns, axis=1) < 0).any(axis=1))
    if unsorted.size:
        raise ValueError(f"marginal column {unsorted[0]} is not sorted ascending")
    marginal_model = marginals.MarginalModel(sorted_columns=columns.T)

    raw_blocks = doc["blocks"]
    if len(raw_blocks) != config.b1:
        raise ValueError(f"model has {len(raw_blocks)} blocks, expected b1={config.b1}")
    blocks = []
    for k, raw in enumerate(raw_blocks):
        proj = projections.Projection(
            matrix=_finite_array(raw["matrix"], f"block {k} matrix", (d, p)),
            flavor=raw["flavor"],
            stream=tuple(raw["stream"]) if raw["stream"] is not None else None,
        )
        model = qda.model_from_parameters(
            _finite_number(raw["prior1"], f"block {k} prior1"),
            _finite_array(raw["cov0"], f"block {k} cov0", (d, d)),
            _finite_array(raw["cov1"], f"block {k} cov1", (d, d)),
            ridge=_finite_number(raw["ridge"], f"block {k} ridge"),
        )
        blocks.append(
            ensemble.Block(
                projection=proj,
                model=model,
                train_error=_finite_number(raw["train_error"], f"block {k} train_error"),
                candidate=raw["candidate"],
            )
        )

    alpha = _finite_number(doc["alpha"], "alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return ensemble.EnsembleModel(
        marginal_model=marginal_model,
        blocks=blocks,
        alpha=alpha,
        config=config,
    )


def save_model(model: ensemble.EnsembleModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=1)
        f.write("\n")


def load_model(path) -> ensemble.EnsembleModel:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return model_from_dict(doc)

"""Versioned JSON persistence for fitted ensembles.

Matrices are stored row-major as nested lists; floats round-trip exactly
through JSON's shortest-repr serialization. A block's priors go to
:class:`qda.RqdaModel` as stored; it checks them and derives the
``D`` and constant it votes with from its covariances exactly as at fit,
so a reloaded model holds the saved one's values (its
:func:`model_to_dict` is equal) and predicts bit-identically; ``==`` on
model objects is identity, as for every array-holding type of the
package. The vote kernel's stacked arrays and the marginal score table
are never stored.

Loading checks what only a file gets wrong: its text (a file that is
not UTF-8 JSON raises a ``ValueError`` naming its path), keys, JSON
types, and the shapes of the marginal and covariance arrays. Every value
rule has one owner, the type built, so fitted, hand-built and loaded
objects pass the same checks: config values (errors prefixed
``config.``), sorted finite marginal columns, each block's flavor,
finite matrix and stream (:class:`projections.Projection`), priors,
ridge and covariances (finite, positive definite, symmetric;
:class:`qda.RqdaModel`), and candidate and training error
(:class:`ensemble.Block`), each type's text prefixed ``block k: `` and
each block built in file order, so the first bad block is the one
reported; then the block count, covariance size, matrix shapes,
candidates below ``b2`` and ``alpha`` (:class:`ensemble.EnsembleModel`).
The writer casts no scalar: each of those types stores Python numbers.
"""

import json

import numpy as np

from . import ensemble, marginals, projections, qda
from .errors import checked_int

FORMAT_NAME = "rankqda-ensemble"
FORMAT_VERSION = 1


def _get(obj, key: str, where: str = "model file"):
    """``obj[key]``, or one ValueError if ``obj`` is no JSON object or lacks ``key``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} has no field {key!r}")
    return obj[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def _numbers(value, what: str, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float array if it is a regular nested list of JSON numbers (not bools)."""
    try:
        a = np.asarray(value, dtype=float)
        if not all(type(entry) in (int, float) for entry in np.asarray(value, dtype=object).flat):
            raise TypeError  # asarray(dtype=float) also takes "0.5", true and null
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int too large for a float
        raise ValueError(f"{what} is not a numeric array") from None
    if shape is not None and a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, expected {shape}")
    return a


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
            "columns": model.marginal_model.sorted_columns.T.tolist(),
        },
        "blocks": [
            {
                "flavor": block.projection.flavor,
                "stream": None if block.projection.stream is None else list(block.projection.stream),
                "matrix": block.projection.matrix.tolist(),
                "prior0": block.model.prior0,
                "prior1": block.model.prior1,
                "cov0": block.model.cov0.tolist(),
                "cov1": block.model.cov1.tolist(),
                "ridge": block.model.ridge,
                "train_error": block.train_error,
                "candidate": block.candidate,
            }
            for block in model.blocks
        ],
    }


def model_from_dict(doc: dict) -> ensemble.EnsembleModel:
    if _get(doc, "format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file (format={doc['format']!r})")
    version = _get(doc, "version")
    if type(version) is not int or version != FORMAT_VERSION:  # not true or 1.0, which == 1
        raise ValueError(
            f"unsupported model format version {version!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )

    cfg = _get(doc, "config")
    settings = {key: _get(cfg, key, "config") for key in ("d", "b1", "b2", "ridge", "alpha", "seed")}
    flavor = _get(cfg, "projection", "config")
    try:
        config = ensemble.EnsembleConfig(flavor=flavor, **settings)
    except ValueError as exc:
        raise ValueError(f"config.{exc}") from None
    marginals_doc = _get(doc, "marginals")
    d, p = config.d, checked_int(_get(doc, "n_features"), "n_features", 1)
    n = checked_int(_get(marginals_doc, "n", "marginals"), "marginals.n", 1)

    raw_columns = _list(_get(marginals_doc, "columns", "marginals"), "marginals.columns")
    if len(raw_columns) != p:
        raise ValueError(f"marginals have {len(raw_columns)} columns, expected n_features={p}")
    for j, column in enumerate(raw_columns):
        if len(_list(column, f"marginal column {j}")) != n:
            raise ValueError(f"marginal column {j} has {len(column)} values, expected n={n}")
    columns = _numbers(raw_columns, "marginal columns", (p, n))
    marginal_model = marginals.MarginalModel(sorted_columns=columns.T)

    blocks = []
    for k, raw in enumerate(_list(_get(doc, "blocks"), "blocks")):
        where = f"blocks[{k}]"
        stream = _get(raw, "stream", where)
        stream = None if stream is None else tuple(_list(stream, f"block {k} stream"))
        matrix = _numbers(_get(raw, "matrix", where), f"block {k} matrix")
        cov0, cov1 = (_numbers(_get(raw, key, where), f"block {k} {key}", (d, d)) for key in ("cov0", "cov1"))
        flavor, prior0, prior1, ridge, train_error, candidate = (
            _get(raw, key, where) for key in ("flavor", "prior0", "prior1", "ridge", "train_error", "candidate")
        )
        try:
            proj = projections.Projection(matrix, flavor, stream)
            model = qda.RqdaModel(prior0, prior1, cov0, cov1, ridge)
            blocks.append(ensemble.Block(proj, model, train_error, candidate))
        except ValueError as exc:
            raise type(exc)(f"block {k}: {exc}") from None

    return ensemble.EnsembleModel(marginal_model, blocks, _get(doc, "alpha"), config)


def save_model(model: ensemble.EnsembleModel, path) -> None:
    # serialize first, so a value JSON cannot encode leaves an existing file as it was
    text = json.dumps(model_to_dict(model), indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_model(path) -> ensemble.EnsembleModel:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as exc:  # JSON syntax and text decoding errors alike
        raise ValueError(f"model file {path}: {exc}") from None
    return model_from_dict(doc)

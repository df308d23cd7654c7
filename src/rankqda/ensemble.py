"""Random-projection ensemble around the single-projection classifier.

Training runs ``b1`` blocks; each block draws ``b2`` candidate
projections, each from its own substream, and keeps the candidate whose
quadratic discriminant has the lowest training error (ties go to the
lowest candidate index). Prediction averages the selected blocks' hard
votes into a fraction ``nu`` and thresholds it at ``alpha`` (``nu >=
alpha`` means class 1). The whole pipeline is a pure function of (data,
config): substreams are keyed by (seed, block, candidate), so the fit is
reproducible regardless of execution order and could be parallelized
across the block/candidate grid without changing results. A fit hashes
every key at once: :func:`rng._keyed_streams` computes the PCG64 seeding
words of every key in one vectorized pass and yields each block's
candidates their own generators, bit for bit
``substream(seed, block, candidate)``'s, so training shares no generator.
Each candidate draws its projection once.

A block chooses its candidate in one batch, from moments transported
through the projections: :func:`qda._bound_rows` forms each class's
p x p second moment ``M_r`` of the probit scores and prepares the
training rows for the count, once per fit, and
:func:`qda._lower_bounds` bounds every candidate's training error from
below in one pass. ``qda`` owns that count whole: the covariances
``A M_r A'``, ridge and discriminant terms by the same rules as an exact
fit, the test for sure errors in the eigenbasis of each candidate's
``D``, the rounding margin the test needs and the pass over the rows
that the margin is derived for. This module does no covariance,
discriminant or bound arithmetic: it draws, orders the refits, refits,
selects ``alpha`` and votes. Transported covariances round differently
from the ``Z_r'Z_r / n_r`` a model stores, so the batch only bounds each
candidate's error from below: it counts the misclassified rows far
enough from the boundary to trust their batched sign. One rule then
picks the candidate: refit exactly in ascending bound order and stop at
the first bound above the best exact error (about one refit per block on
the desk scenario). A batch that fails, because some covariance has no
factor or some candidate's terms are not finite at either precision of
the count, has one fallback: every bound is ``-inf`` and the block
refits all its candidates. Every stored number, and so every model file,
comes from that exact refit, the same ``qda`` core and error as a fit of
each candidate on its own.

Prediction has one kernel, :func:`_vote_counts`, behind
:func:`vote_fractions`. Only :class:`EnsembleModel`'s construction
derives the stacked arrays the kernel reads: ``stacked_projection`` (its
``b1`` projections as one (p, b1*d) matrix), ``stacked_D`` and
``stacked_const`` (its blocks' ``D = inv1 - inv0`` matrices and
constants), never persisted, so a fitted, hand-built and loaded model
hold the same arrays. Scoring then takes one marginal transform, and per
chunk of rows (:func:`qda._chunk_rows`, the bound pass's chunk rule) one
matmul into every block's space plus one :func:`qda.stacked_discriminant`
call, with no loop over blocks.
Training builds the model it returns, counts the votes it selects
``alpha`` on with the same kernel on that model's arrays, then replaces
the provisional ``alpha``, so a training row gets the same vote at fit
as at prediction. A model stores its blocks as a tuple, and every array
it holds (projection matrices, covariances, the marginal table and the
stacked arrays) is read-only, so what it votes with in memory is what it
saves.

Each input rule has one owner: :class:`EnsembleConfig` checks the config
values, :class:`projections.Projection` each block's flavor, matrix
(real, 2-d, finite) and stream, :class:`Block` its candidate and
training error, and :class:`EnsembleModel` only the rules that need the
model: ``alpha`` (in [0, 1], or the "always class 0" threshold
``(b1 + 1/2) / b1`` that :func:`select_alpha` may pick) and ``d <= p``
first, then, in one pass over the blocks, each projection matrix
``(d, p)``, each pair of covariances ``(d, d)`` and each candidate below
``b2`` as it takes the block, and the block count last, whether the
object is fitted, built by hand or loaded. The data are checked by
:func:`marginals.fit_transform`. :func:`train_ensemble` checks the labels
and that X has one row per label once per fit; its refits call
:mod:`qda`'s unchecked core on that one class split, and it warns once
per fit, not once per candidate, about each class too small for a
full-rank covariance. :func:`select_alpha`, public on its own, checks
its votes and labels again.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import marginals, projections, qda
from .errors import SingularMatrixError, TrainingError, checked_int, checked_number, freeze, real_array
# substream goes unused here; bench/workloads.py traces the rng layer as ensemble.substream
from .rng import _keyed_streams, substream


@dataclass(frozen=True)
class EnsembleConfig:
    """Free parameters of the ensemble, each checked at construction.

    Integers ``d``, ``b1``, ``b2`` >= 1 and ``seed`` >= 0 (numpy's become
    int; bool is rejected). ``ridge``: None (automatic per fit) or finite
    >= 0. ``alpha``: None (selected on the training sample) or in [0, 1].
    """

    d: int
    b1: int
    b2: int
    flavor: str = "haar"
    ridge: float | None = None
    alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("d", 1), ("b1", 1), ("b2", 1), ("seed", 0)):
            freeze(self, **{name: checked_int(getattr(self, name), name, minimum)})
        projections._check_flavor(self.flavor)
        for name, high in (("ridge", math.inf), ("alpha", 1.0)):
            if getattr(self, name) is not None:
                freeze(self, **{name: checked_number(getattr(self, name), name, 0.0, high)})


@dataclass(frozen=True, eq=False)
class Block:
    """One selected (projection, discriminant) pair and its training error.

    Construction checks ``candidate`` (an integer >= 0, stored as int)
    and ``train_error`` (in [0, 1], stored as float).
    """

    projection: projections.Projection
    model: qda.RqdaModel
    train_error: float
    candidate: int

    def __post_init__(self):
        train_error = checked_number(self.train_error, "train_error", 0.0, 1.0)
        freeze(self, candidate=checked_int(self.candidate, "candidate", 0), train_error=float(train_error))


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """A fitted ensemble.

    Construction checks ``alpha`` (in [0, 1], or exactly
    :func:`select_alpha`'s top threshold ``(b1 + 1/2) / b1``, the
    constant class-0 rule) and ``d <= n_features``. ``blocks`` may be any
    iterable, taken once: as it takes each block, construction checks
    only what needs the model, a ``(d, n_features)`` matrix, ``(d, d)``
    covariances and a candidate below ``b2``, each error prefixed
    ``block k: ``, so a loader that builds blocks lazily reports its first
    bad block. The :class:`projections.Projection`,
    :class:`qda.RqdaModel` and :class:`Block` check their own fields.
    The count of ``b1`` blocks is checked last. It then derives the
    arrays :func:`_vote_counts` scores with (never persisted; no other
    code builds them): ``stacked_projection`` (p, b1*d), whose column
    block k is block k's ``A'``, ``stacked_D`` (b1, d, d) and
    ``stacked_const`` (b1,), the :class:`qda.RqdaModel` terms.
    ``blocks`` is stored as a tuple, and every array the model holds is
    read-only, so what it votes with is what it saves.
    Immutable and safe for concurrent reads.
    """

    marginal_model: marginals.MarginalModel
    blocks: tuple[Block, ...]
    alpha: float
    config: EnsembleConfig
    stacked_projection: np.ndarray = field(init=False, repr=False)
    stacked_D: np.ndarray = field(init=False, repr=False)
    stacked_const: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        top = float(_alpha_thresholds(self.config.b1)[-1])
        alpha = top if self.alpha == top else checked_number(self.alpha, "alpha", 0.0, 1.0)
        d, p = self.config.d, self.n_features
        if d > p:
            raise ValueError(f"model needs d <= n_features, got d={d}, n_features={p}")
        blocks = []
        for k, block in enumerate(self.blocks):  # one pass, so a lazy loader's first bad block is named
            shape = block.projection.matrix.shape
            if shape != (d, p):
                raise ValueError(f"block {k}: matrix has shape {shape}, expected {(d, p)}")
            if block.model.dim != d:
                raise ValueError(f"block {k}: covariances have shape {block.model.cov0.shape}, expected {(d, d)}")
            if block.candidate >= self.config.b2:
                raise ValueError(f"block {k}: candidate must be < b2={self.config.b2}, got {block.candidate}")
            blocks.append(block)
        if len(blocks) != self.config.b1:
            raise ValueError(f"model has {len(blocks)} blocks, expected b1={self.config.b1}")
        freeze(self, blocks=tuple(blocks), alpha=alpha,
               stacked_projection=np.vstack([block.projection.matrix for block in blocks]).T,
               stacked_D=np.stack([block.model.D for block in blocks]),
               stacked_const=np.array([block.model.const for block in blocks]))

    @property
    def n_features(self) -> int:
        return self.marginal_model.n_features

    @property
    def b1(self) -> int:
        return len(self.blocks)


def _vote_counts(model: EnsembleModel, scores: np.ndarray) -> np.ndarray:
    """Number of ``model``'s blocks voting class 1 for each row of probit ``scores``.

    It reads the model's stacked arrays. Per chunk of rows
    (:func:`qda._chunk_rows`), one matmul puts the chunk in every stacked
    space and one :func:`qda.stacked_discriminant` call scores it, so no
    (n, b1, d) array is built.
    """
    projection, D, const = model.stacked_projection, model.stacked_D, model.stacked_const
    b, d = D.shape[:2]
    step = qda._chunk_rows(b * d)
    counts = np.empty(scores.shape[0], dtype=int)
    for start in range(0, scores.shape[0], step):
        rows = slice(start, start + step)
        Z = (scores[rows] @ projection).reshape(-1, b, d)
        counts[rows] = (qda.stacked_discriminant(Z, D, const) >= 0.0).sum(axis=1)
    return counts


def training_error(model: qda.RqdaModel, Z, labels) -> float:
    """Fraction of rows misclassified by the discriminant's sign (>= 0 is class 1)."""
    return float(np.mean((qda.discriminant(Z, model) >= 0.0) != labels))


def _alpha_thresholds(b1: int) -> np.ndarray:
    """Candidate alphas: 0, then ``(k + 1/2) / b1`` for k = 0..b1 (the last one exceeds 1)."""
    return np.concatenate(([0.0], (np.arange(b1 + 1) + 0.5) / b1))


def select_alpha(votes, labels, b1: int) -> float:
    """Vote threshold minimizing the empirical error of ``vote >= alpha``.

    Candidates are 0 plus the midpoints ``(k + 1/2) / b1`` for
    k = 0..b1, i.e. one threshold between every pair of achievable vote
    levels plus the two constant classifiers; midpoints keep the decision
    stable under float noise in the votes. Ties pick the smallest alpha.
    The errors at all thresholds come from one sort of each class's votes.
    """
    votes = real_array(votes, "votes must be real, not complex")
    rows = qda._class_rows(labels)
    if votes.shape != (rows[0].size + rows[1].size,):
        raise ValueError(
            f"votes and labels disagree: {votes.shape} vs {np.shape(labels)}"
        )
    if not ((votes >= 0.0) & (votes <= 1.0)).all():
        raise ValueError("votes must be finite and lie in [0, 1]")
    thresholds = _alpha_thresholds(checked_int(b1, "b1", 1))
    below = [np.searchsorted(np.sort(votes[r]), thresholds, side="left") for r in rows]
    # class-0 votes at or above a threshold and class-1 votes below it are errors
    errors = rows[0].size - below[0] + below[1]
    return float(thresholds[np.argmin(errors)])


def train_ensemble(X, labels, config: EnsembleConfig) -> EnsembleModel:
    """Fit the full pipeline: marginals once, then b1 selected blocks.

    Each of the b1 x b2 candidates draws its projection from the
    substream keyed by (seed, block, candidate), a generator of its own
    seeded from one vectorized pass over every key of the fit; a
    candidate whose covariance is singular at the configured ridge is
    discarded. Each
    block keeps the candidate with the lowest training error, the lowest
    index on ties. A block where every candidate fails aborts training (a
    silently smaller ensemble would corrupt the vote fractions). Once
    every block is fitted, warns for each class with fewer than d+1 rows.

    A block bounds all its candidates' errors from below in one batch
    (:func:`qda._lower_bounds`), then makes one pass over the candidates in
    ascending bound order (lowest index first on equal bounds): each is
    refitted exactly, with :func:`qda._fit` and :func:`training_error`,
    until the next bound exceeds the best exact error so far; a singular
    refit is skipped. A candidate left out has an exact error at least
    its bound, above the best one, so it could neither win nor tie: the
    block keeps the candidate a per-candidate fit would keep, with the
    same stored numbers. If some covariance of the batch has no factor or
    some candidate's batched terms are not finite at either precision of
    the count, every bound is -inf and the pass refits the whole block.

    Unless the config fixes ``alpha``, the model is built once with a
    provisional ``alpha`` of 0, :func:`select_alpha` picks it on the
    returned model's own training votes, and ``dataclasses.replace``
    sets it.
    """
    labels = np.asarray(labels)
    rows = qda._class_rows(labels)
    priors = qda._priors(rows)  # fails fast on one class or one row
    marginal_model, scores = marginals.fit_transform(X)
    if scores.shape[0] != labels.size:  # still before any candidate fit
        raise ValueError(f"X has {scores.shape[0]} rows but there are {labels.size} labels")
    p = marginal_model.n_features
    classes = qda._bound_rows(scores, rows)

    blocks: list[Block] = []
    for b, streams in enumerate(_keyed_streams(config.seed, config.b1, config.b2)):
        matrices = projections._sample_matrices(p, config.d, config.flavor, streams)
        try:
            lower = qda._lower_bounds(matrices, classes, priors, config.ridge)
        except np.linalg.LinAlgError:
            lower = np.full(config.b2, -np.inf)
        best = None
        for c in np.argsort(lower, kind="stable").tolist():
            if best is not None and lower[c] > best.train_error:
                break  # this and every later candidate errs more than the best
            proj = projections.Projection(matrix=matrices[c], flavor=config.flavor, stream=(b, c))
            Z = projections.project(proj, scores)
            try:
                model = qda._fit(Z, rows, priors, config.ridge)
            except SingularMatrixError:
                continue
            err = training_error(model, Z, labels)
            if best is None or (err, c) < (best.train_error, best.candidate):
                best = Block(projection=proj, model=model, train_error=err, candidate=c)
        if best is None:
            raise TrainingError(
                f"block {b}: all {config.b2} candidate projections failed to fit "
                "(singular covariances); increase the ridge"
            )
        blocks.append(best)
    qda._warn_small_classes(rows, config.d)  # after every check that can reject the fit

    model = EnsembleModel(marginal_model, blocks, 0.0 if config.alpha is None else float(config.alpha), config)
    if config.alpha is None:
        model = replace(model, alpha=select_alpha(_vote_counts(model, scores) / config.b1, labels, config.b1))
    return model


def vote_fractions(model: EnsembleModel, X) -> np.ndarray:
    """Fraction of blocks voting class 1 for each row of X.

    Every value is an exact integer multiple of 1/b1.
    """
    scores = marginals.transform_new(model.marginal_model, np.atleast_2d(np.asarray(X)))
    return _vote_counts(model, scores) / model.b1


def vote_fraction(model: EnsembleModel, x) -> float:
    """Vote fraction for a single p-vector."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d feature vector, got shape {x.shape}")
    return float(vote_fractions(model, x[None, :])[0])


def predict(model: EnsembleModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels and vote fractions for each row of X.

    A row is class 1 iff its vote fraction is >= alpha (ties included).
    """
    votes = vote_fractions(model, X)
    return (votes >= model.alpha).astype(int), votes


def classify(model: EnsembleModel, x) -> int:
    """Ensemble decision for a single p-vector."""
    return int(vote_fraction(model, x) >= model.alpha)

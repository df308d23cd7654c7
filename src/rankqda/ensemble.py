"""Random-projection ensemble around the single-projection classifier.

Training runs ``b1`` blocks; each block draws ``b2`` candidate
projections, each from its own substream, and keeps the candidate whose
quadratic discriminant has the lowest training error (ties go to the
lowest candidate index). Prediction averages the selected blocks' hard
votes into a fraction ``nu`` and thresholds it at ``alpha`` (``nu >=
alpha`` means class 1). The whole pipeline is a pure function of (data,
config): substreams are keyed by (seed, block, candidate), so the fit is
reproducible regardless of execution order and could be parallelized
across the block/candidate grid without changing results. A fit builds
no generator per key: :func:`rng._keyed_states` computes the PCG64 state
of every key in one vectorized pass, and :func:`rng._keyed_streams` sets
a block's states in turn on one reused generator, so the draws are bit
for bit ``substream(seed, block, candidate)``'s. Each candidate draws its
projection once (a ``haar`` draw is never re-drawn), so no stream is
visited twice.

A block chooses its candidate in one batch, from moments transported
through the projections: each class's p x p second moment ``M_r`` of the
probit scores is formed once per fit, and :mod:`qda` turns them into
every candidate's covariances ``A M_r A'``, ridge and discriminant terms
by the same rules as an exact fit, with one stacked Cholesky factor
(this module does no covariance arithmetic). The training rows are
scored for all ``b2`` candidates at once, through the vote kernel's
chunk loop (:meth:`StackedBlocks.chunks`). Transported covariances round
differently from the ``Z_r'Z_r / n_r`` a model stores, so the batch only
bounds each candidate's error from below: it counts the misclassified
rows far enough from the boundary to trust their batched sign. One rule
then picks the candidate: refit exactly in ascending bound order and
stop at the first bound above the best exact error (about one refit per
block on the desk scenario). Every stored number, and so every model
file, comes from that exact refit, the same ``qda`` core and error as a
fit of each candidate on its own.

Prediction has one kernel, :func:`vote_fractions`. At construction a
model stacks its ``b1`` projections into one (p, b1*d) matrix and its
blocks' ``D = inv1 - inv0`` matrices and constants into arrays (never
persisted), so a fitted, hand-built and loaded model hold the same arrays.
Scoring then takes one marginal transform, and per chunk of rows one
matmul into every block's space plus one
:func:`qda.stacked_discriminant` call, with no loop over blocks.
Training counts the votes it selects ``alpha`` on with the same kernel,
so a training row gets the same vote at fit as at prediction. A model
stores its blocks as a tuple, and every array it holds (projection
matrices, covariances, the marginal table and the stacked arrays) is
read-only, so what it votes with in memory is what it saves.

Each input rule has one owner: :class:`EnsembleConfig` checks the config
values and :class:`EnsembleModel` ``d <= p``, its blocks (each projection
matrix finite and ``(d, p)``, each pair of covariances ``(d, d)``) and
``alpha`` (in [0, 1], or the "always class 0" threshold
``(b1 + 1/2) / b1`` that :func:`select_alpha` may pick), whether the
object is fitted, built by hand or loaded. The data are checked by
:func:`marginals.fit_transform`. :func:`train_ensemble` checks the labels
and that X has one row per label once per fit; its refits call
:mod:`qda`'s unchecked core on that one class split, and it warns once
per fit, not once per candidate, about each class too small for a
full-rank covariance.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import marginals, projections, qda
from .errors import SingularMatrixError, TrainingError, checked_int, checked_number, freeze, real_array
# substream goes unused here; bench/workloads.py traces the rng layer as ensemble.substream
from .rng import _keyed_states, _keyed_streams, substream


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
    """One selected (projection, discriminant) pair and its training error."""

    projection: projections.Projection
    model: qda.RqdaModel
    train_error: float
    candidate: int


# Rows per chunk keep the stacked (rows, b*d) buffers at
# about this many elements, so memory stays flat in the number of rows.
_CHUNK_ELEMENTS = 2**15


@dataclass(frozen=True, eq=False)
class StackedBlocks:
    """``b`` discriminants side by side, scored by one chunked loop.

    The ``b`` are an ensemble's blocks for the vote kernel, or one
    block's candidates for selection. ``projection`` is (p, b*d): column
    block k is discriminant k's ``A'``. ``D`` is (b, d, d) and ``const``
    is (b,), the :class:`qda.RqdaModel` terms.
    Each is held as a read-only float copy in the given memory layout;
    complex arrays are rejected rather than cast to their real part.
    """

    projection: np.ndarray
    D: np.ndarray
    const: np.ndarray

    def __post_init__(self):
        for name in ("projection", "D", "const"):
            message = f"stacked {name} must be real, not complex"
            freeze(self, **{name: real_array(getattr(self, name), message, copy=True)})

    @classmethod
    def from_blocks(cls, blocks: Sequence[Block]) -> "StackedBlocks":
        return cls(
            projection=np.vstack([block.projection.matrix for block in blocks]).T,
            D=np.stack([block.model.D for block in blocks]),
            const=np.array([block.model.const for block in blocks]),
        )

    @property
    def chunk_rows(self) -> int:
        return max(1, _CHUNK_ELEMENTS // self.projection.shape[1])

    def chunks(self, scores: np.ndarray):
        """Per chunk of rows of probit ``scores``: the row slice, ``Z`` and ``delta``.

        ``Z`` (rows, b, d) is the chunk in every stacked space and
        ``delta`` (rows, b) its discriminants: the one loop that scores
        rows through the stack, for votes and for candidate bounds alike.
        """
        b, d = self.D.shape[:2]
        step = self.chunk_rows
        for start in range(0, scores.shape[0], step):
            rows = slice(start, start + step)
            Z = (scores[rows] @ self.projection).reshape(-1, b, d)
            yield rows, Z, qda.stacked_discriminant(Z, self.D, self.const)

    def vote_counts(self, scores: np.ndarray) -> np.ndarray:
        """Number of blocks voting class 1 for each row of probit ``scores``."""
        counts = np.empty(scores.shape[0], dtype=int)
        for rows, _, delta in self.chunks(scores):
            counts[rows] = (delta >= 0.0).sum(axis=1)
        return counts


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """A fitted ensemble.

    Construction checks ``b1`` blocks, ``d <= n_features`` and ``alpha``:
    in [0, 1], or exactly :func:`select_alpha`'s top threshold
    ``(b1 + 1/2) / b1``, the constant class-0 rule. It owns each block's
    rules: a known flavor, a finite ``(d, n_features)`` matrix, ``(d, d)``
    covariances, a candidate in [0, b2), a stream of None or a tuple of
    integers >= 0 and a train_error in [0, 1]. It then derives
    ``stacked``, the blocks stacked for :func:`vote_fractions` (never
    persisted). ``blocks`` is stored as a tuple, and every array the
    model holds is read-only, so what it votes with is what it saves.
    Immutable and safe for concurrent reads.
    """

    marginal_model: marginals.MarginalModel
    blocks: tuple[Block, ...]
    alpha: float
    config: EnsembleConfig
    stacked: StackedBlocks = field(init=False, repr=False)

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) != self.config.b1:
            raise ValueError(f"model has {len(blocks)} blocks, expected b1={self.config.b1}")
        top = float(_alpha_thresholds(self.config.b1)[-1])
        alpha = top if self.alpha == top else checked_number(self.alpha, "alpha", 0.0, 1.0)
        d, p = self.config.d, self.n_features
        if d > p:
            raise ValueError(f"model needs d <= n_features, got d={d}, n_features={p}")
        shape = (d, p)
        for k, block in enumerate(blocks):
            flavor, stream = block.projection.flavor, block.projection.stream
            projections._check_flavor(flavor, f"block {k} flavor")
            matrix = block.projection.matrix
            if np.shape(matrix) != shape:
                raise ValueError(f"block {k} matrix has shape {np.shape(matrix)}, expected {shape}")
            if not np.isfinite(matrix).all():
                raise ValueError(f"block {k} matrix has a non-finite value")
            if block.model.dim != d:
                raise ValueError(
                    f"block {k} covariances have shape {block.model.cov0.shape}, expected {(d, d)}"
                )
            if checked_int(block.candidate, f"block {k} candidate", 0) >= self.config.b2:
                raise ValueError(f"block {k} candidate must be < b2={self.config.b2}, got {block.candidate}")
            if stream is not None and not isinstance(stream, tuple):
                raise ValueError(f"block {k} stream must be None or a tuple, got {stream!r}")
            for value in stream or ():
                checked_int(value, f"block {k} stream entry", 0)
            checked_number(block.train_error, f"block {k} train_error", 0.0, 1.0)
        freeze(self, blocks=blocks, alpha=alpha, stacked=StackedBlocks.from_blocks(blocks))

    @property
    def n_features(self) -> int:
        return self.marginal_model.n_features

    @property
    def b1(self) -> int:
        return len(self.blocks)


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


# A training row's batched discriminant ``delta`` is unsure of its sign
# when |delta| <= _UNSURE_MARGIN * (scale[0] + scale[1] * |z|^2), the
# bound :func:`qda._stacked_terms` gives on how far ``delta`` moves when
# each covariance moves by this fraction of its largest eigenvalue. On the
# desk and ``large`` fits the batched and exact ``delta`` differ by at
# most 2e-16 times that scale.
_UNSURE_MARGIN = 1e-10


def _lower_bounds(matrices, moments, scores, labels, priors, ridge) -> np.ndarray:
    """A lower bound on each candidate's exact training error.

    ``matrices`` is a block's (b2, d, p) candidate projections and
    ``moments`` the (2, p, p) class second moments of the probit
    ``scores``, from which :func:`qda._stacked_terms` gives every
    candidate's discriminant terms. A candidate's bound counts the rows
    whose batched discriminant misclassifies them and is sure of its
    sign. The rows are scored through :meth:`StackedBlocks.chunks`, so no
    (n, b2, d) array is built. Raises ``np.linalg.LinAlgError`` if any
    covariance has no Cholesky factor.
    """
    b2, d, p = matrices.shape
    D, const, scale = qda._stacked_terms(matrices, moments, priors, ridge)

    # column block c of the stacked map is candidate c's A'
    stacked = StackedBlocks(projection=matrices.transpose(2, 0, 1).reshape(p, b2 * d), D=D, const=const)
    wrong = np.zeros(b2, dtype=int)
    for rows, Z, delta in stacked.chunks(scores):
        tol = _UNSURE_MARGIN * (scale[0] + scale[1] * np.einsum("mkj,mkj->mk", Z, Z))
        sure = np.abs(delta) > tol  # a NaN delta is unsure
        wrong += (sure & ((delta >= 0.0) != labels[rows, None])).sum(axis=0)
    return wrong / scores.shape[0]


def train_ensemble(X, labels, config: EnsembleConfig) -> EnsembleModel:
    """Fit the full pipeline: marginals once, then b1 selected blocks.

    Each of the b1 x b2 candidates draws its projection from the
    substream keyed by (seed, block, candidate), whose state comes from
    one vectorized pass over every key of the fit and is set on one
    reused generator; a candidate whose covariance is singular at the
    configured ridge is discarded. Each
    block keeps the candidate with the lowest training error, the lowest
    index on ties. A block where every candidate fails aborts training (a
    silently smaller ensemble would corrupt the vote fractions). Once
    every block is fitted, warns for each class with fewer than d+1 rows.

    A block bounds all its candidates' errors from below in one batch
    (:func:`_lower_bounds`), then makes one pass over the candidates in
    ascending bound order (lowest index first on equal bounds): each is
    refitted exactly, with :func:`qda._fit` and :func:`training_error`,
    until the next bound exceeds the best exact error so far; a singular
    refit is skipped. A candidate left out has an exact error at least
    its bound, above the best one, so it could neither win nor tie: the
    block keeps the candidate a per-candidate fit would keep, with the
    same stored numbers. If some covariance of the batch has no factor,
    every bound is -inf and the pass refits the whole block.
    """
    labels = np.asarray(labels)
    rows = qda._class_rows(labels)
    priors = qda._priors(rows)  # fails fast on one class or one row
    marginal_model, scores = marginals.fit_transform(X)
    if scores.shape[0] != labels.size:  # still before any candidate fit
        raise ValueError(f"X has {scores.shape[0]} rows but there are {labels.size} labels")
    p = marginal_model.n_features
    moments = np.stack([qda._second_moment(scores[r], 0.0) for r in rows])

    states = _keyed_states(config.seed, config.b1, config.b2)
    generator = np.random.Generator(np.random.PCG64())
    blocks: list[Block] = []
    for b in range(config.b1):
        matrices = projections._sample_matrices(p, config.d, config.flavor, _keyed_streams(generator, states[b]))
        try:
            lower = _lower_bounds(matrices, moments, scores, labels, priors, config.ridge)
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

    if config.alpha is not None:
        alpha = float(config.alpha)
    else:
        votes = StackedBlocks.from_blocks(blocks).vote_counts(scores) / config.b1
        alpha = select_alpha(votes, labels, config.b1)

    return EnsembleModel(
        marginal_model=marginal_model, blocks=blocks, alpha=alpha, config=config
    )


def vote_fractions(model: EnsembleModel, X) -> np.ndarray:
    """Fraction of blocks voting class 1 for each row of X.

    Every value is an exact integer multiple of 1/b1.
    """
    scores = marginals.transform_new(model.marginal_model, np.atleast_2d(np.asarray(X)))
    return model.stacked.vote_counts(scores) / model.b1


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

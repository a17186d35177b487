"""Regularized negative log-likelihood training over span lattices.

value    = sum_i log Z_i - sum_i w.f(x_i, y_i) + lambda ||w||^2
grad_k   = sum_i (E[f_k] - f_k(x_i, y_i)) + 2 lambda w_k

The corpus is compiled once into fixed 64-sentence blocks. A factor score
decomposes as emission(span, y) + transition(y_prev, y), so each block
stores a sparse count matrix with one emission row per live (span, label)
pair, its gold counts, and one ScoredBlock whose flat DP layout is built
here once. One objective call costs, per block, a sparse matvec, one
span-proportional forward, backward and marginal pass over the whole block
(inference.py), and a gradient scatter. Blocks are reduced in block order,
so the result is bitwise identical for any worker count of the fork pool.
Decoding compiles its sentences into the same emission rows and blocks,
against the frozen feature index, and runs one Viterbi pass per block.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize
from scipy import sparse

from .corpus import EntitySpan, LabelSet, Sentence, SerializationError, iob_to_spans, spans_to_iob
from .features import BOS, FeatureIndex, _position_templates, _segment_templates, emission_features, transition_feature
from .inference import (
    IOB_SCHEME,
    ScoredBlock,
    Segmentation,
    allowed_mask,
    backward,
    forward,
    label_scheme,
    mode_labels,
    posteriors,
    viterbi,
)
from .lattice import Mode, SpanLattice, build_lattice

logger = logging.getLogger(__name__)

MODEL_VERSION = 1
_BLOCK_SIZE = 64


class TrainingError(RuntimeError):
    """Optimization failed (non-finite objective or similar)."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and cross-validation settings.

    l2 is the regularization coefficient used by fit(); lambda_grid is what
    cross_validate() searches. ftol is the relative objective-change stop,
    gtol the gradient infinity-norm stop.
    """

    l2: float = 0.1
    lambda_grid: tuple[float, ...] = (0.0001, 0.001, 0.01, 0.1, 1.0)
    folds: int = 10
    max_iter: int = 200
    ftol: float = 1e-6
    gtol: float = 1e-6
    workers: int = 1
    dep_features: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        if self.l2 < 0 or any(lam < 0 for lam in self.lambda_grid):
            raise ValueError("regularization must be non-negative")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.max_iter < 1 or self.workers < 1:
            raise ValueError("max_iter and workers must be positive")
        if self.ftol <= 0 or self.gtol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Model:
    """Frozen feature index, labels, and trained weights for one mode."""

    mode: Mode
    labels: tuple[str, ...]
    index: FeatureIndex
    weights: np.ndarray
    lam: float
    dep_features: bool = True

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.index):
            raise ValueError(f"{len(self.weights)} weights for {len(self.index)} features")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if label_scheme(self.mode) == IOB_SCHEME:
            types = [label[2:] for label in self.labels if label.startswith("B-")]
        else:
            types = self.labels[1:]
        if self.labels != mode_labels(LabelSet(types), self.mode):
            raise ValueError(f"labels {list(self.labels)} do not fit mode {self.mode.kind}")

    @property
    def max_len(self) -> int:
        return self.mode.max_len

    def save(self, path) -> None:
        doc = {
            "version": MODEL_VERSION,
            "mode": self.mode.kind,
            "L": self.mode.max_len,
            "lambda": self.lam,
            "dep_features": self.dep_features,
            "labels": list(self.labels),
            "features": list(self.index.strings()),
            "weights": [float(w) for w in self.weights],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path) -> "Model":
        """Read a saved model; any malformed file raises SerializationError."""
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise SerializationError(f"model file is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SerializationError("model file must hold a JSON object")
        if doc.get("version") != MODEL_VERSION:
            raise SerializationError(f"unsupported model version {doc.get('version')!r}")
        try:
            labels = tuple(doc["labels"])
            features = doc["features"]
            if not all(isinstance(item, str) for item in (*labels, *features)):
                raise TypeError("labels and features must be strings")
            if len(set(features)) != len(features):
                raise ValueError("repeated feature strings")
            index = FeatureIndex()
            for f in features:
                index.intern(f)
            index.freeze()
            return cls(
                mode=Mode(doc["mode"], doc["L"]),
                labels=labels,
                index=index,
                weights=np.asarray(doc["weights"], dtype=np.float64),
                lam=float(doc["lambda"]),
                dep_features=bool(doc["dep_features"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed model file: {exc}") from exc


def _emission_templates(sentence: Sentence, span: tuple[int, int], scheme: str, dep: bool) -> list[str]:
    if scheme == IOB_SCHEME:
        return _position_templates(sentence, span[0], dep)
    return _segment_templates(sentence, span, dep)


def _iob_gold(sentence: Sentence) -> Segmentation:
    tags = spans_to_iob(sentence.gold, sentence.n)
    return Segmentation(tuple(((i, i), tags[i - 1]) for i in range(1, sentence.n + 1)))


def _segment_gold(sentence: Sentence, lattice: SpanLattice, split: bool, name: str = "?") -> tuple[Segmentation, int]:
    segments: list[tuple[tuple[int, int], str]] = []
    splits = 0
    pos = 1
    for span in sentence.gold:
        while pos < span.start:
            segments.append(((pos, pos), "O"))
            pos += 1
        if (span.start, span.end) in lattice.allowed:
            segments.append(((span.start, span.end), span.etype))
        elif split:
            splits += 1
            segments.extend(((i, i), span.etype) for i in range(span.start, span.end + 1))
        else:
            raise ValueError(f"sentence {name}: gold span ({span.start},{span.end}) not in lattice")
        pos = span.end + 1
    while pos <= sentence.n:
        segments.append(((pos, pos), "O"))
        pos += 1
    return Segmentation(tuple(segments)), splits


def project_gold(sentence: Sentence, lattice: SpanLattice) -> tuple[Segmentation, int]:
    """Gold as a lattice segmentation, splitting unrepresentable entities.

    An entity whose span is not in the lattice becomes single-token spans
    that all carry its type; uncovered positions become O singletons.
    Returns the segmentation and the number of entities split.
    """
    return _segment_gold(sentence, lattice, split=True)


class _EmissionRows:
    """Sparse emission rows of one block, under construction.

    Every live (span, label) pair of the block gets one row, in span order
    and then label order: the counts of the span's templates conjoined with
    the label. feature_id maps a feature string to its id or None; training
    passes FeatureIndex.intern, decoding the frozen index's lookup.
    """

    def __init__(self, labels: tuple[str, ...], scheme: str, dep: bool, feature_id) -> None:
        self.labels = labels
        self.scheme = scheme
        self.dep = dep
        self.feature_id = feature_id
        self.lattices: list[SpanLattice] = []
        self.masks: list[np.ndarray] = []
        self.indptr = [0]
        self.indices: list[int] = []
        self.data: list[float] = []

    def add(self, sentence: Sentence, lattice: SpanLattice, mask: np.ndarray) -> None:
        feature_id, indptr, indices, data = self.feature_id, self.indptr, self.indices, self.data
        self.lattices.append(lattice)
        self.masks.append(mask)
        for span, live_y in zip(lattice.sorted_spans(), mask.any(axis=1).tolist()):
            base = Counter(_emission_templates(sentence, span, self.scheme, self.dep))
            counts = [float(c) for c in base.values()]
            for label, live in zip(self.labels, live_y):
                if not live:
                    continue
                for fid, c in zip(map(feature_id, emission_features(base, label)), counts):
                    if fid is not None:
                        indices.append(fid)
                        data.append(c)
                indptr.append(len(indices))

    def finish(self, num_features: int, gold: Counter) -> _Block:
        arrays = (np.asarray(self.data), np.asarray(self.indices, np.int32), np.asarray(self.indptr, np.int64))
        emit = sparse.csr_matrix(arrays, shape=(len(self.indptr) - 1, num_features))
        mask = np.concatenate(self.masks)
        scored = ScoredBlock(tuple(self.lattices), self.labels, np.zeros(mask.shape))
        gold_ids = np.fromiter(gold.keys(), dtype=np.int64, count=len(gold))
        gold_cnts = np.fromiter(gold.values(), dtype=np.float64, count=len(gold))
        return _Block(scored, ~mask, mask.any(axis=1), emit, gold_ids, gold_cnts)


@dataclass
class _Block:
    scored: ScoredBlock  # the block's lattices and its one factor table
    forbidden: np.ndarray  # (S, K+1, K) bool, True where the labeling rule forbids the factor
    live: np.ndarray  # (S, K) bool; the emission rows are its True cells in row-major order
    emit: sparse.csr_matrix  # (rows, D) feature counts per emission row
    gold_ids: np.ndarray
    gold_cnts: np.ndarray


@dataclass
class _Compiled:
    blocks: list[_Block]
    trans_ids: np.ndarray  # (K+1, K) int64 feature id of each transition, -1 absent
    labels: tuple[str, ...]
    num_features: int
    splits: int


def _transition_ids(index: FeatureIndex, labels: tuple[str, ...]) -> np.ndarray:
    """(K+1, K) feature id of each transition (previous label K is BOS), -1 where absent."""
    prev_names = labels + (BOS,)
    trans_ids = np.full((len(labels) + 1, len(labels)), -1, dtype=np.int64)
    for p, y in np.ndindex(trans_ids.shape):
        fid = index.lookup(transition_feature(prev_names[p], labels[y]))
        if fid is not None:
            trans_ids[p, y] = fid
    return trans_ids


def _gold_counts(sentence: Sentence, seg: Segmentation, scheme: str, index: FeatureIndex, dep: bool) -> Counter:
    counts: Counter = Counter()
    y_prev = BOS
    for span, label in seg:
        base = Counter(_emission_templates(sentence, span, scheme, dep))
        for fid, c in zip(map(index.intern, emission_features(base, label)), base.values()):
            if fid is not None:
                counts[fid] += c
        tid = index.intern(transition_feature(y_prev, label))
        if tid is not None:
            counts[tid] += 1
        y_prev = label
    return counts


def _compile(
    corpus: list[Sentence],
    mode: Mode,
    labels: tuple[str, ...],
    index: FeatureIndex,
    dep: bool,
    project: bool,
) -> _Compiled:
    scheme = label_scheme(mode)
    K = len(labels)
    prev_names = labels + (BOS,)
    pair_seen = np.zeros((K + 1, K), dtype=bool)
    splits_total = 0
    raw_blocks = []
    for block_start in range(0, len(corpus), _BLOCK_SIZE):
        chunk = corpus[block_start : block_start + _BLOCK_SIZE]
        rows = _EmissionRows(labels, scheme, dep, index.intern)
        gold: Counter = Counter()
        for offset, sentence in enumerate(chunk):
            lat = build_lattice(sentence, mode)
            mask = allowed_mask(lat, labels, scheme)
            for p, y in np.argwhere(mask.any(axis=0) & ~pair_seen):
                pair_seen[p, y] = True
                index.intern(transition_feature(prev_names[p], labels[y]))
            rows.add(sentence, lat, mask)
            if scheme == IOB_SCHEME:
                seg = _iob_gold(sentence)
            elif project:
                seg, nsplit = project_gold(sentence, lat)
                splits_total += nsplit
            else:
                seg, _ = _segment_gold(sentence, lat, split=False, name=str(block_start + offset + 1))
            gold.update(_gold_counts(sentence, seg, scheme, index, dep))
        raw_blocks.append((rows, gold))
    num_features = len(index)
    blocks = [rows.finish(num_features, gold) for rows, gold in raw_blocks]
    return _Compiled(blocks, _transition_ids(index, labels), labels, num_features, splits_total)


def _transition_weights(w: np.ndarray, trans_ids: np.ndarray) -> np.ndarray:
    tw = np.zeros(trans_ids.shape)
    tw[trans_ids >= 0] = w[trans_ids[trans_ids >= 0]]
    return tw


def _fill_scores(block: _Block, emissions: np.ndarray, tw: np.ndarray) -> None:
    """Factor table: emission(span, y) + transition(y_prev, y), -inf where the mask forbids."""
    e_sy = np.zeros(block.live.shape)
    e_sy[block.live] = emissions
    np.add(e_sy[:, None, :], tw[None, :, :], out=block.scored.scores)
    block.scored.scores[block.forbidden] = -np.inf


def _eval_block(block: _Block, w: np.ndarray, tw: np.ndarray, trans_ids: np.ndarray) -> tuple[float, np.ndarray]:
    _fill_scores(block, block.emit @ w, tw)
    scored = block.scored
    logz, m = posteriors(scored, forward(scored), backward(scored))
    grad = block.emit.T @ m.sum(axis=1)[block.live]
    sel = trans_ids >= 0
    grad[trans_ids[sel]] += m.sum(axis=0)[sel]
    grad[block.gold_ids] -= block.gold_cnts
    # a sequential sum over sentences; np.sum would add pairwise and round differently
    value = np.cumsum(logz)[-1] - float(w[block.gold_ids] @ block.gold_cnts)
    return value, grad


_FORK_STATE: _Compiled | None = None


def _worker_eval(args) -> tuple[float, np.ndarray]:
    bidx, w, tw = args
    return _eval_block(_FORK_STATE.blocks[bidx], w, tw, _FORK_STATE.trans_ids)


class Objective:
    """Callable (value, gradient) of the regularized objective at w.

    With workers > 1, blocks are farmed out to a fork pool; partial results
    are reduced in block order either way, so the value and gradient do not
    depend on the worker count.
    """

    def __init__(self, compiled: _Compiled, l2: float, workers: int = 1):
        self.compiled = compiled
        self.l2 = float(l2)
        self.evals = 0
        self.last_value: float | None = None
        self._pool = None
        if workers > 1:
            global _FORK_STATE
            _FORK_STATE = compiled
            self._pool = multiprocessing.get_context("fork").Pool(workers)

    def __call__(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        w = np.asarray(w, dtype=np.float64)
        if not np.isfinite(w).all():
            raise TrainingError("non-finite weights")
        tw = _transition_weights(w, self.compiled.trans_ids)
        if self._pool is not None:
            parts = self._pool.map(_worker_eval, [(b, w, tw) for b in range(len(self.compiled.blocks))])
        else:
            parts = [_eval_block(block, w, tw, self.compiled.trans_ids) for block in self.compiled.blocks]
        value = 0.0
        grad = np.zeros(self.compiled.num_features)
        for v, g in parts:
            value += v
            grad += g
        value += self.l2 * float(w @ w)
        grad += 2.0 * self.l2 * w
        if not np.isfinite(value):
            raise TrainingError("non-finite objective value")
        self.evals += 1
        self.last_value = value
        return value, grad

    def close(self) -> None:
        global _FORK_STATE
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = _FORK_STATE = None


def objective_and_gradient(model: Model, corpus: list[Sentence]) -> tuple[float, np.ndarray]:
    """Objective value and gradient at the model's weights.

    Every gold entity span must be present in its sentence's lattice;
    otherwise a ValueError names the sentence and span.
    """
    if not corpus:
        raise ValueError("empty corpus")
    compiled = _compile(corpus, model.mode, model.labels, model.index, model.dep_features, project=False)
    return Objective(compiled, model.lam)(model.weights)


def _prepare(corpus: list[Sentence], mode: Mode, dep: bool) -> tuple[FeatureIndex, _Compiled]:
    """Labels, a fresh feature index and the compiled corpus; the index is frozen on return."""
    if not corpus:
        raise ValueError("empty corpus")
    labels = mode_labels(LabelSet.from_corpus(corpus), mode)
    index = FeatureIndex()
    compiled = _compile(corpus, mode, labels, index, dep, project=True)
    index.freeze()
    if compiled.splits:
        logger.info("gold projection split %d entities into singletons", compiled.splits)
    return index, compiled


def fit(corpus: list[Sentence], config: TrainConfig, mode: Mode, on_iteration=None) -> Model:
    """Train by L-BFGS (history 10) from w = 0.

    Unrepresentable gold entities are first split into typed singletons.
    on_iteration(k, value), if given, is called after each accepted step.
    If the optimizer stops without converging (for example at max_iter),
    a warning carries its message and the model is still returned.
    """
    index, compiled = _prepare(corpus, mode, config.dep_features)
    objective = Objective(compiled, config.l2, config.workers)
    iteration = 0

    def callback(_xk) -> None:
        nonlocal iteration
        iteration += 1
        if on_iteration is not None:
            on_iteration(iteration, objective.last_value)

    try:
        result = scipy.optimize.minimize(
            objective,
            np.zeros(compiled.num_features),
            jac=True,
            method="L-BFGS-B",
            callback=callback,
            options={"maxiter": config.max_iter, "maxcor": 10, "ftol": config.ftol, "gtol": config.gtol},
        )
    finally:
        objective.close()
    if result.success:
        logger.debug("optimizer converged after %d iterations: %s", result.nit, result.message)
    else:
        logger.warning("optimizer did not converge after %d iterations: %s", result.nit, result.message)
    return Model(
        mode=mode,
        labels=compiled.labels,
        index=index,
        weights=np.asarray(result.x, dtype=np.float64),
        lam=config.l2,
        dep_features=config.dep_features,
    )


def _segmentation_entities(seg: Segmentation, scheme: str) -> tuple[EntitySpan, ...]:
    if scheme == IOB_SCHEME:
        return iob_to_spans(seg.labels())[0]
    return tuple(EntitySpan(u, v, label) for (u, v), label in seg if label != "O")


def decode(model: Model, sentence: Sentence) -> tuple[EntitySpan, ...]:
    """Viterbi entity spans for one sentence."""
    return decode_corpus(model, [sentence])[0]


def decode_corpus(model: Model, corpus: list[Sentence]) -> list[tuple[EntitySpan, ...]]:
    """Viterbi entity spans for every sentence.

    Sentences are compiled block by block into the emission rows training
    uses, against the frozen index, so templates first seen here score 0.
    The spans do not depend on how the corpus is split into calls.
    """
    scheme = label_scheme(model.mode)
    tw = _transition_weights(model.weights, _transition_ids(model.index, model.labels))
    out = []
    for block_start in range(0, len(corpus), _BLOCK_SIZE):
        rows = _EmissionRows(model.labels, scheme, model.dep_features, model.index.lookup)
        for sentence in corpus[block_start : block_start + _BLOCK_SIZE]:
            lat = build_lattice(sentence, model.mode)
            rows.add(sentence, lat, allowed_mask(lat, model.labels, scheme))
        block = rows.finish(len(model.weights), Counter())
        _fill_scores(block, block.emit @ model.weights, tw)
        out.extend(_segmentation_entities(seg, scheme) for seg, _ in viterbi(block.scored))
    return out


def cross_validate(corpus: list[Sentence], config: TrainConfig, mode: Mode) -> tuple[float, dict[float, float]]:
    """Pick the regularizer by k-fold span F1; ties go to the smaller value.

    Folds are contiguous chunks of a seeded shuffle, identical across
    candidate values.
    """
    from .evaluation import score

    if not config.lambda_grid:
        raise ValueError("empty lambda grid")
    if config.folds > len(corpus):
        raise ValueError(f"{config.folds} folds for {len(corpus)} sentences")
    rng = np.random.default_rng(config.seed)
    folds = np.array_split(rng.permutation(len(corpus)), config.folds)
    means: dict[float, float] = {}
    for lam in config.lambda_grid:
        cfg = replace(config, l2=lam)
        fold_f1 = []
        for k in range(config.folds):
            held = folds[k]
            train = [corpus[i] for j, fold in enumerate(folds) if j != k for i in fold]
            model = fit(train, cfg, mode)
            preds = decode_corpus(model, [corpus[i] for i in held])
            fold_f1.append(score([corpus[i].gold for i in held], preds).f1)
        means[float(lam)] = float(np.mean(fold_f1))
        logger.info("lambda %g: mean F1 %.2f", lam, means[float(lam)])
    best_f1 = max(means.values())
    best = min(lam for lam, f1 in means.items() if f1 == best_f1)
    return best, means


def bench_per_iteration(
    corpus: list[Sentence],
    mode: Mode,
    config: TrainConfig | None = None,
    iters: int = 5,
    warmup: int = 1,
) -> tuple[float, float]:
    """Mean and stddev of one objective+gradient evaluation's wall time.

    The set-up fit() runs (labels, feature index, compile) happens once up
    front and is excluded; the timed unit is what one optimizer iteration
    repeats. Warmup evaluations run first and are not counted.
    """
    if iters < 1:
        raise ValueError("need at least one timed iteration")
    config = config or TrainConfig()
    _, compiled = _prepare(corpus, mode, config.dep_features)
    objective = Objective(compiled, config.l2)
    w = np.zeros(compiled.num_features)
    for _ in range(max(0, warmup)):
        objective(w)
    times = []
    for _ in range(iters):
        start = time.perf_counter()
        objective(w)
        times.append(time.perf_counter() - start)
    return float(np.mean(times)), float(np.std(times))

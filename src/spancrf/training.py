"""Regularized negative log-likelihood training over span lattices.

value    = sum_i log Z_i - sum_i w.f(x_i, y_i) + lambda ||w||^2
grad_k   = sum_i (E[f_k] - f_k(x_i, y_i)) + 2 lambda w_k

A factor score decomposes as emission(span, y) + transition(y_prev, y).
All parameters live in one matrix W of shape (T+K+1, K): row t < T holds
the weight of template t for each label, row T+p the weight of the
transition from previous label p (p = K is the begin sentinel). The
optimizer sees W.ravel().

The corpus is compiled once into blocks of up to 512 sentences. Each block
stores its span-by-template count matrix X as two sparse 0/1 operators,
X = members @ units (features.py defines the units), the labeling rule as
an (S, K) span-label mask and a (K+1, K) label-pair mask, and the block's
Layout, its flat DP rows, built here once; the gold counts of the whole
corpus are one constant (T+K+1, K) matrix, built from the gold (span,
label) cells and (previous label, label) pairs. One objective call costs,
per block, the emission factor members @ (units @ W[:T]) and the masked
W[T:] for the transition factor, which _fill_scores returns with the
Layout as a fresh ScoredBlock, one span-proportional forward and backward
pass over the whole block (inference.py), and the expected counts
units.T @ (members.T @ m.sum(axis=1)) stacked over m.sum(axis=0), both
sums taken straight from the passes without the (S, K+1, K) marginals m.
The products cost the operators' entries, which grow with the spans, not
with their total length, and write into a (units, K) buffer kept on the
block and into the gradient. Blocks are reduced in block order.

_block builds a block in one step: its spans by one lattice.block_spans
call, its Layout, the one span-to-row map, then from the layout's span
arrays the (S, K) mask in one allowed_mask call and the operators by one
features.block_rows call over the whole block. Training interns the
templates into a growing dict of template ids, so each block's units has
as many columns as there were templates after that block and an early
block is narrower than W[:T]; templates interned later have larger ids,
so units @ W[:units.shape[1]] is exact. A model keeps its templates as a tuple in id order. Decoding
builds its blocks the same way against the model's vocabulary, the tables
block_rows gathers ids from, built once per model on first use (an unseen
template is left out), and runs one Viterbi pass per block, which builds
the layout's padded view of its forward steps, not the backward steps.

_gold projects a block's gold onto its lattices: each token carries the
label of the entity covering it (B-X or I-X in the iob scheme), or O. In
the segment scheme an entity whose span layout.find locates is one
segment, and every other token a segment of its own, so an entity outside
its lattice becomes singletons of its type: fit counts it as split, and
objective_and_gradient raises instead. layout.rows gives the segments'
rows; the label before a sentence's first segment is K.

fit is a compile (_prepare), whose summary it logs, then a solve (_solve)
by _lbfgs (L-BFGS-B's steps, by the two-loop recursion), and can hand the
summary and each accepted step to a trace callback; `spancrf train
--trace` writes them as JSON lines.
"""

from __future__ import annotations

import base64
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.optimize
from scipy import sparse
from scipy.optimize._dcsrch import DCSRCH
from scipy.sparse import _sparsetools

from .corpus import EntitySpan, LabelSet, Sentence, SerializationError, iob_to_spans
from .features import Vocabulary, block_rows
from .inference import (
    IOB_SCHEME,
    Layout,
    ScoredBlock,
    Segmentation,
    allowed_mask,
    backward,
    forward,
    label_scheme,
    mode_labels,
    pair_mask,
    posteriors,
    viterbi,
)
# build_lattice stays bound here for perfbench/spantrace.py, which wraps it by name
from .lattice import Mode, block_spans, build_lattice

logger = logging.getLogger(__name__)

MODEL_VERSION = 3
# Sentences per block, for training and decoding alike. Each block runs one
# DP step per sentence position, so larger blocks make fewer numpy calls; the
# bound keeps the (rows, K+1, K) temporary of posteriors and the blocks of a
# long predict input small.
_BLOCK_SIZE = 512


class TrainingError(RuntimeError):
    """Optimization failed (non-finite objective or similar)."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and cross-validation settings.

    l2 is the regularization coefficient used by fit(); lambda_grid is what
    cross_validate() searches. ftol is the relative objective-change stop,
    gtol the gradient infinity-norm stop. workers accepts only 1: every
    objective evaluation runs in the calling process; the field stays so
    that callers that pass workers=1 keep working.
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
        # written so that NaN fails every comparison
        if not all(0 <= lam < math.inf for lam in (self.l2, *self.lambda_grid)):
            raise ValueError("regularization must be finite and non-negative")
        for name in ("folds", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.workers != 1:
            raise ValueError(f"workers must be 1, got {self.workers!r}")
        if not all(0 < tol < math.inf for tol in (self.ftol, self.gtol)):
            raise ValueError("tolerances must be finite and positive")


@dataclass
class Model:
    """Template strings, labels, and trained weights for one mode.

    index holds the T template strings in id order, no string twice, and
    weights is the (T+K+1, K) matrix W of the module doc, for K labels;
    vocabulary is index's decode tables (features.Vocabulary), built on
    first use and kept until index is assigned again. converged and
    optimizer_message are the optimizer's verdict and message from the fit
    that made the model (None if not fit).
    save writes one JSON object (format version 3) whose weights are W's
    bytes as little-endian float64 in row-major order, base64-encoded, so
    W round-trips bitwise; load reads version 3 only.
    """

    mode: Mode
    labels: tuple[str, ...]
    index: tuple[str, ...] = field(repr=False)  # thousands of strings, kept out of repr
    weights: np.ndarray
    lam: float
    dep_features: bool = True
    converged: bool | None = None
    optimizer_message: str | None = None

    def __post_init__(self) -> None:
        K = len(self.labels)
        if len(set(self.index)) != len(self.index):
            raise ValueError("repeated template strings")
        if self.weights.shape != (len(self.index) + K + 1, K):
            raise ValueError(f"weights of shape {self.weights.shape} for {len(self.index)} templates and {K} labels")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and non-negative, got {self.lam!r}")
        if not isinstance(self.dep_features, bool):
            raise TypeError(f"dep_features must be true or false, got {self.dep_features!r}")
        if label_scheme(self.mode) == IOB_SCHEME:
            types = [label[2:] for label in self.labels if label.startswith("B-")]
        else:
            types = self.labels[1:]
        if self.labels != mode_labels(LabelSet(types), self.mode):
            raise ValueError(f"labels {list(self.labels)} do not fit mode {self.mode.kind}")

    @property
    def max_len(self) -> int:
        return self.mode.max_len

    @cached_property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(self.index)

    def __setattr__(self, name, value) -> None:
        if name == "index":
            self.__dict__.pop("vocabulary", None)  # built from the templates being replaced
        super().__setattr__(name, value)

    def save(self, path) -> None:
        doc = {
            "version": MODEL_VERSION,
            "mode": self.mode.kind,
            "L": self.mode.max_len,
            "lambda": self.lam,
            "dep_features": self.dep_features,
            "converged": self.converged,
            "optimizer_message": self.optimizer_message,
            "labels": list(self.labels),
            "templates": list(self.index),
            "weights": base64.b64encode(self.weights.astype("<f8", copy=False).tobytes()).decode("ascii"),
        }
        text = json.dumps(doc)  # the C encoder; json.dump would encode in Python
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

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
            labels, templates, weights = doc["labels"], doc["templates"], doc["weights"]
            if not (isinstance(labels, list) and isinstance(templates, list)):
                raise TypeError("labels and templates must be JSON arrays")
            if not all(isinstance(item, str) for item in (*labels, *templates)):
                raise TypeError("labels and templates must be strings")
            if not isinstance(weights, str):
                raise TypeError("weights must be a base64 string")
            if not isinstance(doc["converged"], (bool, type(None))):
                raise TypeError("converged must be true, false or null")
            if not isinstance(doc["optimizer_message"], (str, type(None))):
                raise TypeError("optimizer_message must be a string or null")
            if not isinstance(doc["lambda"], (int, float)) or isinstance(doc["lambda"], bool):
                raise TypeError(f"lambda must be a number, got {doc['lambda']!r}")
            shape = (len(templates) + len(labels) + 1, len(labels))
            raw = base64.b64decode(weights, validate=True)
            if len(raw) != 8 * shape[0] * shape[1]:
                if len(set(templates)) != len(templates):  # Model checks repeats; name one that throws the count off
                    raise ValueError("repeated template strings")
                raise ValueError(f"weights hold {len(raw)} bytes, not the float64 of a {shape[0]} x {shape[1]} matrix")
            return cls(
                mode=Mode(doc["mode"], doc["L"]),
                labels=tuple(labels),
                index=tuple(templates),
                weights=np.frombuffer(raw, "<f8").reshape(shape).astype(np.float64),
                lam=float(doc["lambda"]),
                dep_features=doc["dep_features"],
                converged=doc["converged"],
                optimizer_message=doc["optimizer_message"],
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SerializationError(f"malformed model file: {exc}") from exc


@dataclass
class _Block:
    layout: Layout  # the block's spans and rows
    label_forbidden: np.ndarray  # (S, K) bool, True where the labeling rule forbids the label on the span
    pair_forbidden: np.ndarray  # (K+1, K) bool, True where label y may not follow p
    units: sparse.csr_matrix  # (units, T') 0/1 templates of each unit; T' <= T, see the module doc
    members: sparse.csr_matrix  # (S, units) 0/1 units of each span; members @ units counts its templates
    unit_scores: np.ndarray  # (units, K) buffer for the products through units, reused by every evaluation


@dataclass
class _Compiled:
    blocks: list[_Block]
    labels: tuple[str, ...]
    gold: np.ndarray  # (T+K+1, K) gold counts of the corpus, laid out like W
    splits: int

    @property
    def num_weights(self) -> int:
        """The size of W."""
        return self.gold.size


def _block(
    sentences: list[Sentence], mode: Mode, labels: tuple[str, ...], index: dict[str, int] | Vocabulary, dep: bool
) -> _Block:
    """The block of sentences: spans, labeling-rule masks and template rows.

    Every span gets one row of members, in span order; the units' templates
    come from one block_rows call, which interns them into index, a dict,
    or reads them from index, a Vocabulary, which leaves unseen templates
    out. units has as many columns as index has templates afterwards.
    """
    scheme = label_scheme(mode)
    spans = block_spans(sentences, mode)
    S, K = len(spans[0]), len(labels)
    lay = Layout(np.array([sentence.n for sentence in sentences]), spans)
    (unit_ptr, ids), (indptr, members) = block_rows(sentences, lay.sentence, lay.uv, scheme != IOB_SCHEME, dep, index)
    num_units = len(unit_ptr) - 1
    return _Block(
        lay,
        ~allowed_mask(lay.uv, K),
        ~pair_mask(labels, scheme),
        sparse.csr_matrix((np.ones(len(ids)), ids, unit_ptr), shape=(num_units, len(index))),
        sparse.csr_matrix((np.ones(len(members)), members, indptr), shape=(S, num_units)),
        np.empty((num_units, K)),
    )


def _accumulate(out: np.ndarray, A: sparse.csr_matrix, X: np.ndarray, transpose: bool = False) -> None:
    """out += A @ X, or A.T @ X with transpose, for C-contiguous float64 out.

    These are the kernels scipy's A @ X runs, adding into out instead of
    returning a new array: with a fresh (units, K) result per product, a
    train-dgm-shaped fit took about four times the minor page faults per
    evaluation and ran its iterations about 7 % slower.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    rows, cols = A.shape
    X = np.ascontiguousarray(X, dtype=np.float64)
    if transpose:  # A's CSR arrays are A.T's CSC arrays
        _sparsetools.csc_matvecs(cols, rows, X.shape[1], A.indptr, A.indices, A.data, X.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(rows, cols, X.shape[1], A.indptr, A.indices, A.data, X.ravel(), out.ravel())


def _add_counts(out: np.ndarray, block: _Block, label: np.ndarray, pair: np.ndarray) -> None:
    """Add counts laid out like W: units.T @ (members.T @ label) for the (S, K)
    span-label weights of the block's templates, and the (K+1, K)
    transition counts pair to the last K+1 rows."""
    block.unit_scores.fill(0.0)
    _accumulate(block.unit_scores, block.members, label, transpose=True)
    _accumulate(out[: block.units.shape[1]], block.units, block.unit_scores, transpose=True)
    out[-len(pair) :] += pair


def _gold(chunk: list[Sentence], lay, label_id: dict[str, int], scheme: str, project: bool, first_number: int):
    """The gold factors of a block (see the module doc): the row in lay of
    every gold segment, in row order, the label before it and its label,
    and the number of entities split. Without project a span outside its
    lattice raises ValueError too; the first sentence (numbered from
    first_number) with one or with a type not in label_id is named, a span
    outside the lattice before an unknown type."""
    K = len(label_id)
    entities = [(b, span.start, span.end) for b, sentence in enumerate(chunk) for span in sentence.gold]
    b, u, v = np.array(entities, dtype=np.int64).reshape(-1, 3).T
    etypes = [span.etype for sentence in chunk for span in sentence.gold]
    if scheme == IOB_SCHEME:
        first, inner = (np.array([label_id.get(f"{p}-{t}", -1) for t in etypes], dtype=np.int64) for p in "BI")
        merged = outside = np.zeros(len(b), dtype=bool)
    else:
        first = inner = np.array([label_id.get(t, -1) for t in etypes], dtype=np.int64)
        merged = lay.find(b, u, v) >= 0
        outside = ~merged
    strict = outside & (not project)
    offending = strict | (first < 0)
    if offending.any():
        k = int(np.argmax(offending))
        if (strict & (b == b[k])).any():
            k = int(np.argmax(strict & (b == b[k])))
            raise ValueError(f"sentence {first_number + b[k]}: gold span ({u[k]},{v[k]}) not in lattice")
        raise ValueError(f"sentence {first_number + b[k]}: entity type {etypes[k]!r} not in the model's labels")
    # per row of lay, the label of the token ending there; K at a sentence's start row
    tag = np.full(lay.num_rows, label_id["O"])
    tag[lay.first_row] = K
    start, length = lay.first_row[b] + u, v - u + 1
    token = np.repeat(start - np.cumsum(length) + length, length) + np.arange(length.sum())
    tag[token] = np.repeat(inner, length)
    tag[start] = first
    # a segment starts at every token but the inner ones of a merged entity
    opens = np.ones(lay.num_rows, dtype=bool)
    opens[token[np.repeat(merged, length) & (token != np.repeat(start, length))]] = False
    mark = np.flatnonzero(opens)  # the start rows of the sentences and of the segments
    sentence = lay.row_sentence[mark]
    position = mark - lay.first_row[sentence]
    seg = np.flatnonzero(position > 0)
    # a segment ends a row before the next mark: the next segment's or sentence's start
    end = np.append(mark[1:], lay.num_rows)[seg] - 1 - lay.first_row[sentence[seg]]
    rows = lay.rows(sentence[seg], position[seg], end)
    return rows, tag[mark[seg - 1]], tag[mark[seg]], int(outside.sum())


def _compile(
    corpus: list[Sentence],
    mode: Mode,
    labels: tuple[str, ...],
    index: dict[str, int] | Vocabulary,
    dep: bool,
    project: bool,
) -> _Compiled:
    scheme = label_scheme(mode)
    K = len(labels)
    label_id = {label: y for y, label in enumerate(labels)}
    splits = 0
    blocks, golds = [], []
    for block_start in range(0, len(corpus), _BLOCK_SIZE):
        chunk = corpus[block_start : block_start + _BLOCK_SIZE]
        block = _block(chunk, mode, labels, index, dep)
        *gold, block_splits = _gold(chunk, block.layout, label_id, scheme, project, block_start + 1)
        splits += block_splits
        blocks.append(block)
        golds.append(gold)
    gold_counts = np.zeros((len(index) + K + 1, K))
    for block, (row, prev, label) in zip(blocks, golds):
        # a span is at most one gold segment, so the (span, label) cells are distinct
        indicator = np.zeros((block.members.shape[0], K))
        indicator[row, label] = 1.0
        pairs = np.zeros((K + 1, K))
        np.add.at(pairs, (prev, label), 1.0)
        _add_counts(gold_counts, block, indicator, pairs)
    return _Compiled(blocks, labels, gold_counts, splits)


def _fill_scores(block: _Block, W: np.ndarray, labels: tuple[str, ...]) -> ScoredBlock:
    """The block scored at W: emission members @ (units @ W[:T']) and
    transition W[T:], -inf where the labeling rule forbids."""
    block.unit_scores.fill(0.0)
    _accumulate(block.unit_scores, block.units, W[: block.units.shape[1]])
    emission = np.zeros(block.label_forbidden.shape)
    _accumulate(emission, block.members, block.unit_scores)
    emission[block.label_forbidden] = -np.inf
    transition = np.where(block.pair_forbidden, -np.inf, W[-len(block.pair_forbidden) :])
    return ScoredBlock(block.layout, labels, emission, transition)


def _eval_block(block: _Block, W: np.ndarray, labels: tuple[str, ...], grad: np.ndarray) -> float:
    """Summed log Z of the block's sentences; their expected counts are added to grad."""
    scored = _fill_scores(block, W, labels)
    logz, label, pair = posteriors(scored, forward(scored), backward(scored))
    _add_counts(grad, block, label, pair)
    # a sequential sum over sentences; np.sum would add pairwise and round differently
    return np.cumsum(logz)[-1]


class Objective:
    """Callable (value, gradient) of the regularized objective at w; blocks are reduced in block order."""

    def __init__(self, compiled: _Compiled, l2: float):
        self.compiled = compiled
        self.l2 = float(l2)
        self._buf = np.empty(compiled.gold.shape)  # the regularizer's and gold score's products

    def __call__(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and gradient at w, either W or W.ravel(); the gradient has w's shape."""
        w = np.asarray(w, dtype=np.float64)
        if not np.isfinite(w).all():
            raise TrainingError("non-finite weights")
        gold = self.compiled.gold
        W = w.reshape(gold.shape)
        value = 0.0
        grad = np.zeros(gold.shape)
        for block in self.compiled.blocks:
            value += _eval_block(block, W, self.compiled.labels, grad)
        # elementwise sums, not np.vdot: with OpenBLAS free to start threads,
        # each vdot took about 8 ms on a 2-core Xeon and slowed the calls after it
        value -= float(np.multiply(gold, W, out=self._buf).sum())
        grad -= gold
        value += self.l2 * float(np.multiply(W, W, out=self._buf).sum())
        grad += np.multiply(2.0 * self.l2, W, out=self._buf)
        if not np.isfinite(value):
            raise TrainingError("non-finite objective value")
        return value, grad.reshape(w.shape)


def objective_and_gradient(model: Model, corpus: list[Sentence]) -> tuple[float, np.ndarray]:
    """Objective value and gradient (shaped like the weights) at the model's weights.

    Every gold entity span must be present in its sentence's lattice, and
    every entity type among the model's labels; otherwise a ValueError names
    the first such sentence and the span or the type, a span outside the
    lattice before an unknown type in the same sentence.
    """
    if not corpus:
        raise ValueError("empty corpus")
    compiled = _compile(corpus, model.mode, model.labels, model.vocabulary, model.dep_features, project=False)
    return Objective(compiled, model.lam)(model.weights)


def _prepare(corpus: list[Sentence], mode: Mode, dep: bool) -> tuple[tuple[str, ...], _Compiled]:
    """The template strings the compile interns, in id order, and the compiled corpus."""
    if not corpus:
        raise ValueError("empty corpus")
    labels = mode_labels(LabelSet.from_corpus(corpus), mode)
    templates: dict[str, int] = {}
    compiled = _compile(corpus, mode, labels, templates, dep, project=True)
    return tuple(templates), compiled


def _summary(corpus: list[Sentence], index: tuple[str, ...], compiled: _Compiled, seconds: float) -> dict:
    """The compile summary of fit, logged at INFO; emission entries are the
    operators' entries (units and members) per span."""
    tokens = sum(sentence.n for sentence in corpus)
    spans = sum(block.members.shape[0] for block in compiled.blocks)
    summary = {
        "sentences": len(corpus),
        "tokens": tokens,
        "spans_per_token": spans / tokens,
        "gold_entities": sum(len(sentence.gold) for sentence in corpus),
        "split_entities": compiled.splits,
        "templates": len(index),
        "weights": compiled.num_weights,
        "emission_entries_per_span": sum(block.units.nnz + block.members.nnz for block in compiled.blocks) / spans,
        "compile_s": seconds,
    }
    logger.info(
        "compiled %(sentences)d sentences, %(tokens)d tokens: %(spans_per_token).2f spans per token, "
        "%(gold_entities)d gold entities (%(split_entities)d split by projection), %(templates)d templates, "
        "%(weights)d weights, %(emission_entries_per_span).1f emission entries per span, in %(compile_s).3f s",
        summary,
    )
    return summary


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # not a @ b or np.dot: unpinned OpenBLAS took 1.1 ms per 67k-element dot, einsum 31 us (2-core Xeon)
    return float(np.einsum("i,i->", a, b))


def _lbfgs(fun, x0, callback, maxiter, maxcor, ftol, gtol, **_):
    """L-BFGS-B's unconstrained path as a scipy.optimize.minimize method, step for step.

    fun(x) returns (f, g), as minimize passes it on when called without jac.
    The direction is the two-loop recursion (Nocedal 1980) over the newest
    maxcor (s, y) pairs with H0 = s'y / y'y of the newest, which equals
    L-BFGS-B's compact form; the line search is its MINPACK-2 dcsrch, with its
    constants, first trial step and cap of 20 evaluations. A failed search clears
    the pairs and retries from -g, or stops with status 2 if there were none.
    A trial at the latest evaluated point reuses its (f, g), which nfev, as in
    L-BFGS-B, does not count again. callback gets OptimizeResult(x, fun, jac,
    nit, nfev) at each accepted point, x being a buffer that a later step
    overwrites. Stopping tests, their order and the messages are L-BFGS-B's.
    """
    x = np.ravel(x0).astype(np.float64)
    n, eps = x.size, np.finfo(float).eps
    S, Y, (sy, yy, alpha) = np.zeros((maxcor, n)), np.zeros((maxcor, n)), np.zeros((3, maxcor))
    d, xt, tmp = np.empty(n), np.empty(n), np.empty(n)
    f, g = latest = fun(x)
    last = x.copy()  # the latest evaluated point; latest is its (f, g)
    nfev, nit, stored, newest, status = 1, 0, 0, 0, None
    if np.abs(g).max() <= gtol:
        status, message = 0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    while status is None:
        pairs = [(newest - i) % maxcor for i in range(stored)]  # newest first
        np.negative(g, out=d)
        for i in pairs:
            alpha[i] = _dot(S[i], d) / sy[i]
            d -= np.multiply(Y[i], alpha[i], out=tmp)
        if stored:
            d *= sy[newest] / yy[newest]
        for i in pairs[::-1]:
            d += np.multiply(S[i], alpha[i] - _dot(Y[i], d) / sy[i], out=tmp)
        stp = min(1.0 / math.sqrt(_dot(d, d)), 1e10) if nit == 0 else 1.0
        ft, gt, task = f, g, b"START"
        gd0 = gdt = _dot(g, d)
        if gd0 < 0:
            search = DCSRCH(None, None, ftol=1e-3, gtol=0.9, xtol=0.1, stpmin=0.0, stpmax=1e10)
            for k in range(21):
                stp, _, _, task = search._iterate(stp, ft, gdt, task)
                if task[:2] != b"FG" or k == 20:
                    break
                np.multiply(d, stp, out=xt)
                xt += x
                if not np.array_equal(xt, last):
                    latest = fun(xt)
                    nfev += 1
                    np.copyto(last, xt)
                ft, gt = latest
                gdt = _dot(gt, d)
        if task[:4] not in (b"CONV", b"WARN"):
            if not stored:
                status, message = 2, "ABNORMAL: "
            stored = 0
            continue
        x, xt, f_old, f, g_old, g = xt, x, f, ft, g, gt
        nit += 1
        if callback is not None:
            callback(scipy.optimize.OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev))
        if nit >= maxiter:
            status, message = 1, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
        elif np.abs(g).max() <= gtol:
            status, message = 0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
        elif f_old - f <= ftol / eps * eps * max(abs(f_old), abs(f), 1.0):  # factr * epsmch
            status, message = 0, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
        elif (gdt - gd0) * stp > eps * (-gd0 * stp):  # s'y, else the pair is skipped
            k = (newest + 1) % maxcor if stored else 0
            np.multiply(d, stp, out=S[k])
            np.subtract(g, g_old, out=Y[k])
            sy[k], yy[k] = (gdt - gd0) * stp, _dot(Y[k], Y[k])
            newest, stored = k, min(stored + 1, maxcor)
    return scipy.optimize.OptimizeResult(
        x=x, fun=f, jac=g, nit=nit, nfev=nfev, status=status, success=status == 0, message=message
    )


def fit(corpus: list[Sentence], config: TrainConfig, mode: Mode, trace=None) -> Model:
    """Train by L-BFGS (history 10, _lbfgs) from w = 0: _prepare, then _solve.

    Unrepresentable gold entities are first split into typed singletons.
    trace(record), if given, first receives {"compile": summary}, the
    fields of the compile summary logged at INFO, then one dict per
    accepted step: iteration, objective, grad_inf_norm (at the accepted
    point), step_s (wall time since the previous step, or since the
    optimizer started) and fevals (objective evaluations the step took).
    If the optimizer stops without converging (for example at max_iter),
    a warning carries its message and the model is still returned; the
    model records the optimizer's verdict and message either way.
    """
    start = time.perf_counter()
    index, compiled = _prepare(corpus, mode, config.dep_features)
    summary = _summary(corpus, index, compiled, time.perf_counter() - start)
    if trace is not None:
        trace({"compile": summary})
    return _solve(compiled, index, mode, config, trace)


def _solve(compiled: _Compiled, index: tuple[str, ...], mode: Mode, config: TrainConfig, trace=None) -> Model:
    """fit's model of a compiled corpus, minimized from w = 0; trace gets fit's step records."""
    step_start, step_nfev = time.perf_counter(), 0

    def record(result: scipy.optimize.OptimizeResult) -> None:
        nonlocal step_start, step_nfev
        now = time.perf_counter()
        grad_inf_norm = float(np.abs(result.jac).max())
        step = {"iteration": result.nit, "objective": float(result.fun), "grad_inf_norm": grad_inf_norm}
        trace({**step, "step_s": now - step_start, "fevals": result.nfev - step_nfev})
        step_start, step_nfev = now, result.nfev

    result = scipy.optimize.minimize(
        Objective(compiled, config.l2),
        np.zeros(compiled.num_weights),
        method=_lbfgs,
        callback=None if trace is None else record,
        options={"maxiter": config.max_iter, "maxcor": 10, "ftol": config.ftol, "gtol": config.gtol},
    )
    if result.success:
        logger.debug("optimizer converged after %d iterations: %s", result.nit, result.message)
    else:
        logger.warning("optimizer did not converge after %d iterations: %s", result.nit, result.message)
    return Model(
        mode=mode,
        labels=compiled.labels,
        index=index,
        weights=np.asarray(result.x, dtype=np.float64).reshape(compiled.gold.shape),
        lam=config.l2,
        dep_features=config.dep_features,
        converged=bool(result.success),
        optimizer_message=str(result.message),
    )


def _segmentation_entities(seg: Segmentation, scheme: str) -> tuple[EntitySpan, ...]:
    if scheme == IOB_SCHEME:
        return iob_to_spans(seg.labels())[0]
    return tuple(EntitySpan(u, v, label) for (u, v), label in seg if label != "O")


def decode_corpus(model: Model, corpus: list[Sentence]) -> list[tuple[EntitySpan, ...]]:
    """Viterbi entity spans for every sentence.

    Sentences are compiled block by block into the template rows training
    uses, against the model's vocabulary, so templates first seen here score 0.
    The spans do not depend on how the corpus is split into calls.
    """
    scheme = label_scheme(model.mode)
    out = []
    for block_start in range(0, len(corpus), _BLOCK_SIZE):
        chunk = corpus[block_start : block_start + _BLOCK_SIZE]
        block = _block(chunk, model.mode, model.labels, model.vocabulary, model.dep_features)
        scored = _fill_scores(block, model.weights, model.labels)
        out.extend(_segmentation_entities(seg, scheme) for seg, _ in viterbi(scored))
    return out


def cross_validate(corpus: list[Sentence], config: TrainConfig, mode: Mode) -> tuple[float, dict[float, float]]:
    """Pick the regularizer by k-fold span F1; ties go to the smaller value.

    Folds are contiguous chunks of a seeded shuffle, identical across
    candidate values. One fold at a time, its training part is compiled
    once (logging fit's compile summary), then fit from w = 0 and scored
    on the held-out part for each value; the mean F1 of each value is
    logged after the last fold.
    """
    from .evaluation import score

    if not config.lambda_grid:
        raise ValueError("empty lambda grid")
    if config.folds > len(corpus):
        raise ValueError(f"{config.folds} folds for {len(corpus)} sentences")
    rng = np.random.default_rng(config.seed)
    folds = np.array_split(rng.permutation(len(corpus)), config.folds)
    fold_f1: list[list[float]] = [[] for _ in config.lambda_grid]  # per value, in fold order
    for k, held_ids in enumerate(folds):
        train = [corpus[i] for j, fold in enumerate(folds) if j != k for i in fold]
        held = [corpus[i] for i in held_ids]
        start = time.perf_counter()
        index, compiled = _prepare(train, mode, config.dep_features)
        _summary(train, index, compiled, time.perf_counter() - start)
        for lam, f1s in zip(config.lambda_grid, fold_f1):
            model = _solve(compiled, index, mode, replace(config, l2=lam))
            f1s.append(score([sentence.gold for sentence in held], decode_corpus(model, held)).f1)
    means = {float(lam): float(np.mean(f1s)) for lam, f1s in zip(config.lambda_grid, fold_f1)}
    for lam, f1 in means.items():
        logger.info("lambda %g: mean F1 %.2f", lam, f1)
    best_f1 = max(means.values())
    best = min(lam for lam, f1 in means.items() if f1 == best_f1)
    return best, means


def bench_per_evaluation(
    corpus: list[Sentence],
    mode: Mode,
    config: TrainConfig | None = None,
    iters: int = 5,
    warmup: int = 1,
) -> tuple[float, float]:
    """Mean and stddev of one objective+gradient evaluation's wall time.

    The set-up fit() runs (labels, template interning, compile) happens once up
    front and is excluded; an optimizer iteration adds its further line-search
    evaluations and the _lbfgs direction. Warmups run first, uncounted.
    """
    if iters < 1:
        raise ValueError("need at least one timed evaluation")
    config = config or TrainConfig()
    _, compiled = _prepare(corpus, mode, config.dep_features)
    objective = Objective(compiled, config.l2)
    w = np.zeros(compiled.num_weights)
    for _ in range(max(0, warmup)):
        objective(w)
    times = []
    for _ in range(iters):
        start = time.perf_counter()
        objective(w)
        times.append(time.perf_counter() - start)
    return float(np.mean(times)), float(np.std(times))

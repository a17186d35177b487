"""Log-space dynamic programming over blocks of span lattices.

A factor is a (span, previous label, label) triple. Scores live in a dense
float64 array of shape (S, K+1, K): axis 0 the span, axis 1 the previous
label (index K is the begin sentinel), axis 2 the span's label; -inf marks
combinations the labeling rule forbids.

The DP runs on a whole ScoredBlock at once (a ScoredLattice is a block of
one) in one flat layout: sentence b owns rows off_b .. off_b + n_b, one per
boundary, and a span (u, v) of it reads row off_b + u - 1 and writes row
off_b + v. Forward and Viterbi loop over end positions, backward over start
positions; each step gathers the rows its spans read, adds their score
tables, reduces over the previous (next) label and combines the spans that
write one row with reduceat, shorter span first. Marginals are one
expression over the block. The Python loop runs per position, not per span.

Labeling rules (per scheme):
  segment  entity labels on any allowed span, O only on length-1 spans,
           transitions unrestricted
  iob      length-1 spans with IOB tags, I-X only after B-X or I-X
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import LabelSet
from .lattice import LINEAR, Mode, SpanLattice

SEGMENT_SCHEME = "segment"
IOB_SCHEME = "iob"


class InvariantViolation(RuntimeError):
    """A structural guarantee of the DP broke; indicates a bug, not bad input."""


def label_scheme(mode: Mode) -> str:
    return IOB_SCHEME if mode.kind == LINEAR else SEGMENT_SCHEME


def segment_labels(label_set: LabelSet) -> tuple[str, ...]:
    return ("O",) + label_set.entity_types


def iob_labels(label_set: LabelSet) -> tuple[str, ...]:
    return ("O",) + tuple(f"{tag}-{etype}" for etype in label_set.entity_types for tag in "BI")


def mode_labels(label_set: LabelSet, mode: Mode) -> tuple[str, ...]:
    return iob_labels(label_set) if label_scheme(mode) == IOB_SCHEME else segment_labels(label_set)


def _iob_pair_mask(labels: tuple[str, ...]) -> np.ndarray:
    """(K+1, K) bool: may label y follow previous label p (p = K is begin)."""
    return np.array([[not y.startswith("I-") or p in (f"B-{y[2:]}", y) for y in labels] for p in labels + ("",)])


def allowed_mask(lattice: SpanLattice, labels: tuple[str, ...], scheme: str) -> np.ndarray:
    """(S, K+1, K) bool mask of factors permitted by the labeling rule.

    The begin-sentinel row (previous label K) is on only for spans starting
    at position 1, and those spans accept no other previous label.
    """
    if scheme not in (SEGMENT_SCHEME, IOB_SCHEME):
        raise ValueError(f"unknown labeling scheme {scheme!r}")
    if labels[0] != "O":
        raise ValueError("label id 0 must be O")
    u, v = np.array(lattice.sorted_spans(), dtype=np.int64).reshape(-1, 2).T
    K = len(labels)
    pair = _iob_pair_mask(labels) if scheme == IOB_SCHEME else np.ones((K + 1, K), dtype=bool)
    mask = np.repeat(pair[None], len(u), axis=0)
    mask[u == 1, :K] = False
    mask[u != 1, K] = False
    if scheme == SEGMENT_SCHEME:
        mask[v > u, :, 0] = False
    return mask


def _steps(order: np.ndarray, position: np.ndarray, source: np.ndarray, target: np.ndarray) -> list[tuple]:
    """Cut spans, taken in the given order, into one step per position: (span
    ids, rows they read, distinct rows they write, reduceat offsets, group of each span)."""
    out = []
    for idx in np.split(order, np.flatnonzero(np.diff(position[order])) + 1):
        rows = target[idx]
        new_row = np.concatenate(([True], rows[1:] != rows[:-1]))
        starts = np.flatnonzero(new_row)
        out.append((idx, source[idx], rows[starts], starts, np.cumsum(new_row) - 1))
    return out


class _Layout:
    """Flat rows and per-position steps of a block of lattices (see module doc)."""

    def __init__(self, lattices: tuple[SpanLattice, ...]) -> None:
        ns = np.array([lat.n for lat in lattices], dtype=np.int64)
        self.first_row = np.concatenate(([0], np.cumsum(ns + 1)[:-1]))
        self.last_row = self.first_row + ns
        self.num_rows = int(self.last_row[-1]) + 1
        spans = [np.array(lat.sorted_spans(), dtype=np.int64).reshape(-1, 2) for lat in lattices]
        self.sentence = np.repeat(np.arange(len(lattices)), [len(sp) for sp in spans])
        self.uv = np.concatenate(spans)  # (S, 2) 1-based (u, v) of every span
        u, v = self.uv.T
        self.start_row = self.first_row[self.sentence] + u - 1
        self.end_row = self.first_row[self.sentence] + v
        # forward: by end position, then written row, then shorter span first
        self.forward_steps = _steps(np.lexsort((-u, self.end_row, v)), v, self.start_row, self.end_row)
        # backward, last start position first: by written row, then shorter span first
        self.backward_steps = _steps(np.lexsort((v, self.start_row, u)), u, self.end_row, self.start_row)[::-1]
        reached = np.zeros(self.num_rows, dtype=bool)
        reached[self.first_row] = reached[self.end_row] = True
        self.gaps = np.flatnonzero(~reached)

    def check_gaps(self) -> None:
        """Raise if a position of some sentence is the end of no span."""
        if len(self.gaps):
            b = int(np.searchsorted(self.first_row, self.gaps[0], side="right")) - 1
            j = self.gaps[0] - self.first_row[b]
            raise InvariantViolation(f"no spans end at position {j} (sentence {b} of the block)")


@dataclass(eq=False)
class ScoredBlock:
    """Span lattices of several sentences plus one factor log-score table w·f.

    Row r of scores is span r of the block: the sentences' spans in
    sentence order, each sentence's in sorted_spans() order.
    """

    lattices: tuple[SpanLattice, ...]
    labels: tuple[str, ...]
    scores: np.ndarray
    layout: _Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.layout = _Layout(self.lattices)
        K = len(self.labels)
        want = (len(self.layout.sentence), K + 1, K)
        if self.scores.shape != want:
            raise ValueError(f"score table shape {self.scores.shape}, expected {want}")
        if np.isnan(self.scores).any() or np.isposinf(self.scores).any():
            raise ValueError("factor scores must be finite or -inf")


class ScoredLattice(ScoredBlock):
    """One sentence's span lattice plus its factor table: a block of one."""

    def __init__(self, lattice: SpanLattice, labels: tuple[str, ...], scores: np.ndarray) -> None:
        super().__init__((lattice,), labels, scores)
        self.lattice = lattice
        self.n = lattice.n
        self.spans = lattice.sorted_spans()
        self._span_row = {span: s for s, span in enumerate(self.spans)}

    def span_index(self, span: tuple[int, int]) -> int:
        if span not in self._span_row:
            raise KeyError(f"span {span} not in lattice")
        return self._span_row[span]

    def score(self, span: tuple[int, int], y_prev: int, y: int) -> float:
        return float(self.scores[self.span_index(span), y_prev, y])


@dataclass(frozen=True)
class Segmentation:
    """Contiguous (span, label) sequence partitioning positions 1..n."""

    segments: tuple[tuple[tuple[int, int], str], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("empty segmentation")
        expect = 1
        for (u, v), label in self.segments:
            if u != expect or v < u:
                raise ValueError(f"segments do not partition 1..n: bad span ({u},{v})")
            if not label:
                raise ValueError("empty label")
            expect = v + 1

    @property
    def n(self) -> int:
        return self.segments[-1][0][1]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.segments)

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)


def forward(scored: ScoredBlock) -> np.ndarray:
    """alpha[r, p]: log-sum of partial segmentations up to row r ending in label p.

    For a ScoredLattice row j is position j. Column K is the begin sentinel,
    finite only at first rows; log Z is the logsumexp of alpha[last row, :K].
    """
    lay, K = scored.layout, len(scored.labels)
    lay.check_gaps()
    alpha = np.full((lay.num_rows, K + 1), -np.inf)
    alpha[lay.first_row, K] = 0.0
    for idx, src, dst, starts, _ in lay.forward_steps:
        inc = np.logaddexp.reduce(alpha[src, :, None] + scored.scores[idx], axis=1)
        alpha[dst, :K] = np.logaddexp.reduceat(inc, starts, axis=0)
    return alpha


def backward(scored: ScoredBlock) -> np.ndarray:
    """beta[r, p]: log-sum of completions after row r given label p there."""
    lay, K = scored.layout, len(scored.labels)
    beta = np.full((lay.num_rows, K + 1), -np.inf)
    beta[lay.last_row, :K] = 0.0
    for idx, src, dst, starts, _ in lay.backward_steps:
        inc = np.logaddexp.reduce(scored.scores[idx] + beta[src, None, :K], axis=2)
        beta[dst] = np.logaddexp.reduceat(inc, starts, axis=0)
    return beta


def _log_partitions(scored: ScoredBlock, alpha: np.ndarray) -> np.ndarray:
    logz = np.logaddexp.reduce(alpha[scored.layout.last_row, : len(scored.labels)], axis=1)
    if not np.isfinite(logz).all():
        raise InvariantViolation("non-finite partition function")
    return logz


def log_partition(scored: ScoredLattice) -> float:
    return float(_log_partitions(scored, forward(scored))[0])


def posteriors(scored: ScoredBlock, alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sentence log Z and the factor marginals, given forward and backward."""
    lay, K = scored.layout, len(scored.labels)
    logz = _log_partitions(scored, alpha)
    m = alpha[lay.start_row, :, None] + scored.scores
    m += beta[lay.end_row, None, :K]
    m -= logz[lay.sentence, None, None]
    return logz, np.exp(m, out=m)


def marginals(scored: ScoredBlock) -> np.ndarray:
    """Posterior probability of every factor, same shape and order as scores.

    m[s, p, y] = P(span s has label y and is preceded by label p). Factors
    the labeling rule forbids get 0. For every position, the marginals of
    factors covering it sum to 1.
    """
    return posteriors(scored, forward(scored), backward(scored))[1]


def viterbi(scored: ScoredBlock) -> tuple[Segmentation, float] | list[tuple[Segmentation, float]]:
    """Maximum-scoring segmentation and its log-score, per sentence.

    Returns one (Segmentation, score) pair for a ScoredLattice and a list
    of them, in sentence order, for a ScoredBlock. Ties prefer the shorter
    last segment, then the smaller previous-label id within a cell, then
    the smaller label id at the end boundary; with all scores equal this
    yields the all-singleton all-O segmentation.
    """
    lay, K = scored.layout, len(scored.labels)
    lay.check_gaps()
    vit = np.full((lay.num_rows, K + 1), -np.inf)
    vit[lay.first_row, K] = 0.0
    back_span, back_prev = np.zeros((2, lay.num_rows, K), dtype=np.int64)
    for idx, src, dst, starts, group in lay.forward_steps:
        cand = vit[src, :, None] + scored.scores[idx]
        p_star = cand.argmax(axis=1)
        val = np.take_along_axis(cand, p_star[:, None, :], axis=1)[:, 0]
        best = np.maximum.reduceat(val, starts, axis=0)
        # the first span of a group that reaches the group's best is the shortest
        hit = np.where(val == best[group], np.arange(len(idx))[:, None], len(idx))
        first = np.minimum.reduceat(hit, starts, axis=0)
        vit[dst, :K] = best
        back_span[dst] = idx[first]
        back_prev[dst] = np.take_along_axis(p_star, first, axis=0)
    last = vit[lay.last_row, :K]
    top = last.max(axis=1)
    if not np.isfinite(top).all():
        raise InvariantViolation("no complete segmentation")
    last_len = (lay.end_row - lay.start_row)[back_span[lay.last_row]]
    y = np.where(last == top[:, None], last_len * K + np.arange(K), np.iinfo(np.int64).max).argmin(axis=1)
    # backtrace every sentence at once, one segment per round; span ids run
    # in sentence order, so sorting them orders every segment
    sent, row, path_span, path_label = np.arange(len(top)), lay.last_row, [], []
    while len(sent):
        s, p = back_span[row, y], back_prev[row, y]
        path_span.append(s)
        path_label.append(y)
        row = lay.start_row[s]
        done = row == lay.first_row[sent]
        if (p[done] != K).any():
            raise InvariantViolation("backtrace did not reach the begin sentinel")
        sent, row, y = sent[~done], row[~done], p[~done]
    span, label = np.concatenate(path_span), np.concatenate(path_label)
    order = np.argsort(span)
    span, label = span[order], label[order]
    segments = list(zip(map(tuple, lay.uv[span].tolist()), [scored.labels[k] for k in label.tolist()]))
    cuts = np.cumsum(np.bincount(lay.sentence[span], minlength=len(top))).tolist()
    out = [(Segmentation(tuple(segments[lo:hi])), t) for lo, hi, t in zip([0] + cuts, cuts, top.tolist())]
    return out[0] if isinstance(scored, ScoredLattice) else out

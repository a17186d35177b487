"""Log-space dynamic programming over blocks of span lattices.

A factor is a (span, previous label, label) triple, and its score is
emission[s, y] + transition[p, y]. A ScoredBlock is a block's Layout and
these two factors, not their product: emission of shape (S, K), one row
per span, and transition of shape (K+1, K), whose row K is the begin
sentinel. -inf marks what the labeling rule forbids: a label on a span in
emission (O on a span longer than one token), a label pair in transition
(IOB). That the begin sentinel precedes exactly the spans starting a
sentence is structural: alpha's column K is finite only at first rows.
Nothing composes the dense (S, K+1, K) table.

The DP runs on a whole ScoredBlock at once, one sentence or many, in one
flat Layout: sentence b owns rows off_b .. off_b + n_b, one per boundary,
and a span (u, v) of it reads row off_b + u - 1 and writes row off_b + v.
A Layout in which some position is the end of no span cannot be built,
so no pass, backward included, runs on a block without a segmentation.
The previous label meets a span only through transition, so the sum over
it depends on the row a span reads, not on the span (the semi-CRF
recursion of Sarawagi & Cohen, 2004). Each pass pushes the transition
through each row once, and a span costs O(K):

  forward   once row r is written, G[r, y] = logsumexp_p(alpha[r, p] +
            transition[p, y]); a step adds G[start] + emission per span and
            combines the spans that write one row with reduceat
  backward  H[r, y] = logsumexp over the spans starting at r of emission +
            beta[end, y]; then beta[r, p] = logsumexp_y(transition[p, y] + H[r, y])
  sweep     both passes run one loop, _sweep: a step reduces a message plus
            emission into alpha or H, then pushes those rows into G or beta
  row step  both row messages, logsumexp_p(x[r, p] + T[p, y]), are the
            max-shifted sum a_r + c_y + log sum_p exp(x[r, p] - a_r)
            exp(T[p, y] - c_y), with a_r the row max, c_y the column max and
            exp(T - c) taken once per pass; a row whose sums underflow (an
            all -inf row, or labels kept apart by -inf or very low
            transitions) is redone with np.logaddexp.reduce, so every row's
            result depends on that row alone
  gradient  posteriors gives m.sum(axis=1) = exp(G[start] + emission +
            beta[end] - log Z) and m.sum(axis=0) = sum_r exp(alpha[r, :, None]
            + transition + H[r] - log Z) without building the marginals m
  Viterbi   the forward step in max-product, with rows numbered in step
            order so that a step writes contiguous slices: each written row
            keeps max_p and the first (smallest) argmax p per label, and the
            first (shortest) best span per label of the spans writing it,
            padded with -inf to the step's widest row; one predecessor
            table then maps each (row, label) to the (row, label) its best
            segment comes from, and the backtrace follows it for all
            sentences at once

Forward and Viterbi loop over end positions, backward over start
positions, so the Python loop runs per position, not per span. The layout
cuts the backward steps from one sort of the spans and the forward steps,
and Viterbi's padded view of them, from another, each when a pass first
needs it, so decoding never builds the backward steps. Viterbi
ties go to the smaller previous label within a row, then to the shorter of
the spans that write one row, and at the end boundary to the shorter last
segment, then the smaller label. The two maxima stay apart: one max over
(span, p) of (vit[p] + transition[p, y]) + emission could round two
distinct sums over p to one value and so pick another previous label.

Labeling rules (per scheme), the span rule in allowed_mask (on emission),
the pair rule in pair_mask (on transition, begin row K included):
  segment  entity labels on any allowed span, O only on length-1 spans,
           transitions unrestricted
  iob      length-1 spans with IOB tags, I-X only after B-X or I-X, so
           never first in a sentence
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .corpus import LabelSet
from .lattice import LINEAR, Mode

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


def pair_mask(labels: tuple[str, ...], scheme: str) -> np.ndarray:
    """(K+1, K) bool: may label y follow previous label p (p = K is begin)."""
    if scheme not in (SEGMENT_SCHEME, IOB_SCHEME):
        raise ValueError(f"unknown labeling scheme {scheme!r}")
    if labels[0] != "O":
        raise ValueError("label id 0 must be O")
    if scheme == SEGMENT_SCHEME:
        return np.ones((len(labels) + 1, len(labels)), dtype=bool)
    return np.array([[not y.startswith("I-") or p in (f"B-{y[2:]}", y) for y in labels] for p in labels + ("",)])


def allowed_mask(uv: np.ndarray, num_labels: int) -> np.ndarray:
    """(S, K) bool: may span s, row s = (u, v) of uv, carry label y. Every
    label may, except O (label 0) on a span longer than one token; which
    label may start a sentence or follow another is pair_mask's rule alone."""
    mask = np.ones((len(uv), num_labels), dtype=bool)
    mask[uv[:, 1] > uv[:, 0], 0] = False
    return mask


class _Cut(NamedTuple):
    """Spans taken in some order, cut where the position (a step) and the
    written row (a group) change; step and group count over the whole block."""

    order: np.ndarray  # span ids
    rows: np.ndarray  # the row each span writes
    step: np.ndarray  # the step of each span
    group: np.ndarray  # the group of each span
    step_at: np.ndarray  # the first span of each step
    row_at: np.ndarray  # the first span of each group


def _cut(order: np.ndarray, position: np.ndarray, target: np.ndarray) -> _Cut:
    rows = target[order]
    new_step = np.ones(len(order), dtype=bool)
    new_step[1:] = position[order[1:]] != position[order[:-1]]
    new_row = new_step.copy()
    new_row[1:] |= rows[1:] != rows[:-1]
    step, group = np.cumsum(new_step) - 1, np.cumsum(new_row) - 1
    return _Cut(order, rows, step, group, np.flatnonzero(new_step), np.flatnonzero(new_row))


def _steps(cut: _Cut, source: np.ndarray) -> list[tuple]:
    """One step per position: (span ids, rows they read, distinct rows they
    write, reduceat offsets). The cuts are computed over all spans at once,
    then sliced."""
    order, rows, step, group, step_at, row_at = cut
    starts = row_at - step_at[step[row_at]]  # offsets counted from the first span of their step
    span_cuts = np.append(step_at, len(order)).tolist()
    group_cuts = np.append(group[step_at], len(row_at)).tolist()
    source, dst = source[order], rows[row_at]
    return [
        (order[a:b], source[a:b], dst[g:h], starts[g:h])
        for a, b, g, h in zip(span_cuts, span_cuts[1:], group_cuts, group_cuts[1:])
    ]


class _Padded(NamedTuple):
    """Viterbi's view of the forward steps of a block of B sentences whose G
    groups each write one row. A slot numbers a row: slot g is the row group g
    writes, slot G + b sentence b's first row, and slot G + B a pad that no
    span writes."""

    span: np.ndarray  # span ids, each group's shorter first, padded with span 0 to its step's widest group
    source: np.ndarray  # the slot each of them reads; pads read the pad slot
    offset: np.ndarray  # where the padded spans of each group start
    slot: np.ndarray  # the slot of each row (a Layout has no gaps, so none maps to the pad slot)
    steps: list[tuple]  # per step: its groups g:h, their padded spans a:b, and source[a:b] as (h - g, width)


class Layout:
    """Flat rows and per-position steps of a block of sentences (see module doc).

    lengths holds each sentence's n, and spans the (sentence, u, v) int
    arrays of all the block's spans in lattice.block_spans order: by
    sentence, then u, then v; rows maps a span back to its index. Raises
    InvariantViolation if a position of some sentence is the end of no span.
    """

    def __init__(self, lengths: np.ndarray, spans: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.first_row = np.concatenate(([0], np.cumsum(self.lengths + 1)[:-1]))
        self.last_row = self.first_row + self.lengths
        self.num_rows = int(self.last_row[-1]) + 1
        self.sentence, u, v = spans
        self.uv = np.column_stack((u, v))  # (S, 2) 1-based (u, v) of every span
        self.start_row = self.first_row[self.sentence] + u - 1
        self.end_row = self.first_row[self.sentence] + v
        self.row_sentence = np.repeat(np.arange(len(self.lengths)), self.lengths + 1)
        reached = np.zeros(self.num_rows, dtype=bool)
        reached[self.first_row] = reached[self.end_row] = True
        if not reached.all():
            gap = int(np.argmin(reached))
            b = int(self.row_sentence[gap])
            raise InvariantViolation(f"no spans end at position {gap - self.first_row[b]} (sentence {b} of the block)")

    def __repr__(self) -> str:
        return f"Layout(lengths={self.lengths!r}, spans={(self.sentence, *self.uv.T)!r})"

    @cached_property
    def _forward_order(self) -> np.ndarray:
        """By end position, then written row, then shorter span first."""
        u, v = self.uv.T
        return np.lexsort((-u, self.end_row, v))

    @cached_property
    def forward_steps(self) -> list[tuple]:
        return _steps(_cut(self._forward_order, self.uv[:, 1], self.end_row), self.start_row)

    @cached_property
    def backward_steps(self) -> list[tuple]:
        """Last start position first; by written row, then shorter span first."""
        u, v = self.uv.T
        return _steps(_cut(np.lexsort((v, self.start_row, u)), u, self.start_row), self.end_row)[::-1]

    @cached_property
    def padded_steps(self) -> _Padded:
        """The forward steps with each group's spans padded to its step's
        widest group, and rows numbered as slots (see _Padded)."""
        cut = _cut(self._forward_order, self.uv[:, 1], self.end_row)
        S, G, B = len(cut.order), len(cut.row_at), len(self.first_row)
        first_group = cut.group[cut.step_at]
        size = np.diff(np.append(cut.row_at, S))
        width = np.maximum.reduceat(size, first_group)[cut.step[cut.row_at]]  # its step's widest group
        end = np.cumsum(width)
        offset = end - width
        at = offset[cut.group] + np.arange(S) - cut.row_at[cut.group]
        slot = np.full(self.num_rows, G + B)
        slot[cut.rows[cut.row_at]] = np.arange(G)
        slot[self.first_row] = G + np.arange(B)
        span = np.zeros(int(width.sum()), dtype=np.int64)
        span[at] = cut.order
        source = np.full(len(span), G + B)
        source[at] = slot[self.start_row[cut.order]]
        bounds = np.append(first_group, G)
        cuts = zip(bounds[:-1].tolist(), bounds[1:].tolist(), offset[bounds[:-1]].tolist(), end[bounds[1:] - 1].tolist())
        steps = [(g, h, a, b, source[a:b].reshape(h - g, -1)) for g, h, a, b in cuts]
        return _Padded(span, source, offset, slot, steps)

    def find(self, sentence, u, v) -> np.ndarray:
        """Rows of spans (u, v) of sentences b of the block, 1-d (scalars broadcast), -1
        for a span not in its lattice. For 1 <= u <= v <= n the key
        start_row * num_rows + end_row is unique, and span order sorts it."""
        sentence, u, v = np.atleast_1d(*np.broadcast_arrays(sentence, u, v))
        first = self.first_row[sentence]
        key = (first + u - 1) * self.num_rows + first + v
        keys = self.start_row * self.num_rows + self.end_row
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        miss = (u < 1) | (v < u) | (first + v > self.last_row[sentence]) | (keys[at] != key)
        return np.where(miss, -1, at)

    def rows(self, sentence, u, v) -> np.ndarray:
        """find's rows; KeyError if a span is not in its lattice."""
        at = self.find(sentence, u, v)
        if (at < 0).any():
            b, u, v = (np.broadcast_to(x, at.shape)[np.argmax(at < 0)] for x in (sentence, u, v))
            raise KeyError(f"span ({u}, {v}) not in the lattice of sentence {b} of the block")
        return at


@dataclass(frozen=True, eq=False)
class ScoredBlock:
    """A block's layout, its labels and its factors (see module doc).

    Row s of emission is span s of the layout; all sentences share one
    transition table.
    """

    layout: Layout
    labels: tuple[str, ...]
    emission: np.ndarray
    transition: np.ndarray

    def __post_init__(self) -> None:
        K = len(self.labels)
        for name, want in (("emission", (len(self.layout.sentence), K)), ("transition", (K + 1, K))):
            table = getattr(self, name)
            if table.shape != want:
                raise ValueError(f"{name} shape {table.shape}, expected {want}")
            if not (table < np.inf).all():  # NaN and +inf both fail
                raise ValueError(f"{name} scores must be finite or -inf")


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


# A shifted sum below this may have lost digits to underflow; its row is redone.
_TINY = 1e-280
# Shifts are floored here, so an all -inf row or column never meets -inf - -inf;
# a row or column floored this way sums to 0 and is redone.
_FLOOR = -1e300


class _RowStep:
    """x -> logsumexp_p(x[r, p] + T[p, y]) for a fixed (K, K) table T (see module doc).

    The sum over p is np.einsum, not a matrix product: BLAS picks its kernel
    by the number of rows, and the result of a row must not depend on how
    many rows share its step.
    """

    def __init__(self, T: np.ndarray) -> None:
        self.T = T
        self.c = np.maximum(T.max(axis=0), _FLOOR)
        self.E = np.exp(T - self.c)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        a = np.maximum(x.max(axis=1), _FLOOR)[:, None]
        s = np.einsum("rp,py->ry", np.exp(x - a), self.E)
        low = None
        if s.min() <= _TINY:
            low = (s <= _TINY).any(axis=1)
            s[low] = 1.0
        out = np.log(s)
        out += a
        out += self.c
        if low is not None:
            out[low] = np.logaddexp.reduce(x[low, :, None] + self.T, axis=1)
        return out


def _sweep(steps: list[tuple], emission: np.ndarray, pushed: np.ndarray, reduced: np.ndarray, push: _RowStep) -> None:
    """One sum-product pass over the steps: each step combines pushed[src] +
    emission over the spans that write a row into reduced[dst], then pushes
    that row through push into pushed[dst]."""
    for idx, src, dst, starts in steps:
        rows = np.logaddexp.reduceat(pushed[src] + emission[idx], starts, axis=0)
        reduced[dst] = rows
        pushed[dst] = push(rows)


def forward(scored: ScoredBlock) -> tuple[np.ndarray, np.ndarray]:
    """alpha and the row messages G of the block.

    alpha[r, p]: log-sum of partial segmentations up to row r ending in
    label p; row off_b + j of sentence b is its position j. Column K is the
    begin sentinel, finite only at first rows; log Z is the logsumexp of
    alpha[last row, :K]. G[r, y] = logsumexp_p(alpha[r, p] + transition[p, y])
    is the score of entering label y from row r.
    """
    lay, K, trans = scored.layout, len(scored.labels), scored.transition
    alpha = np.full((lay.num_rows, K + 1), -np.inf)
    alpha[lay.first_row, K] = 0.0
    G = np.full((lay.num_rows, K), -np.inf)
    G[lay.first_row] = trans[K]
    _sweep(lay.forward_steps, scored.emission, G, alpha[:, :K], _RowStep(trans[:K]))
    return alpha, G


def backward(scored: ScoredBlock) -> tuple[np.ndarray, np.ndarray]:
    """beta and the row messages H of the block.

    beta[r, p]: log-sum of completions after row r given label p there (p =
    K, the begin sentinel, only at first rows). H[r, y]: log-sum of the
    completions after row r whose next segment has label y, without the
    transition into it, so beta[r, p] = logsumexp_y(transition[p, y] + H[r, y]).
    """
    lay, K, trans = scored.layout, len(scored.labels), scored.transition
    beta = np.full((lay.num_rows, K + 1), -np.inf)
    beta[lay.last_row, :K] = 0.0
    H = np.full((lay.num_rows, K), -np.inf)
    # the pull sums over the next label y: T[y, p] = transition[p, y]
    _sweep(lay.backward_steps, scored.emission, beta[:, :K], H, _RowStep(trans[:K].T))
    # at first rows only the begin sentinel precedes (the last step wrote them)
    first = lay.first_row
    beta[first, K] = np.logaddexp.reduce(trans[K] + H[first], axis=1)
    beta[first, :K] = -np.inf
    return beta, H


def _log_partitions(scored: ScoredBlock, alpha: np.ndarray) -> np.ndarray:
    logz = np.logaddexp.reduce(alpha[scored.layout.last_row, : len(scored.labels)], axis=1)
    if not np.isfinite(logz).all():
        raise InvariantViolation("non-finite partition function")
    return logz


def log_partition(scored: ScoredBlock) -> np.ndarray:
    """Log Z of every sentence of the block, shape (B,)."""
    return _log_partitions(scored, forward(scored)[0])


def posteriors(scored: ScoredBlock, fwd: tuple, bwd: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sentence log Z and the two sums of the factor marginals m that
    the gradient needs, given forward's and backward's results.

    label = m.sum(axis=1), shape (S, K): label[s, y] is the probability that
    span s is a segment with label y. pair = m.sum(axis=0), shape (K+1, K):
    the expected number of (p, y) transitions in the block.
    """
    (alpha, G), (beta, H) = fwd, bwd
    lay, K = scored.layout, len(scored.labels)
    logz = _log_partitions(scored, alpha)
    label = G[lay.start_row] + scored.emission
    label += beta[lay.end_row, :K]
    label -= logz[lay.sentence, None]
    pair = alpha[:, :, None] + scored.transition
    pair += H[:, None, :]
    pair -= logz[lay.row_sentence, None, None]
    return logz, np.exp(label, out=label), np.exp(pair, out=pair).sum(axis=0)


def viterbi(scored: ScoredBlock) -> list[tuple[Segmentation, float]]:
    """Maximum-scoring segmentation and its log-score, per sentence.

    Returns one (Segmentation, score) pair per sentence of the block, in
    sentence order. Ties prefer the shorter last segment, then the smaller
    previous-label id within a cell, then the smaller label id at the end
    boundary; with all scores equal this yields the all-singleton all-O
    segmentation.
    """
    lay, K, trans = scored.layout, len(scored.labels), scored.transition
    pad = lay.padded_steps
    G, B = len(pad.offset), len(lay.first_row)
    emission = scored.emission[pad.span]
    # per slot: vit, and per next label y the best max_p(vit[r, p] + transition[p, y])
    # (enter) and its first p (prev); choice[g, y] is the place of the best span in group g
    vit = np.full((G + B + 1, K), -np.inf)
    enter = np.full((G + B + 1, K), -np.inf)
    enter[G : G + B] = trans[K]
    prev = np.full((G + B + 1, K), K)
    choice = np.empty((G, K), dtype=np.intp)
    cand = np.empty((max(h - g for g, h, *_ in pad.steps), K, K))
    push = trans[:K]
    for g, h, a, b, source in pad.steps:
        val = enter[source]
        val += emission[a:b].reshape(val.shape)
        # argmax takes the first best, so the shorter span; the pads come last
        val.argmax(axis=1, out=choice[g:h])
        best = np.maximum.reduce(val, axis=1, out=vit[g:h])
        step = np.add(best[:, :, None], push, out=cand[: h - g])
        step.argmax(axis=1, out=prev[g:h])
        np.maximum.reduce(step, axis=1, out=enter[g:h])
    # state slot * (K + 1) + label, label K the begin sentinel: the best segment
    # ending at slot g with label y starts at slot r, after label prev[r, y];
    # first-row and pad states are their own predecessors
    pick = pad.offset[:, None] + choice
    start, seg = pad.source[pick], pad.span[pick]
    pred = np.arange((G + B + 1) * (K + 1)).reshape(G + B + 1, K + 1)
    pred[:G, :K] = start * (K + 1) + prev[start, np.arange(K)]
    pred = pred.ravel()
    last = pad.slot[lay.last_row]
    top = vit[last].max(axis=1)
    if not np.isfinite(top).all():
        raise InvariantViolation("no complete segmentation")
    last_len = (lay.end_row - lay.start_row)[seg[last]]
    y = np.where(vit[last] == top[:, None], last_len * K + np.arange(K), np.iinfo(np.int64).max).argmin(axis=1)
    # backtrace every sentence at once, one segment per round
    state, stop, path = last * (K + 1) + y, G * (K + 1), []
    while (state < stop).any():
        path.append(state)
        state = pred[state]
    if (state != (G + np.arange(B)) * (K + 1) + K).any():
        raise InvariantViolation("backtrace did not reach the begin sentinel")
    # per sentence, its segments from the first; a finished sentence's rounds hold its begin state
    path = np.stack(path[::-1], axis=1)
    keep = path < stop
    slot, label = np.divmod(path[keep], K + 1)
    span = seg[slot, label]
    segments = list(zip(map(tuple, lay.uv[span].tolist()), [scored.labels[k] for k in label.tolist()]))
    cuts = np.cumsum(keep.sum(axis=1)).tolist()
    return [(Segmentation(tuple(segments[lo:hi])), t) for lo, hi, t in zip([0] + cuts, cuts, top.tolist())]

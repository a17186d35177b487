"""Segment lattices: which (start, end) spans each model mode licenses.

LINEAR uses single-word segments only. SEMI allows every span up to the
length cap L. The dependency-guided lattices prune SEMI's span set using
the sentence's tree: DGM keeps spans covered by an increasing chain of
undirected arcs, DGM-S only spans covered by one arc. Single words are
always valid. A lattice is built on every call and never memoized; the
corpus statistics reduce the per-sentence records of one ``coverage`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import Sentence

LINEAR = "linear"
SEMI = "semi"
DGM_S = "dgm-s"
DGM = "dgm"
MODE_KINDS = (LINEAR, SEMI, DGM_S, DGM)


@dataclass(frozen=True)
class Mode:
    """Model family plus the maximum segment length L (ignored by LINEAR)."""

    kind: str
    max_len: int = 8

    def __post_init__(self) -> None:
        if self.kind not in MODE_KINDS:
            raise ValueError(f"unknown mode {self.kind!r}, expected one of {MODE_KINDS}")
        if not isinstance(self.max_len, int) or isinstance(self.max_len, bool):
            raise TypeError(f"max_len must be an integer, got {self.max_len!r}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")


@dataclass(frozen=True)
class SpanLattice:
    """Allowed (start, end) segments of one sentence, 1-based inclusive."""

    n: int
    allowed: frozenset[tuple[int, int]]

    def sorted_spans(self) -> tuple[tuple[int, int], ...]:
        """The allowed spans in sorted order."""
        return tuple(sorted(self.allowed))

    def __len__(self) -> int:
        return len(self.allowed)


def chain_spans(n: int, arcs: frozenset[tuple[int, int]], max_len: int) -> frozenset[tuple[int, int]]:
    """Spans covered by an increasing chain of undirected arcs, plus singletons.

    (u,v) qualifies iff there are u = u1 < u2 < ... < uk+1 = v with every
    consecutive pair an arc. One pass over end positions: bit u of the
    Python int reach[v] is set iff (u, v) qualifies, so reach[v] is bit v
    OR'd with reach[w] for every arc (w, v) with w < v, cut to the starts
    within max_len (a chain's prefix spans are shorter, so no cut loses one).
    """
    into: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in arcs:
        into[max(a, b)].append(min(a, b))
    reach = [0] * (n + 1)
    spans = []
    for v in range(1, n + 1):
        bits = 1 << v
        for w in into[v]:
            bits |= reach[w]
        reach[v] = bits = bits & -1 << max(v - max_len + 1, 1)
        while bits:
            low = bits & -bits
            spans.append((low.bit_length() - 1, v))
            bits ^= low
    return frozenset(spans)


def arc_spans(n: int, arcs: frozenset[tuple[int, int]], max_len: int) -> frozenset[tuple[int, int]]:
    """Spans covered by a single undirected arc, plus singletons."""
    spans = {(i, i) for i in range(1, n + 1)}
    spans.update((u, v) for u, v in arcs if v - u + 1 <= max_len)
    return frozenset(spans)


def build_lattice(sentence: Sentence, mode: Mode) -> SpanLattice:
    """Allowed segments of the sentence under the mode."""
    n, max_len = sentence.n, mode.max_len
    if mode.kind == LINEAR:
        allowed = frozenset((i, i) for i in range(1, n + 1))
    elif mode.kind == SEMI:
        allowed = frozenset((u, v) for u in range(1, n + 1) for v in range(u, min(n, u + max_len - 1) + 1))
    elif mode.kind == DGM_S:
        allowed = arc_spans(n, sentence.tree.arcs, max_len)
    else:
        allowed = chain_spans(n, sentence.tree.arcs, max_len)
    return SpanLattice(n, allowed)


def edge_count(lattice: SpanLattice, num_labels: int) -> int:
    """Scored factors in the lattice: every span pairs |T|^2 label combinations."""
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    return len(lattice.allowed) * num_labels * num_labels


def coverage(sentences: Sequence[Sentence], mode: Mode) -> list[tuple[int, int, int, int]]:
    """Per sentence, from one lattice build: (n, spans, gold entities, entities whose span is allowed)."""
    records = []
    for sent in sentences:
        allowed = build_lattice(sent, mode).allowed
        inside = sum((span.start, span.end) in allowed for span in sent.gold)
        records.append((sent.n, len(allowed), len(sent.gold), inside))
    return records


def _edges_per_token(records: Sequence[tuple[int, int, int, int]], num_labels: int) -> float:
    if not records:
        raise ValueError("empty corpus")
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    total = 0.0
    for n, spans, _, _ in records:
        total += spans * num_labels * num_labels / n
    return total / len(records)


def _representability(records: Sequence[tuple[int, int, int, int]]) -> tuple[int, int, float]:
    total = sum(entities for _, _, entities, _ in records)
    representable = sum(inside for _, _, _, inside in records)
    return total, representable, 100.0 * representable / total if total else 100.0


def average_edges_per_token(sentences: Sequence[Sentence], mode: Mode, num_labels: int) -> float:
    """Mean over sentences of edge_count / sentence length.

    This is the per-token average of per-sentence ratios, not the pooled
    ratio: sum_i (E_i / n_i) / N.
    """
    return _edges_per_token(coverage(sentences, mode), num_labels)


def representability_stats(sentences: Sequence[Sentence], mode: Mode) -> tuple[int, int, float]:
    """(total, representable, percentage) of the gold entities under the mode's
    lattices; a corpus with no entities reports 100%."""
    return _representability(coverage(sentences, mode))

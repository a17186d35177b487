"""Segment lattices: which (start, end) spans each model mode licenses.

LINEAR uses single-word segments only. SEMI allows every span up to the
length cap L. The dependency-guided lattices prune SEMI's span set using
the sentence's tree: DGM keeps spans covered by an increasing chain of
undirected arcs, DGM-S only spans covered by one arc. Single words are
always valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
        """The allowed spans in sorted order, sorted once per lattice."""
        return self._sorted_spans

    @cached_property
    def _sorted_spans(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.allowed))

    def __len__(self) -> int:
        return len(self.allowed)


def chain_spans(n: int, arcs: frozenset[tuple[int, int]], max_len: int) -> frozenset[tuple[int, int]]:
    """Spans covered by an increasing chain of undirected arcs, plus singletons.

    (u,v) qualifies iff there are u = u1 < u2 < ... < uk+1 = v with every
    consecutive pair an arc. Computed by chain extension: reach(u, v) holds
    if (u,v) is an arc or some reached w in (u,v) has an arc to v. Runs in
    O(sum of degrees) per start index.
    """
    neighbors: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for a, b in arcs:
        neighbors[a].append(b)
        neighbors[b].append(a)

    spans = {(i, i) for i in range(1, n + 1)}
    for u in range(1, n + 1):
        reached = [False] * (n + 2)
        reached[u] = True
        last = min(n, u + max_len - 1)
        for v in range(u + 1, last + 1):
            if any(u <= w < v and reached[w] for w in neighbors[v]):
                reached[v] = True
                spans.add((u, v))
    return frozenset(spans)


def arc_spans(n: int, arcs: frozenset[tuple[int, int]], max_len: int) -> frozenset[tuple[int, int]]:
    """Spans covered by a single undirected arc, plus singletons."""
    spans = {(i, i) for i in range(1, n + 1)}
    spans.update((u, v) for u, v in arcs if v - u + 1 <= max_len)
    return frozenset(spans)


# Lattices depend only on (tree, mode, L) and are memoized so repeated passes
# reuse them. The bound keeps a long-lived process from holding every tree it
# ever saw, while a 500-sentence corpus stays memoized across CV folds.
_LATTICE_MEMO_SIZE = 1024


@lru_cache(maxsize=_LATTICE_MEMO_SIZE)
def _lattice(n: int, arcs: frozenset[tuple[int, int]], kind: str, max_len: int) -> SpanLattice:
    if kind == LINEAR:
        allowed = frozenset((i, i) for i in range(1, n + 1))
    elif kind == SEMI:
        allowed = frozenset(
            (u, v) for u in range(1, n + 1) for v in range(u, min(n, u + max_len - 1) + 1)
        )
    elif kind == DGM_S:
        allowed = arc_spans(n, arcs, max_len)
    else:
        allowed = chain_spans(n, arcs, max_len)
    return SpanLattice(n, allowed)


def build_lattice(sentence: Sentence, mode: Mode) -> SpanLattice:
    """Allowed segments of the sentence under the mode."""
    return _lattice(sentence.n, sentence.tree.arcs, mode.kind, mode.max_len)


def edge_count(lattice: SpanLattice, num_labels: int) -> int:
    """Scored factors in the lattice: every span pairs |T|^2 label combinations."""
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    return len(lattice.allowed) * num_labels * num_labels


def average_edges_per_token(sentences: Sequence[Sentence], mode: Mode, num_labels: int) -> float:
    """Mean over sentences of edge_count / sentence length.

    This is the per-token average of per-sentence ratios, not the pooled
    ratio: sum_i (E_i / n_i) / N.
    """
    if not sentences:
        raise ValueError("empty corpus")
    total = 0.0
    for sent in sentences:
        total += edge_count(build_lattice(sent, mode), num_labels) / sent.n
    return total / len(sentences)

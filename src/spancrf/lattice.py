"""Segment lattices: which (start, end) spans each model mode licenses.

LINEAR uses single-word segments only. SEMI allows every span up to the
length cap L. The dependency-guided lattices prune SEMI's span set using
the sentence's tree: DGM keeps spans covered by an increasing chain of
undirected arcs, DGM-S only spans covered by one arc. Single words are
always valid. One builder, block_spans, decides this for all four modes,
for a whole block at once; build_lattice is its per-sentence view. Nothing
is memoized; the corpus statistics reduce the records of one coverage pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

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

    def __len__(self) -> int:
        return len(self.allowed)


def _spans(lengths: np.ndarray, lo: np.ndarray, hi: np.ndarray, mode: Mode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """block_spans of a block given as its sentence lengths and its undirected
    arcs lo < hi, as block-global 0-based token indices.

    SEMI's spans start at every token and reach up to L tokens within the
    sentence; LINEAR is SEMI with L = 1. DGM-S adds the arcs shorter than L to
    the singletons. DGM starts from those arcs, and each round extends the
    last round's spans (u, w) along every arc (w, v) with v - u < L: a tree
    has one path between two tokens, so each span is reached once.
    """
    max_len = 1 if mode.kind == LINEAR else mode.max_len
    first = np.cumsum(lengths) - lengths
    sentence_of = np.repeat(np.arange(len(lengths)), lengths)
    token = np.arange(len(sentence_of))
    if mode.kind in (LINEAR, SEMI):
        reach = np.minimum(max_len, (first + lengths)[sentence_of] - token)
        u = np.repeat(token, reach)
        v = u + np.arange(len(u)) - np.repeat(np.cumsum(reach) - reach, reach)
    else:
        lo, hi = lo[hi - lo < max_len], hi[hi - lo < max_len]
        parts = [(token, token), (lo, hi)]
        order = np.argsort(lo)  # the arcs out of token w are out_end[out_ptr[w] : out_ptr[w + 1]]
        out_ptr, out_end = np.searchsorted(lo[order], np.arange(len(token) + 1)), hi[order]
        while mode.kind == DGM and len(parts[-1][0]):
            u, w = parts[-1]
            count = out_ptr[w + 1] - out_ptr[w]
            at = np.arange(count.sum()) + np.repeat(out_ptr[w] - np.cumsum(count) + count, count)
            u, w = np.repeat(u, count), out_end[at]
            parts.append((u[w - u < max_len], w[w - u < max_len]))
        u, v = map(np.concatenate, zip(*parts))
        order = np.argsort(u * len(token) + v)
        u, v = u[order], v[order]
    sentence = sentence_of[u]
    return sentence, u - first[sentence] + 1, v - first[sentence] + 1


def block_spans(sentences: Sequence[Sentence], mode: Mode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The allowed spans of a block of sentences under the mode, as int arrays
    (sentence, u, v) of 1-based inclusive (u, v) spans of sentence b of the
    block, sorted by sentence, then u, then v. Single words are always allowed."""
    lengths = np.array([sentence.n for sentence in sentences], dtype=np.int64)
    heads = np.fromiter(chain.from_iterable(s.tree.heads for s in sentences), dtype=np.int64, count=int(lengths.sum()))
    dependent = np.flatnonzero(heads)
    head = np.repeat(np.cumsum(lengths) - lengths, lengths)[dependent] + heads[dependent] - 1
    return _spans(lengths, np.minimum(dependent, head), np.maximum(dependent, head), mode)


def build_lattice(sentence: Sentence, mode: Mode) -> SpanLattice:
    """Allowed segments of the sentence under the mode: block_spans of a block of one."""
    _, u, v = block_spans([sentence], mode)
    return SpanLattice(sentence.n, frozenset(zip(u.tolist(), v.tolist())))


def edge_count(lattice: SpanLattice, num_labels: int) -> int:
    """Scored factors in the lattice: every span pairs |T|^2 label combinations."""
    if num_labels < 1:
        raise ValueError(f"num_labels must be >= 1, got {num_labels}")
    return len(lattice.allowed) * num_labels * num_labels


def coverage(sentences: Sequence[Sentence], mode: Mode) -> list[tuple[int, int, int, int]]:
    """Per sentence, from one block_spans call: (n, spans, gold entities, entities whose span is allowed)."""
    sentence, u, v = block_spans(sentences, mode)
    gold = np.array([(b, g.start, g.end) for b, s in enumerate(sentences) for g in s.gold], dtype=np.int64).reshape(-1, 3).T
    width = max((s.n for s in sentences), default=0) + 1  # (b, u, v) -> (b * width + u) * width + v is one-to-one
    inside = np.isin((gold[0] * width + gold[1]) * width + gold[2], (sentence * width + u) * width + v)
    counts = [np.bincount(b, minlength=len(sentences)).tolist() for b in (sentence, gold[0], gold[0][inside])]
    return list(zip([s.n for s in sentences], *counts))


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

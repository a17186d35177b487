"""Sentence data model and CoNLL-style file I/O.

A corpus file is UTF-8 text, with or without a byte-order mark, with one
token per line and blank lines between sentences. Each token line carries
at least 6 tab-separated columns:

    index  surface  pos  head  deprel  ner-tag

``index`` counts from 1 inside each sentence, ``head`` is the 1-based index
of the token's head (0 for the root), and ``ner-tag`` uses the IOB2 scheme.
Lines starting with '#' are comments. A 7th column (predicted tags) is
tolerated on input and ignored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

logger = logging.getLogger(__name__)


class ConllParseError(Exception):
    """Malformed corpus file; the message names the offending line."""


class SerializationError(Exception):
    """Sentences or predictions that cannot be written so that they read back unchanged."""


@dataclass(frozen=True)
class Token:
    surface: str
    pos: str

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("empty surface form")
        if not self.pos:
            raise ValueError("empty POS tag")


@dataclass(frozen=True)
class DependencyTree:
    """Single-rooted dependency tree over tokens 1..n.

    heads[i-1] is the head of token i, with 0 marking the artificial root.
    labels[i-1] is the relation label of the arc from the head to token i.
    Trees may be non-projective.
    """

    heads: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.heads)
        if n == 0:
            raise ValueError("tree over zero tokens")
        if len(self.labels) != n:
            raise ValueError(f"{n} heads but {len(self.labels)} labels")
        roots = [i for i, h in enumerate(self.heads, start=1) if h == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        for i, h in enumerate(self.heads, start=1):
            if not 0 <= h <= n:
                raise ValueError(f"head {h} of token {i} out of range 0..{n}")
        # every token must reach the root. A walk up the heads stops at a node an
        # earlier walk reached, which reaches the root, so each node is walked once;
        # meeting its own walk again is a cycle
        walk = [-1] + [0] * n  # the walk that first reached each token; 0 for none yet
        for i in range(1, n + 1):
            j = i
            while walk[j] == 0:
                walk[j] = i
                j = self.heads[j - 1]
            if walk[j] == i:
                raise ValueError(f"cyclic head assignment through token {j}")

    @property
    def n(self) -> int:
        return len(self.heads)

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Undirected word-word arcs as (min, max) pairs; the root arc to node 0 is not a word arc."""
        return frozenset(
            (min(i, h), max(i, h))
            for i, h in enumerate(self.heads, start=1)
            if h != 0
        )

    @property
    def root(self) -> int:
        return self.heads.index(0) + 1


@dataclass(frozen=True)
class EntitySpan:
    """Typed entity over tokens start..end, 1-based inclusive."""

    start: int
    end: int
    etype: str

    def __post_init__(self) -> None:
        if not 1 <= self.start <= self.end:
            raise ValueError(f"bad span boundaries ({self.start},{self.end})")
        if not self.etype or self.etype == "O":
            raise ValueError(f"bad entity type {self.etype!r}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    tree: DependencyTree
    gold: tuple[EntitySpan, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if n == 0:
            raise ValueError("empty sentence")
        if self.tree.n != n:
            raise ValueError(f"tree covers {self.tree.n} tokens, sentence has {n}")
        prev_end = 0
        for span in self.gold:
            if span.start <= prev_end:
                raise ValueError(f"gold spans overlap or are unsorted at ({span.start},{span.end})")
            if span.end > n:
                raise ValueError(f"gold span ({span.start},{span.end}) beyond sentence length {n}")
            prev_end = span.end

    @property
    def n(self) -> int:
        return len(self.tokens)


class LabelSet:
    """Entity-type inventory plus the distinguished non-entity label O.

    O always gets id 0; entity types follow in the order given (first seen
    wins). len() counts O, so |T| = entity types + 1.
    """

    def __init__(self, entity_types: Iterable[str] = ()):
        ordered: dict[str, None] = {}
        for t in entity_types:
            if t != "O":
                ordered[t] = None
        self.entity_types: tuple[str, ...] = tuple(ordered)
        self.labels: tuple[str, ...] = ("O",) + self.entity_types
        self._ids = {lab: i for i, lab in enumerate(self.labels)}

    @classmethod
    def from_corpus(cls, sentences: Sequence[Sentence]) -> "LabelSet":
        return cls(span.etype for sent in sentences for span in sent.gold)

    def label_id(self, label: str) -> int:
        return self._ids[label]

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __repr__(self) -> str:
        return f"LabelSet({list(self.labels)!r})"


def spans_to_iob(spans: Iterable[EntitySpan], n: int) -> list[str]:
    """Render entity spans as an IOB2 tag sequence of length n."""
    tags = ["O"] * n
    for span in spans:
        if span.end > n:
            raise SerializationError(f"span ({span.start},{span.end}) beyond sentence length {n}")
        if any(tags[i - 1] != "O" for i in range(span.start, span.end + 1)):
            raise SerializationError(f"overlapping span ({span.start},{span.end},{span.etype})")
        tags[span.start - 1] = f"B-{span.etype}"
        for i in range(span.start + 1, span.end + 1):
            tags[i - 1] = f"I-{span.etype}"
    return tags


def _check_tag(tag: str) -> None:
    if tag == "O":
        return
    if len(tag) > 2 and tag[0] in "BI" and tag[1] == "-":
        return
    raise ValueError(f"malformed IOB2 tag {tag!r}")


def iob_to_spans(tags: Sequence[str]) -> tuple[tuple[EntitySpan, ...], tuple[int, ...]]:
    """Decode IOB2 tags into entity spans.

    An I-X tag following O, nothing, or a different type is repaired by
    treating it as B-X. Returns (spans, positions repaired), positions
    1-based.
    """
    spans: list[EntitySpan] = []
    repaired: list[int] = []
    start = 0
    etype = ""

    def flush(end: int) -> None:
        nonlocal start
        if start:
            spans.append(EntitySpan(start, end, etype))
            start = 0

    for i, tag in enumerate(tags, start=1):
        _check_tag(tag)
        if tag == "O":
            flush(i - 1)
        elif tag.startswith("B-"):
            flush(i - 1)
            start, etype = i, tag[2:]
        else:  # I-X
            if start and etype == tag[2:]:
                continue
            flush(i - 1)
            repaired.append(i)
            start, etype = i, tag[2:]
    flush(len(tags))
    return tuple(spans), tuple(repaired)


def _sentence_lines(path):
    """The token lines of each sentence of a CoNLL-style file, as a list of
    (1-based line number, tab-separated columns). A leading BOM is skipped,
    lines starting with '#' are comments and blank lines end a sentence."""
    lines = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                continue
            if line.strip():
                lines.append((lineno, line.split("\t")))
            elif lines:
                yield lines
                lines = []
    if lines:
        yield lines


def read_conll(path) -> list[Sentence]:
    """Parse a CoNLL-style file into sentences.

    Raises ConllParseError naming the 1-based line number for malformed
    rows, bad head indices, or invalid trees.
    """
    sentences: list[Sentence] = []
    for lines in _sentence_lines(path):
        tokens: list[Token] = []
        heads: list[int] = []
        deprels: list[str] = []
        tags: list[str] = []
        for lineno, cols in lines:
            if len(cols) < 6:
                raise ConllParseError(
                    f"line {lineno}: expected at least 6 tab-separated columns, got {len(cols)}"
                )
            try:
                index = int(cols[0])
            except ValueError:
                raise ConllParseError(f"line {lineno}: non-integer token index {cols[0]!r}") from None
            if index != len(tokens) + 1:
                raise ConllParseError(
                    f"line {lineno}: token index {index} out of sequence (expected {len(tokens) + 1})"
                )
            try:
                head = int(cols[3])
            except ValueError:
                raise ConllParseError(f"line {lineno}: non-integer head {cols[3]!r}") from None
            try:
                _check_tag(cols[5])
                tokens.append(Token(cols[1], cols[2]))
            except ValueError as exc:
                raise ConllParseError(f"line {lineno}: {exc}") from exc
            heads.append(head)
            deprels.append(cols[4])
            tags.append(cols[5])
        try:
            tree = DependencyTree(tuple(heads), tuple(deprels))
        except ValueError as exc:
            raise ConllParseError(f"sentence starting at line {lines[0][0]}: {exc}") from exc
        spans, repaired = iob_to_spans(tags)
        for pos in repaired:
            logger.debug(
                "line %d: %s without an open entity of its type, repaired to B-",
                lines[pos - 1][0],
                tags[pos - 1],
            )
        sentences.append(Sentence(tuple(tokens), tree, spans))
    return sentences


def write_conll(sentences: Sequence[Sentence], predictions, path) -> None:
    """Write sentences in the input format, optionally adding a 7th column of predicted IOB2 tags.

    predictions is a per-sentence sequence of EntitySpan lists aligned 1:1
    with sentences, or None for a 6-column file. Reading the output back
    reproduces the sentences exactly; a surface, POS tag, relation or entity
    type holding a tab or line break raises SerializationError instead.
    Every line is rendered and checked before path is opened, so an error
    leaves path as it was.
    """
    if predictions is not None and len(predictions) != len(sentences):
        raise SerializationError(
            f"{len(predictions)} prediction lists for {len(sentences)} sentences"
        )
    lines = []
    for idx, sent in enumerate(sentences):
        gold_tags = spans_to_iob(sent.gold, sent.n)
        pred_tags = None
        if predictions is not None:
            try:
                pred_tags = spans_to_iob(predictions[idx], sent.n)
            except SerializationError as exc:
                raise SerializationError(f"sentence {idx + 1}: {exc}") from exc
        for i in range(sent.n):
            cols = [
                str(i + 1),
                sent.tokens[i].surface,
                sent.tokens[i].pos,
                str(sent.tree.heads[i]),
                sent.tree.labels[i],
                gold_tags[i],
            ]
            if pred_tags is not None:
                cols.append(pred_tags[i])
            line = "\t".join(cols)
            if line.count("\t") >= len(cols) or "\n" in line or "\r" in line:
                raise SerializationError(f"sentence {idx + 1}, token {i + 1}: a field of {line!r} holds a tab or line break")
            lines.append(line + "\n")
        lines.append("\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


def read_predictions(path) -> list[list[EntitySpan]]:
    """Read the 7th (prediction) column of an annotated file as entity spans per sentence."""
    predictions: list[list[EntitySpan]] = []
    for lines in _sentence_lines(path):
        tags: list[str] = []
        for lineno, cols in lines:
            if len(cols) < 7:
                raise ConllParseError(f"line {lineno}: no prediction column (need 7, got {len(cols)})")
            try:
                _check_tag(cols[6])
            except ValueError as exc:
                raise ConllParseError(f"line {lineno}: {exc}") from exc
            tags.append(cols[6])
        predictions.append(list(iob_to_spans(tags)[0]))
    return predictions

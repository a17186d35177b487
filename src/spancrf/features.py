"""Feature templates and the block featurizer that compiles them into span rows.

A template is a string with a template-name prefix, so no two templates
can collide: "w:Ami", "seg:Shlomo Ben - Ami". Templates carry no label.
Every lattice span gets one row of template counts, and the weight of a
template for a label is one cell of the model's weight matrix, so labels
and transitions need no strings (training.py describes that matrix). The
FeatureIndex maps template strings to dense ids; while unfrozen it
allocates on sight, after freeze() unseen strings are dropped.

Position templates (one row per token, linear mode), in row order:
w, p, pw, pp, sh, psh (current/previous word, POS and word shape, <BOS>
before the first token), then pre1..pre3 and suf1..suf3 of the current
word (up to its length). Segment templates (one row per span u..v), in
row order: bw, bp, bsh and aw, ap, ash (word/POS/shape before and after
the segment, <BOS>/<EOS> at the sentence edges), sw, ew, sp, ep
(start/end word and POS), len, seg (the surface form joined by spaces),
prefixes of the first word, suffixes of the last, then iw:o, ip:o, ish:o
for each offset o = 1..v-u+1. Dependency templates dw (word+head),
dwl (word+head+relation), dp (POS+headPOS) and dpl (POS+headPOS+relation)
follow, for the current position or for every token of the segment; the
head of the root token is <ROOT>. A template repeated within a row (only
dependency templates can repeat) is one entry with its count, at its
first occurrence.

block_rows builds these rows for a whole block of sentences at once.
Every distinct word, POS tag, shape and (word or POS, head's) pair of the
block gets its template strings once (a shape is computed once per
distinct word), and the rows are assembled from those id tables by array
gathers; only the seg string is formatted per span. When decoding, the
index is frozen and each string is looked up in it directly; an unseen
template gets id -1 and leaves its row. When training, each string first
gets a block-local id, and the local ids that occur are then interned
once per distinct string, in the order of first occurrence in the rows,
so the template index and the rows are those of interning every row's
templates one by one.
"""

from __future__ import annotations

import numpy as np

from .corpus import Sentence

BOS = "<BOS>"
EOS = "<EOS>"
ROOT = "<ROOT>"


class FeatureIndex:
    """String-to-id dictionary with dense ids in insertion order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._frozen = False

    @classmethod
    def frozen_from(cls, strings: list[str]) -> "FeatureIndex":
        """A frozen index giving the distinct strings ids 0, 1, ... in order."""
        index = cls()
        index._ids, index._frozen = dict(zip(strings, range(len(strings)))), True
        if len(index) != len(strings):
            raise ValueError("repeated template strings")
        return index

    def intern(self, feature: str) -> int | None:
        """Id of the feature, allocating a new one unless frozen. None if frozen and unseen."""
        fid = self._ids.get(feature)
        if fid is None and not self._frozen:
            fid = len(self._ids)
            self._ids[feature] = fid
        return fid

    def lookup(self, feature: str) -> int | None:
        return self._ids.get(feature)

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def strings(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def __contains__(self, feature: str) -> bool:
        return feature in self._ids

    def __len__(self) -> int:
        return len(self._ids)


def word_shape(surface: str) -> str:
    """Character-class sketch of a word, truncated to 4 characters.

    Uppercase -> X, lowercase -> x, digit -> d, anything else kept as is:
    "Ami" -> "Xxx", "Minister" -> "Xxxx", "-" -> "-".
    """
    if not surface:
        raise ValueError("empty surface form")
    out = []
    for ch in surface[:4]:
        if ch.isupper():
            out.append("X")
        elif ch.islower():
            out.append("x")
        elif ch.isdigit():
            out.append("d")
        else:
            out.append(ch)
    return "".join(out)


class _TemplateIds:
    """Template ids keyed by template string. Against a frozen index they are
    its ids, -1 for a template it has not seen; otherwise they are block-local
    ids allocated on sight, which block_rows maps to the index afterwards."""

    def __init__(self, index: FeatureIndex) -> None:
        self.frozen = index.frozen
        self.ids: dict[str, int] = index._ids if self.frozen else {}

    def table(self, prefix: str, values: list[str]) -> np.ndarray:
        """Ids of prefix + value for each value."""
        ids = self.ids
        if self.frozen:
            return np.array([ids.get(prefix + v, -1) for v in values], dtype=np.int32)
        return np.array([ids.setdefault(prefix + v, len(ids)) for v in values], dtype=np.int32)


def _codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct values in first-seen order, and the code of each value."""
    seen: dict[str, int] = {}
    codes = [seen.setdefault(v, len(seen)) for v in values]
    return list(seen), np.array(codes, dtype=np.intp)


class _Tokens:
    """The block's tokens, flattened: word, POS and shape codes per token.

    fields lists (name, distinct values, code per token) for the word ("w"),
    POS ("p") and shape ("sh"); a shape is computed once per distinct word.
    """

    def __init__(self, sentences: list[Sentence]) -> None:
        self.sentences = sentences
        self.words = [t.surface for s in sentences for t in s.tokens]
        lengths = np.array([s.n for s in sentences], dtype=np.intp)
        self.first = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        self.last = self.first + lengths - 1
        words, self.word = _codes(self.words)
        tags, self.tag = _codes([t.pos for s in sentences for t in s.tokens])
        shapes, shape_of_word = _codes([word_shape(w) for w in words])
        self.shape = shape_of_word[self.word]
        self.fields = (("w", words, self.word), ("p", tags, self.tag), ("sh", shapes, self.shape))

    def neighbour(self, codes: np.ndarray, step: int, sentinel: int) -> np.ndarray:
        """Code of each token's previous (step -1) or next (step 1) token, sentinel at the sentence edge."""
        out = np.roll(codes, -step)
        out[self.first if step < 0 else self.last] = sentinel
        return out

    def affixes(self, templates: _TemplateIds) -> tuple[np.ndarray, np.ndarray]:
        """(N, 3) ids of pre1..pre3 and suf1..suf3 of each token's word, -1 past its length."""
        words = self.fields[0][1]  # the distinct words
        pre = np.full((len(words), 3), -1, dtype=np.int32)
        suf = np.full((len(words), 3), -1, dtype=np.int32)
        for k in range(1, 4):
            fits = [i for i, w in enumerate(words) if len(w) >= k]
            pre[fits, k - 1] = templates.table(f"pre{k}:", [words[i][:k] for i in fits])
            suf[fits, k - 1] = templates.table(f"suf{k}:", [words[i][-k:] for i in fits])
        return pre[self.word], suf[self.word]

    def dependencies(self, templates: _TemplateIds) -> np.ndarray:
        """(N, 4) ids of dw, dwl, dp, dpl of every token. Each distinct (word
        or POS, head's word or POS) pair, and each pair with its relation, is
        formatted once."""
        heads = np.array([h for s in self.sentences for h in s.tree.heads], dtype=np.intp)
        head_at = np.repeat(self.first, self.last - self.first + 1) + heads - 1
        rels, rel = _codes([r for s in self.sentences for r in s.tree.labels])
        num_rels = len(rels)
        columns = []
        for name, values, codes in self.fields[:2]:
            # pair code k: value k // width, head's value k % width (len(values) is <ROOT>)
            width, heads_of = len(values) + 1, values + [ROOT]
            head = np.where(heads == 0, len(values), codes[head_at])
            pair, pair_of = np.unique(codes * width + head, return_inverse=True)
            pairs = [f"{values[k // width]}+{heads_of[k % width]}" for k in pair.tolist()]
            # labeled code k: pair k // num_rels, relation k % num_rels
            labeled, labeled_of = np.unique(pair_of * num_rels + rel, return_inverse=True)
            labeled_pairs = [f"{pairs[k // num_rels]}+{rels[k % num_rels]}" for k in labeled.tolist()]
            columns.append(templates.table(f"d{name}:", pairs)[pair_of])
            columns.append(templates.table(f"d{name}l:", labeled_pairs)[labeled_of])
        return np.column_stack(columns)


def _offset_ids(templates: _TemplateIds, name: str, values: list[str], codes: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Ids of name:offset:value for value codes at 1-based offsets. Strings
    are made per value only up to the largest offset it is seen at."""
    reach = np.zeros(len(values), dtype=np.intp)
    np.maximum.at(reach, codes, offset)
    table = np.full((len(values), int(reach.max(initial=0))), -1, dtype=np.int32)
    for o in range(1, table.shape[1] + 1):
        have = np.flatnonzero(reach >= o)
        table[have, o - 1] = templates.table(f"{name}:{o}:", [values[i] for i in have])
    return table[codes, offset - 1]


def _pack(head: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows that start with the present (>= 0) ids of their row of head, then
    leave tail[r] slots free: (indptr, ids, offset of each row's tail)."""
    present = head >= 0
    width = present.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(width + tail)))
    ids = np.empty(int(indptr[-1]), dtype=np.int32)
    ids[(indptr[:-1, None] + np.cumsum(present, axis=1) - 1)[present]] = head[present]
    return indptr, ids, indptr[:-1] + width


def _position_rows(tokens: _Tokens, templates: _TemplateIds, i: np.ndarray, dep: bool) -> tuple[np.ndarray, np.ndarray]:
    """indptr and ids of the position templates of tokens i."""
    (_, words, word), (_, tags, tag), (_, shapes, shape) = tokens.fields
    prev = [tokens.neighbour(codes, -1, len(values)) for _, values, codes in tokens.fields]
    pre, suf = tokens.affixes(templates)
    columns = [
        templates.table("w:", words)[word],
        templates.table("p:", tags)[tag],
        templates.table("pw:", words + [BOS])[prev[0]],
        templates.table("pp:", tags + [BOS])[prev[1]],
        templates.table("sh:", shapes)[shape],
        templates.table("psh:", shapes + [BOS])[prev[2]],
        pre,
        suf,
    ]
    if dep:
        columns.append(tokens.dependencies(templates))
    indptr, ids, _ = _pack(np.column_stack(columns)[i], np.zeros(len(i), dtype=np.intp))
    return indptr, ids


def _segment_rows(
    tokens: _Tokens, templates: _TemplateIds, start: np.ndarray, end: np.ndarray, dep: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, ids and counts of the segment templates of the spans
    start..end (0-based token indices of the block, inclusive)."""
    length = end - start + 1
    words = tokens.words
    seg = templates.table("seg:", [" ".join(words[a : b + 1]) for a, b in zip(start.tolist(), end.tolist())])
    pre, suf = tokens.affixes(templates)
    before = [
        templates.table(f"b{name}:", values + [BOS])[tokens.neighbour(codes, -1, len(values))[start]]
        for name, values, codes in tokens.fields
    ]
    after = [
        templates.table(f"a{name}:", values + [EOS])[tokens.neighbour(codes, 1, len(values))[end]]
        for name, values, codes in tokens.fields
    ]
    (_, word_list, word), (_, tag_list, tag), _ = tokens.fields
    head = np.column_stack(
        before
        + after
        + [
            templates.table("sw:", word_list)[word[start]],
            templates.table("ew:", word_list)[word[end]],
            templates.table("sp:", tag_list)[tag[start]],
            templates.table("ep:", tag_list)[tag[end]],
            templates.table("len:", [str(k) for k in range(1, int(length.max()) + 1)])[length - 1],
            seg,
            pre[start],
            suf[end],
        ]
    )
    # after the head: iw, ip, ish for each offset, then dw, dwl, dp, dpl for each offset
    indptr, ids, tail = _pack(head, (3 + 4 * dep) * length)
    row = np.repeat(np.arange(len(start)), length)
    offset = np.arange(len(row)) - np.repeat(np.cumsum(length) - length, length)
    token = start[row] + offset
    at = tail[row] + 3 * offset
    for k, (name, values, codes) in enumerate(tokens.fields):
        ids[at + k] = _offset_ids(templates, f"i{name}", values, codes[token], offset + 1)
    counts = np.ones(len(ids), dtype=np.int32)
    if dep:
        cells = ((tail + 3 * length)[row] + 4 * offset)[:, None] + np.arange(4)
        ids[cells] = tokens.dependencies(templates)[token]
        # one token's four templates differ, so only rows of several tokens can repeat one
        multi = length[row] > 1
        counts, keep = _merge_repeats(ids, row[multi], cells[multi].ravel(), len(templates.ids))
        ids, counts = ids[keep], counts[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    return indptr, ids, counts


def _merge_repeats(ids: np.ndarray, row: np.ndarray, cells: np.ndarray, num_ids: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts of ids and a keep mask: within each row, the first of the cells
    holding one id keeps the count of them all, the others are dropped.
    cells are positions into ids in increasing order, 4 per entry of row; an
    id is -1 (unknown) or below num_ids, so no two rows share a key."""
    key = np.repeat(row, 4).astype(np.int64) * (num_ids + 1) + ids[cells] + 1
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = sorted_key[1:] != sorted_key[:-1]
    group_start = np.flatnonzero(new)
    counts = np.ones(len(ids), dtype=np.int32)
    counts[cells[order[group_start]]] = np.diff(np.append(group_start, len(key)))
    keep = np.ones(len(ids), dtype=bool)
    keep[cells[order[~new]]] = False
    return counts, keep


def block_rows(
    sentences: list[Sentence],
    sentence: np.ndarray,
    uv: np.ndarray,
    segments: bool,
    dep: bool,
    index: FeatureIndex,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) of the template rows of a block.

    Row r is span uv[r] = (u, v), 1-based, of sentences[sentence[r]].
    segments selects segment templates; otherwise a span (i, i) gets the
    position templates of token i. Templates get their ids from index: a
    frozen index is read directly and leaves unseen templates out of their
    rows; an unfrozen one interns them.
    """
    tokens = _Tokens(sentences)
    first = tokens.first[sentence]
    start, end = first + uv[:, 0] - 1, first + uv[:, 1] - 1
    templates = _TemplateIds(index)
    if segments:
        indptr, ids, counts = _segment_rows(tokens, templates, start, end, dep)
    else:
        indptr, ids = _position_rows(tokens, templates, start, dep)
        counts = np.ones(len(ids), dtype=np.int32)
    if not index.frozen:
        # local ids to template ids, one intern per string, in order of first occurrence in the rows
        strings = list(templates.ids)
        first_at = np.full(len(strings), len(ids), dtype=np.int32)
        np.minimum.at(first_at, ids, np.arange(len(ids), dtype=np.int32))
        occurring = np.flatnonzero(first_at < len(ids))
        global_id = np.full(len(strings), -1, dtype=np.int32)
        for lid in occurring[np.argsort(first_at[occurring])].tolist():
            global_id[lid] = index.intern(strings[lid])
        ids = global_id[ids]
    known = ids >= 0
    if not known.all():
        ids, counts = ids[known], counts[known]
        indptr = np.concatenate(([0], np.cumsum(known)))[indptr]
    return indptr.astype(np.int64), ids, counts.astype(np.float64)

"""Feature templates and the block featurizer that compiles them into unit and member rows.

A template is a string with a template-name prefix, so no two templates
can collide: "w:Ami", "seg:Shlomo Ben - Ami". Templates carry no label.
Every lattice span has a row of template counts, and the weight of a
template for a label is one cell of the model's weight matrix, so labels
and transitions need no strings (training.py describes that matrix).
Template ids are dense: training interns the strings into a dict that
grows on sight, and a model keeps them as a tuple in id order.

Position templates (one row per token, linear mode), in row order: w, p,
pw, pp, sh, psh (current/previous word, POS and word shape, <BOS> before
the first token), pre1..pre3 and suf1..suf3 of the current word (up to
its length), then if enabled the dependency templates dw (word+head), dwl
(word+head+relation), dp (POS+headPOS) and dpl (POS+headPOS+relation);
the head of the root token is <ROOT>.

A segment row repeats the templates its span shares with its neighbours,
so the rows are never built. They are the product X = M @ U of two 0/1
operators: U has one row per unit, the templates that vary together, and
M one row per span, the units it holds. A span u..v's row is its units'
templates, the units in this member order:
- a start boundary: bw, bp, bsh (word/POS/shape before the span, <BOS>
  at the sentence's start), sw, sp, pre1-3 (of its first token);
- an end boundary: aw, ap, ash (after the span, <EOS> at the end), ew,
  ep, suf1-3 (of its last token);
- a span: len, seg (the surface form joined by spaces);
- a (start, offset o) cell for each o = 1..v-u+1: iw:o, ip:o, ish:o;
- a token for each of u..v: dw, dwl, dp, dpl (with dependency templates).
So a span holds 3 + 2 (v-u+1) units, 3 + (v-u+1) without dependency
templates. Only dependency templates can repeat within a row, and M's
product sums them. In linear mode a unit is a token's position templates
and M is the identity.

block_rows builds both operators for a whole block of sentences at once,
and assembles them from per-token id columns by array gathers. When
training, every distinct word, POS tag, shape, (word or POS, head's) pair
and (value, offset) pair of an offset family in the block gets its template
strings once (a shape is computed once per distinct word) and each string
a block-local id; the local ids that occur are then interned once per
distinct string, in the order of first occurrence in the rows X (a
template's first span, then its place in that span's row), so the template
ids are those of interning every row's templates one by one. When
decoding, the ids are read from a model's Vocabulary, its templates
re-keyed once into read-only tables (Model.vocabulary builds them on first
use): the words, POS tags and shapes they mention, each per-token template
family as an array from vocabulary code to template id, each vocabulary
word's shape and affix ids, and the offset and dependency families sorted
by an integer key made of an offset and codes. A block then maps each
token's word and tag to its code with one lookup and gathers every word-,
POS- and shape-keyed id from the arrays; shapes and affixes are computed
only for words outside the vocabulary, offset and dependency templates are
found by binary search on their keys, and len and seg are looked up by
string, as in training. An unseen template gets id -1 and leaves its unit.
"""

from __future__ import annotations

from itertools import chain, combinations, repeat
from operator import attrgetter, itemgetter

import numpy as np

from .corpus import Sentence

BOS = "<BOS>"
EOS = "<EOS>"
ROOT = "<ROOT>"


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


# The template families keyed by one token's word ("w"), POS tag ("p") or
# shape ("sh"); "i" + key is the key's family by offset (iw:2:Ami).
_FAMILIES = {
    "w": ("w", "pw", "bw", "aw", "sw", "ew"),
    "p": ("p", "pp", "bp", "ap", "sp", "ep"),
    "sh": ("sh", "psh", "bsh", "ash"),
}


_AFFIX_FAMILIES = ("pre1", "pre2", "pre3", "suf1", "suf2", "suf3")


def _codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """Distinct values in first-seen order, and the code of each value."""
    seen: dict[str, int] = {}
    codes = [seen.setdefault(v, len(seen)) for v in values]
    return list(seen), np.array(codes, dtype=np.intp)


def _get(table: dict[str, int], values, missing: int) -> np.ndarray:
    """table[v] for each of the values, missing where v is not in table."""
    return np.fromiter(map(table.get, values, repeat(missing)), dtype=np.int64)


def _affixes(lookup, words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(len(words), 3) ids of pre1..pre3 and suf1..suf3 of each word, -1 past its length."""
    short = np.fromiter(map(len, words), dtype=np.intp, count=len(words))[:, None] < np.arange(1, 4)
    pre = np.column_stack([lookup(f"pre{k}", map(itemgetter(slice(k)), words)) for k in range(1, 4)])
    suf = np.column_stack([lookup(f"suf{k}", map(itemgetter(slice(-k, None)), words)) for k in range(1, 4)])
    pre[short] = suf[short] = -1
    return pre, suf


def _surfaces(words: list[str], start: np.ndarray, end: np.ndarray):
    """The surface forms, words joined by spaces, of the spans start..end of the token list words."""
    return map(" ".join, map(words.__getitem__, map(slice, start.tolist(), (end + 1).tolist())))


class _Tokens:
    """The block's tokens, flattened: the word and POS tag of each, and
    whether it opens or closes its sentence."""

    def __init__(self, sentences: list[Sentence]) -> None:
        self.sentences = sentences
        tokens = list(chain.from_iterable(s.tokens for s in sentences))
        self.words = list(map(attrgetter("surface"), tokens))
        self.tags = list(map(attrgetter("pos"), tokens))
        lengths = np.array([s.n for s in sentences], dtype=np.intp)
        self.first = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        self.last = self.first + lengths - 1
        self.opens, self.closes = np.zeros((2, len(tokens)), dtype=bool)  # first, last of a sentence
        self.opens[self.first] = self.closes[self.last] = True

    def neighbour(self, codes: np.ndarray, at: np.ndarray, step: int, sentinel: int) -> np.ndarray:
        """Code of the token before (step -1) or after (step 1) each token at,
        sentinel across a sentence edge."""
        edge = self.closes if step > 0 else self.opens
        return np.where(edge[at], sentinel, codes.take(at + step, mode="clip"))

    def arcs(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Each token's head (0 for the root), the head's token index, and its relation."""
        heads = np.fromiter(chain.from_iterable(s.tree.heads for s in self.sentences), dtype=np.intp)
        head_at = np.repeat(self.first, self.last - self.first + 1) + heads - 1
        return heads, head_at, list(chain.from_iterable(s.tree.labels for s in self.sentences))


class _LocalIds:
    """Training: block-local template ids, allocated on sight per template
    string; block_rows interns the ones that occur into the growing dict of
    template ids afterwards.

    fields lists (key, code of each token, sentinel code) for the word, POS
    and shape keys, coded by their distinct values in the block; a shape is
    computed once per distinct word. pre and suf hold each token's affix ids.
    """

    def __init__(self, tokens: _Tokens) -> None:
        self.ids: dict[str, int] = {}
        words, word = _codes(tokens.words)
        tags, tag = _codes(tokens.tags)
        shapes, shape = _codes([word_shape(w) for w in words])
        self.values = {"w": words, "p": tags, "sh": shapes}
        self.fields = (("w", word, len(words)), ("p", tag, len(tags)), ("sh", shape[word], len(shapes)))
        pre, suf = _affixes(self.lookup, words)
        self.pre, self.suf = pre[word], suf[word]

    def lookup(self, name: str, values) -> np.ndarray:
        """Ids of name:value for each value."""
        ids, prefix = self.ids, name + ":"
        return np.array([ids.setdefault(prefix + v, len(ids)) for v in values], dtype=np.int32)

    def field(self, name: str, key: str, sentinel: str | None = None) -> np.ndarray:
        """Ids of the family name for each code of key, then for the sentinel if given."""
        values = self.values[key]
        return self.lookup(name, values if sentinel is None else values + [sentinel])

    def offsets(self, key: str, codes: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Ids of i<key>:offset:value for codes of key at 1-based offsets.
        Each distinct (code, offset) pair is formatted once."""
        values, width = self.values[key], int(offset.max(initial=0)) + 1
        pair, pair_of = np.unique(codes * width + offset, return_inverse=True)
        return self.lookup(f"i{key}", [f"{k % width}:{values[k // width]}" for k in pair.tolist()])[pair_of]

    def dependencies(self, tokens: _Tokens) -> np.ndarray:
        """(N, 4) ids of dw, dwl, dp, dpl of every token. Each distinct (word
        or POS, head's word or POS) pair, and each pair with its relation, is
        formatted once."""
        heads, head_at, relations = tokens.arcs()
        rels, rel = _codes(relations)
        num_rels = len(rels)
        columns = []
        for key, codes, _ in self.fields[:2]:
            values = self.values[key]
            # pair code k: value k // width, head's value k % width (len(values) is <ROOT>)
            width, heads_of = len(values) + 1, values + [ROOT]
            head = np.where(heads == 0, len(values), codes[head_at])
            pair, pair_of = np.unique(codes * width + head, return_inverse=True)
            pairs = [f"{values[k // width]}+{heads_of[k % width]}" for k in pair.tolist()]
            # labeled code k: pair k // num_rels, relation k % num_rels
            labeled, labeled_of = np.unique(pair_of * num_rels + rel, return_inverse=True)
            labeled_pairs = [f"{pairs[k // num_rels]}+{rels[k % num_rels]}" for k in labeled.tolist()]
            columns.append(self.lookup(f"d{key}", pairs)[pair_of])
            columns.append(self.lookup(f"d{key}l", labeled_pairs)[labeled_of])
        return np.column_stack(columns)


def _group(items) -> dict[str, dict[str, int]]:
    """(template, id) items as name -> value -> id, split at the first ':'.
    Empty values are dropped: no token, tag, shape or sentinel is empty."""
    groups: dict[str, dict[str, int]] = {}
    for template, tid in items:
        name, _, value = template.partition(":")
        try:
            groups[name][value] = tid
        except KeyError:
            groups[name] = {value: tid}
    for values in groups.values():
        values.pop("", None)
    return groups


def _splits(value: str, k: int):
    """Every way to write value as k parts joined by '+'."""
    pieces = value.split("+")
    return [
        ["+".join(pieces[a:b]) for a, b in zip((0, *cuts), (*cuts, len(pieces)))]
        for cuts in combinations(range(1, len(pieces)), k - 1)
    ]


def _dependency_parts(strings: dict[str, dict[str, int]], name: str, width: int) -> tuple[list, list]:
    """The parts of each value of the family name split at '+' into width
    parts, and its id; a value enters once per split, since a word or tag
    may hold '+'."""
    ids = strings.get(name, {})
    parts = list(map(str.split, ids, repeat("+")))
    if set(map(len, parts)) <= {width}:
        return parts, list(ids.values())
    split = [(p, tid) for value, tid in ids.items() for p in _splits(value, width)]
    return [p for p, _ in split], [tid for _, tid in split]


class _Keyed:
    """Ids by int64 key, found by binary search; -1 for a key it does not hold."""

    def __init__(self, keys: np.ndarray, ids: np.ndarray) -> None:
        order = np.argsort(keys)
        self.keys = np.append(keys[order], np.iinfo(np.int64).max)
        self.ids = np.append(ids[order], -1).astype(np.int32)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self.keys, keys)
        return np.where(self.keys[at] == keys, self.ids[at], -1)


class Vocabulary:
    """A model's templates, in id order, re-keyed by template family and
    value: the read-only tables block_rows reads template ids from when
    decoding. Model.vocabulary builds them once per model.

    Values are split from the family name at the first ':' and, in the
    offset families, from the offset at the second; a value may hold ':'.
    - code[key] numbers the values that the families of a key mention (the
      words, POS tags and shapes of the templates); code len(code[key])
      stands for every other value.
    - family[name] maps a code to the id of name:value, -1 where there is
      no such template. offset[key] maps the key o * (len(code[key]) + 1)
      + code to the id of i<key>:o:value.
    - For each word code: shape is the code of its shape, pre and suf the
      ids of its affixes.
    - strings[name] maps a value to the id of name:value, for the families
      read by string (len, seg, and the affixes of words outside the
      vocabulary).
    - The dependency templates are split at '+' into their parts, every
      split of a value entered, since a word or tag may hold '+'; the
      dependent and head parts join the word (dw, dwl) or POS (dp, dpl)
      codes, and rel numbers the relation parts. With n = len(code[key]) +
      1, unlabeled[key] maps the key dependent * n + head to the dw or dp
      id, and labeled[key] the key (dependent * n + head) * (len(rel) + 1)
      + relation to the dwl or dpl id; these keys stay below 2**63 for up
      to 2**21 codes and 2**20 relations.
    """

    def __init__(self, templates: tuple[str, ...]) -> None:
        self.size = len(templates)
        strings = self.strings = _group(zip(templates, range(self.size)))
        # (dependent, head) and (dependent, head, relation) parts of each dependency template
        deps = {key: (_dependency_parts(strings, f"d{key}", 2), _dependency_parts(strings, f"d{key}l", 3)) for key in "wp"}
        self.code: dict[str, dict[str, int]] = {}
        self.family: dict[str, np.ndarray] = {}
        self.offset: dict[str, _Keyed] = {}
        for key, names in _FAMILIES.items():
            families = [strings.get(name, {}) for name in names]
            # offsets as block_rows spells them, below 2**31 since no block
            # holds a span that long: with under 2**32 codes, keys stay below 2**63
            offsets = {
                int(o): ids
                for o, ids in _group(strings.get("i" + key, {}).items()).items()
                if o.isdecimal() and len(o) < 19 and o == str(int(o)) != "0" and int(o) < 2**31
            }
            dependents_and_heads = [chain.from_iterable(map(itemgetter(0, 1), parts)) for parts, _ in deps.get(key, ())]
            values = dict.fromkeys(chain(*families, *offsets.values(), *dependents_and_heads))
            values.pop("", None)  # a dependency part, but no token, tag or shape
            code = self.code[key] = {v: c for c, v in enumerate(values)}
            for name, ids in zip(names, families):
                table = self.family[name] = np.full(len(code) + 1, -1, dtype=np.int32)
                table[_get(code, ids, -1)] = list(ids.values())
            offset = np.repeat(np.array(list(offsets), dtype=np.int64), list(map(len, offsets.values())))
            self.offset[key] = _Keyed(
                offset * (len(code) + 1) + _get(code, chain(*offsets.values()), -1),
                np.fromiter(chain.from_iterable(map(dict.values, offsets.values())), dtype=np.int32),
            )
        words, shapes = list(self.code["w"]), self.code["sh"]
        self.shape = np.append(_get(shapes, map(word_shape, words), len(shapes)), len(shapes))
        self.pre, self.suf = (np.vstack((a, np.full((1, 3), -1, dtype=np.int32))) for a in _affixes(self.lookup, words))
        labeled_parts = [parts for _, (parts, _) in deps.values()]
        self.rel = {r: c for c, r in enumerate(dict.fromkeys(chain(*(map(itemgetter(2), p) for p in labeled_parts))))}
        self.unlabeled: dict[str, _Keyed] = {}
        self.labeled: dict[str, _Keyed] = {}
        for key, ((parts, ids), (labeled, labeled_ids)) in deps.items():
            code, n = self.code[key], len(self.code[key]) + 1
            pair = _get(code, chain.from_iterable(map(itemgetter(0, 1), parts + labeled)), -1).reshape(-1, 2)
            # key -1 for a pair with an empty part: no token's key is negative
            pair = np.where((pair >= 0).all(axis=1), pair[:, 0] * n + pair[:, 1], -1)
            self.unlabeled[key] = _Keyed(pair[: len(parts)], np.array(ids))
            rel, pair = _get(self.rel, map(itemgetter(2), labeled), -1), pair[len(parts) :]
            self.labeled[key] = _Keyed(np.where(pair >= 0, pair * (len(self.rel) + 1) + rel, -1), np.array(labeled_ids))
        # blocks read only these families by string
        self.strings = {name: strings[name] for name in ("len", "seg", *_AFFIX_FAMILIES) if name in strings}

    def lookup(self, name: str, values) -> np.ndarray:
        """Ids of name:value for each value, -1 for a template it lacks."""
        return _get(self.strings.get(name, {}), values, -1).astype(np.int32)

    def __len__(self) -> int:
        """The number of templates."""
        return self.size


class _VocabIds:
    """Decoding: template ids gathered from a Vocabulary.

    Each token's word and POS tag get their vocabulary codes with one lookup
    each; the shape and affixes of a word come from the tables, and are
    computed only for the words outside the vocabulary, once per distinct
    word. fields, pre and suf are as in _LocalIds, coded by the vocabulary.
    """

    def __init__(self, tokens: _Tokens, vocab: Vocabulary) -> None:
        self.vocab, self.lookup = vocab, vocab.lookup
        code = vocab.code
        word = _get(code["w"], tokens.words, len(code["w"]))
        shape, self.pre, self.suf = vocab.shape[word], vocab.pre[word], vocab.suf[word]
        unseen = np.flatnonzero(word == len(code["w"]))
        if len(unseen):
            new, new_of = _codes([tokens.words[i] for i in unseen.tolist()])
            shape[unseen] = _get(code["sh"], map(word_shape, new), len(code["sh"]))[new_of]
            pre, suf = _affixes(vocab.lookup, new)
            self.pre[unseen], self.suf[unseen] = pre[new_of], suf[new_of]
        self.codes = {"w": word, "p": _get(code["p"], tokens.tags, len(code["p"])), "sh": shape}
        self.fields = tuple((key, codes, len(code[key]) + 1) for key, codes in self.codes.items())

    def field(self, name: str, key: str, sentinel: str | None = None) -> np.ndarray:
        """Ids of the family name for each code of key, then for the sentinel if given."""
        table = self.vocab.family[name]
        if sentinel is None:
            return table
        code = self.vocab.code[key]
        return np.append(table, table[code.get(sentinel, len(code))])

    def offsets(self, key: str, codes: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Ids of i<key>:offset:value for codes of key at 1-based offsets."""
        return self.vocab.offset[key](offset.astype(np.int64) * (len(self.vocab.code[key]) + 1) + codes)

    def dependencies(self, tokens: _Tokens) -> np.ndarray:
        """(N, 4) ids of dw, dwl, dp, dpl of every token, by binary search on vocabulary codes."""
        vocab = self.vocab
        heads, head_at, relations = tokens.arcs()
        rel = _get(vocab.rel, relations, len(vocab.rel))
        columns = []
        for key in "wp":
            codes, n = self.codes[key], len(vocab.code[key]) + 1
            head = np.where(heads == 0, vocab.code[key].get(ROOT, n - 1), codes[head_at])
            pair = codes * n + head
            columns.append(vocab.unlabeled[key](pair))
            columns.append(vocab.labeled[key](pair * (len(vocab.rel) + 1) + rel))
        return np.column_stack(columns)


def _position_rows(tokens: _Tokens, src, i: np.ndarray, dep: bool) -> np.ndarray:
    """(len(i), columns) ids of the position templates of tokens i, their ids
    from src (_LocalIds or _VocabIds), -1 where absent or unseen."""
    (_, word, n_word), (_, tag, n_tag), (_, shape, n_shape) = src.fields
    columns = [
        src.field("w", "w")[word[i]],
        src.field("p", "p")[tag[i]],
        src.field("pw", "w", BOS)[tokens.neighbour(word, i, -1, n_word)],
        src.field("pp", "p", BOS)[tokens.neighbour(tag, i, -1, n_tag)],
        src.field("sh", "sh")[shape[i]],
        src.field("psh", "sh", BOS)[tokens.neighbour(shape, i, -1, n_shape)],
        src.pre[i],
        src.suf[i],
    ]
    if dep:
        columns.append(src.dependencies(tokens)[i])
    return np.column_stack(columns)


def _segment_rows(
    tokens: _Tokens, src, start: np.ndarray, end: np.ndarray, dep: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit rows and member rows of the spans start..end (0-based token
    indices of the block, inclusive), template ids from src (_LocalIds or
    _VocabIds).

    The units are numbered start boundaries, end boundaries, spans,
    (start, offset) cells, then with dep the tokens, each kind in token
    (span) order; only units some span holds exist. Returns
    - templates: (units, 8) ids of each unit's templates, in the module
      doc's order, -1 where the unit has fewer or the template is unseen;
    - indptr, members: CSR rows of the units of each span, in unit order,
      which is the module doc's member order.
    """
    n_tokens, n_spans = len(tokens.words), len(start)
    length = end - start + 1
    is_start, is_end, is_token = np.zeros((3, n_tokens), dtype=bool)
    is_start[start] = is_end[end] = True
    reach = np.zeros(n_tokens, dtype=np.intp)  # the longest span from each start: its cells
    np.maximum.at(reach, start, length)
    cell_start = np.repeat(np.arange(n_tokens), reach)
    first_cell = np.cumsum(reach) - reach
    cell_offset = np.arange(len(cell_start)) - first_cell[cell_start]  # 0-based
    if dep:
        is_token[cell_start + cell_offset] = True
    starts, ends, token = np.flatnonzero(is_start), np.flatnonzero(is_end), np.flatnonzero(is_token)
    base = np.cumsum([0, len(starts), len(ends), n_spans, len(cell_start), len(token)])
    templates = np.full((base[-1], 8), -1, dtype=np.int32)
    (_, word, _), (_, tag, _), _ = src.fields
    kinds = (
        [src.field(f"b{key}", key, BOS)[tokens.neighbour(codes, starts, -1, n)] for key, codes, n in src.fields]
        + [src.field("sw", "w")[word[starts]], src.field("sp", "p")[tag[starts]], src.pre[starts]],
        [src.field(f"a{key}", key, EOS)[tokens.neighbour(codes, ends, 1, n)] for key, codes, n in src.fields]
        + [src.field("ew", "w")[word[ends]], src.field("ep", "p")[tag[ends]], src.suf[ends]],
        [
            src.lookup("len", [str(k) for k in range(1, int(length.max()) + 1)])[length - 1],
            src.lookup("seg", _surfaces(tokens.words, start, end)),
        ],
        [src.offsets(key, codes[cell_start + cell_offset], cell_offset + 1) for key, codes, _ in src.fields],
        [src.dependencies(tokens)[token]] if dep else [np.empty((0, 4), dtype=np.int32)],
    )
    for k, columns in enumerate(kinds):
        columns = np.column_stack(columns)
        templates[base[k] : base[k + 1], : columns.shape[1]] = columns
    del kinds  # copied into templates; freed before the members' temporaries
    # each span's members: its start, end and span units, its cells, then its tokens
    width = 3 + (1 + dep) * length
    indptr = np.concatenate(([0], np.cumsum(width)))
    members = np.empty(indptr[-1], dtype=np.int32)
    at = indptr[:-1]
    members[at] = base[0] + np.cumsum(is_start)[start] - 1
    members[at + 1] = base[1] + np.cumsum(is_end)[end] - 1
    members[at + 2] = base[2] + np.arange(n_spans)
    row = np.repeat(np.arange(n_spans), length)
    offset = np.arange(len(row)) - np.repeat(np.cumsum(length) - length, length)  # 0-based
    cell = at[row] + 3 + offset
    members[cell] = base[3] + first_cell[start[row]] + offset
    if dep:
        members[cell + length[row]] = base[4] + np.cumsum(is_token)[start[row] + offset] - 1
    return templates, indptr, members


def block_rows(
    sentences: list[Sentence],
    sentence: np.ndarray,
    uv: np.ndarray,
    segments: bool,
    dep: bool,
    index: dict[str, int] | Vocabulary,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The template rows of a block as two 0/1 CSR operators, X = M @ U,
    each as (indptr, indices): U's rows hold the template ids of each unit,
    M's rows the units of each span.

    Row r of M is span uv[r] = (u, v), 1-based, of sentences[sentence[r]].
    segments selects segment templates and their units (module doc);
    otherwise a span (i, i) is one unit, the position templates of token i,
    and M is the identity. Templates get their ids from index: a Vocabulary
    is read only, and leaves unseen templates out of their units; a dict
    from template string to id interns them, growing on sight.
    """
    tokens = _Tokens(sentences)
    first = tokens.first[sentence]
    start, end = first + uv[:, 0] - 1, first + uv[:, 1] - 1
    interning = not isinstance(index, Vocabulary)
    src = _LocalIds(tokens) if interning else _VocabIds(tokens, index)
    if segments:
        templates, indptr, members = _segment_rows(tokens, src, start, end, dep)
    else:
        templates = _position_rows(tokens, src, start, dep)
        indptr, members = np.arange(len(start) + 1), np.arange(len(start))
    present = templates >= 0
    ids = templates[present]
    if interning:
        # local ids to template ids, one intern per string, in order of first
        # occurrence in the spans' rows, a row being its members' templates
        # in member order: by the first member entry that holds the
        # template's unit (entries run span by span, each span's in member
        # order), then by the template's column in the unit
        never = np.iinfo(np.int64).max
        unit_first = np.full(len(templates), never)
        np.minimum.at(unit_first, members, np.arange(len(members), dtype=np.int64) * templates.shape[1])
        strings = list(src.ids)
        first_at = np.full(len(strings), never)
        np.minimum.at(first_at, ids, (unit_first[:, None] + np.arange(templates.shape[1]))[present])
        occurring = np.flatnonzero(first_at < never)
        order = occurring[np.argsort(first_at[occurring])]
        global_id = np.full(len(strings), -1, dtype=np.int32)
        global_id[order] = [index.setdefault(strings[lid], len(index)) for lid in order.tolist()]
        ids = global_id[ids]
    return (np.concatenate(([0], np.cumsum(present.sum(axis=1)))), ids), (indptr, members)

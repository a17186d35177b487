"""Feature templates, their interning and decode tables, and the weight-matrix layout.

Template strings are read back from the span rows that training compiles,
members @ units (implied_rows), so the tests see exactly what the model is
trained and decoded on. The implied rows are also compared, template by
template, with rows built span by span from the template strings of
tests/oracles.py.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from oracles import block_lattices, orient_edges, project_gold, reference_rows
from spancrf import DependencyTree, EntitySpan, LabelSet, Sentence, Token, random_tree, synthesize
from spancrf import training
from spancrf.features import BOS, EOS, ROOT, Vocabulary, word_shape
from spancrf.inference import IOB_SCHEME, label_scheme, mode_labels
from spancrf.lattice import MODE_KINDS, Mode, build_lattice
from spancrf.training import _block, _compile


@pytest.mark.parametrize(
    ("surface", "shape"),
    [
        ("Ami", "Xxx"),
        ("Minister", "Xxxx"),
        ("-", "-"),
        ("gave", "xxxx"),
        ("3rd", "dxx"),
        ("U.S.A.", "X.X."),
        ("iPhone", "xXxx"),
    ],
)
def test_word_shape(surface, shape):
    assert word_shape(surface) == shape


def test_word_shape_rejects_empty():
    with pytest.raises(ValueError):
        word_shape("")


def _compiled(sentence, kind, dep=True, templates=None):
    """The sentence compiled alone and the template strings in id order:
    interned into a fresh dict, or, given templates, read from their
    Vocabulary."""
    mode = Mode(kind, 8)
    labels = mode_labels(LabelSet.from_corpus([sentence]), mode)
    ids = {} if templates is None else Vocabulary(templates)
    compiled = _compile([sentence], mode, labels, ids, dep, project=True)
    return compiled, tuple(ids) if templates is None else templates


def implied_rows(block) -> sparse.csr_matrix:
    """The block's span-by-template count matrix members @ units, indices sorted."""
    rows = (block.members @ block.units).tocsr()
    rows.sort_indices()
    return rows


def row_counts(rows: sparse.csr_matrix, strings) -> list[dict[str, float]]:
    """Each row of a count matrix as template string -> count."""
    return [
        {strings[tid]: count for tid, count in zip(rows.indices[lo:hi], rows.data[lo:hi].tolist())}
        for lo, hi in zip(rows.indptr[:-1], rows.indptr[1:])
    ]


def template_counts(sentence, span, kind="semi", dep=True, templates=None):
    """Template string -> count of the compiled row of the span."""
    compiled, templates = _compiled(sentence, kind, dep, templates)
    block = compiled.blocks[0]
    # the block holds one sentence; its rows are its spans in sorted order
    row = sorted(block_lattices(block)[0].allowed).index(span)
    return row_counts(implied_rows(block)[row], templates)[0]


def gold_transitions(sentence, kind="semi"):
    """(previous label, label) -> gold count, read from the transition rows T.. of the gold matrix."""
    compiled, index = _compiled(sentence, kind)
    prev_names = compiled.labels + (BOS,)
    trans = compiled.gold[len(index) :]
    return {(prev_names[p], compiled.labels[y]): trans[p, y] for p, y in zip(*np.nonzero(trans))}


def test_segment_feature_strings(shlomo):
    got = template_counts(shlomo, (3, 6))

    expected_once = {
        "bw:Minister",
        "bp:NNP",
        "bsh:Xxxx",
        "aw:gave",
        "ap:VBD",
        "ash:xxxx",
        "sw:Shlomo",
        "ew:Ami",
        "sp:NNP",
        "ep:NNP",
        "len:4",
        "seg:Shlomo Ben - Ami",
        "pre1:S",
        "pre2:Sh",
        "pre3:Shl",
        "suf1:i",
        "suf2:mi",
        "suf3:Ami",
        "iw:1:Shlomo",
        "iw:2:Ben",
        "iw:3:-",
        "iw:4:Ami",
        "ip:1:NNP",
        "ip:2:NNP",
        "ip:3:HYPH",
        "ip:4:NNP",
        "ish:1:Xxxx",
        "ish:2:Xxx",
        "ish:3:-",
        "ish:4:Xxx",
        "dw:Shlomo+Ami",
        "dwl:Shlomo+Ami+compound",
        "dw:Ben+Ami",
        "dw:-+Ami",
        "dwl:-+Ami+punct",
        "dw:Ami+gave",
        "dwl:Ami+gave+nsubj",
        "dp:NNP+VBD",
        "dpl:NNP+VBD+nsubj",
    }
    for feature in expected_once:
        assert got.get(feature) == 1, feature
    # Shlomo and Ben both attach to Ami with the same POS pair
    assert got["dp:NNP+NNP"] == 2
    assert got["dpl:NNP+NNP+compound"] == 2
    assert got["dp:HYPH+NNP"] == 1
    # transition rows of the gold matrix: <BOS> O O PER O O O
    assert gold_transitions(shlomo) == {(BOS, "O"): 1, ("O", "O"): 3, ("O", "PER"): 1, ("PER", "O"): 1}


def test_segment_sentinels_at_sentence_edges(womack):
    got = template_counts(womack, (1, 3))
    assert f"bw:{BOS}" in got
    assert "aw:won" in got
    got2 = template_counts(womack, (8, 9))
    assert f"aw:{EOS}" in got2


def test_linear_feature_strings(shlomo):
    got = template_counts(shlomo, (6, 6), kind="linear")
    for feature in (
        "w:Ami",
        "p:NNP",
        "pw:-",
        "pp:HYPH",
        "sh:Xxx",
        "psh:-",
        "pre1:A",
        "pre3:Ami",
        "suf3:Ami",
        "dw:Ami+gave",
        "dpl:NNP+VBD+nsubj",
    ):
        assert got.get(feature) == 1, feature
    transitions = gold_transitions(shlomo, kind="linear")
    assert transitions[("B-PER", "I-PER")] == 1 and transitions[("I-PER", "I-PER")] == 2


def test_linear_bos_at_first_token(shlomo):
    got = template_counts(shlomo, (1, 1), kind="linear")
    assert f"pw:{BOS}" in got
    assert f"psh:{BOS}" in got


def test_root_head_templates(shlomo):
    # token 7 "gave" attaches to the artificial root
    got = template_counts(shlomo, (7, 7), kind="linear")
    assert "dw:gave+<ROOT>" in got
    assert "dpl:VBD+<ROOT>+root" in got


def test_dep_features_can_be_disabled(shlomo):
    got = template_counts(shlomo, (3, 6), dep=False)
    assert not any(name.startswith(("dw:", "dwl:", "dp:", "dpl:")) for name in got)
    assert "sw:Shlomo" in got


def test_short_word_affixes(womack):
    # "of" only has prefixes/suffixes up to its own length
    got = template_counts(womack, (6, 6), kind="linear")
    assert "w:of" in got
    assert "pre1:o" in got and "pre2:of" in got
    assert not any(name.startswith("pre3:") for name in got)


def test_labels_share_one_row_per_span(womack):
    # every span has one row; a gold segment's counts sit in its label's column
    compiled, index = _compiled(womack, "semi")
    block = compiled.blocks[0]
    spans = sorted(block_lattices(block)[0].allowed)
    rows = implied_rows(block)
    assert rows.shape == (len(spans), len(index))
    per, misc = compiled.labels.index("PER"), compiled.labels.index("MISC")
    np.testing.assert_array_equal(compiled.gold[: len(index), per], rows[spans.index((1, 3))].toarray()[0])
    np.testing.assert_array_equal(compiled.gold[: len(index), misc], rows[spans.index((5, 8))].toarray()[0])


def test_frozen_index_filters_vectors(shlomo, womack):
    # the vocabulary of one sentence's templates drops the templates first seen in another
    _, templates = _compiled(shlomo, "semi")
    got = template_counts(womack, (1, 3), templates=templates)
    assert f"bw:{BOS}" in got and "sw:Lee" not in got
    assert got == {t: c for t, c in template_counts(womack, (1, 3)).items() if t in templates}


# Short words (affixes shorter than 3); '+' so that dependency templates of
# different tokens can spell the same string; ':' so that a template value
# holds the separator of its family name; and the sentinels as words, so that
# a word's template can spell a sentinel's.
_WORDS = ("a", "b", "ab", "Ab", "a+b", "+", "b+", "x1", "Lee", "Ami", "a:b", ":", BOS, EOS, ROOT)
_UNSEEN = ("zz", "Q", "9")


@st.composite
def corpora(draw, words=_WORDS, max_sentences=5, max_n=7):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, max_sentences))):
        n = draw(st.integers(1, max_n))
        heads = orient_edges(n, random_tree(n, rng).edges, root=draw(st.integers(1, n)))
        surfaces = draw(st.lists(st.sampled_from(words), min_size=n, max_size=n))
        tags = draw(st.lists(st.sampled_from(("NN", "N+", "VB", "V:B")), min_size=n, max_size=n))
        rels = tuple("root" if h == 0 else draw(st.sampled_from(("dep", "mod"))) for h in heads)
        gold, start = [], 1  # consecutive pieces, each an entity or not
        while start <= n:
            end = draw(st.integers(start, n))
            etype = draw(st.sampled_from(("A", "B", None)))
            if etype:
                gold.append(EntitySpan(start, end, etype))
            start = end + 1
        out.append(Sentence(tuple(Token(w, t) for w, t in zip(surfaces, tags)), DependencyTree(heads, rels), tuple(gold)))
    return out


def _assert_rows_equal(block, strings, reference, reference_strings):
    """The block's implied rows, read through strings, hold the reference's
    integer counts, read through reference_strings, template by template."""
    rows = implied_rows(block)
    assert (rows.data == np.rint(rows.data)).all()
    indptr, indices, data = reference
    expected = sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, len(reference_strings)))
    assert row_counts(rows, strings) == row_counts(expected, reference_strings)


def _gold_factors(sentences, lattices, scheme, labels):
    """(row, previous label id, label id) of every gold segment of the block,
    rows in span order and K before a sentence's first segment, by the
    oracle's projection, and the number of entities it split."""
    out, splits, first = [], 0, 0
    for sentence, lattice in zip(sentences, lattices):
        spans = sorted(lattice.allowed)
        segments, split = project_gold(sentence, lattice, scheme)
        prev = len(labels)
        for span, label in segments:
            out.append((first + spans.index(span), prev, labels.index(label)))
            prev = labels.index(label)
        splits += split
        first += len(spans)
    return out, splits


def _check_against_reference(train, test, kind, dep, block_size, max_len=4):
    """Compile train (interning) and test (vocabulary lookup) at L = max_len
    and compare every block's implied rows, the template ids, and the gold
    counts and split count of the oracle's projection with the string
    reference; returns the templates in id order."""
    mode = Mode(kind, max_len)
    scheme = label_scheme(mode)
    segments = scheme != IOB_SCHEME
    labels = mode_labels(LabelSet.from_corpus(train), mode)
    index, ref_index = {}, {}
    with mock.patch.object(training, "_BLOCK_SIZE", block_size):
        compiled = _compile(train, mode, labels, index, dep, project=True)
    templates = tuple(index)
    K = len(labels)
    gold, pairs, splits = np.zeros((len(index), K)), np.zeros((K + 1, K)), 0
    for b, block in enumerate(compiled.blocks):
        chunk = train[b * block_size : (b + 1) * block_size]
        lattices = [build_lattice(s, mode) for s in chunk]
        reference = reference_rows(chunk, lattices, segments, dep, lambda t: ref_index.setdefault(t, len(ref_index)))
        _assert_rows_equal(block, templates, reference, tuple(ref_index))
        # as wide as the templates after the block's, not as all of them
        assert block.units.shape[1] == len(ref_index)
        indptr, indices, data = reference
        indicator = np.zeros((len(indptr) - 1, K))
        factors, block_splits = _gold_factors(chunk, lattices, scheme, labels)
        for row, prev, y in factors:
            indicator[row, y] = 1.0
            pairs[prev, y] += 1.0
        splits += block_splits
        X = sparse.csr_matrix((data, indices, indptr), shape=(len(indicator), len(ref_index)))
        gold[: len(ref_index)] += X.T @ indicator
    assert templates == tuple(ref_index)
    np.testing.assert_array_equal(compiled.gold[: len(index)], gold)
    np.testing.assert_array_equal(compiled.gold[len(index) :], pairs)
    assert compiled.splits == splits

    block = _block(test, mode, labels, Vocabulary(templates), dep)
    lattices = [build_lattice(s, mode) for s in test]
    reference = reference_rows(test, lattices, segments, dep, ref_index.get)
    _assert_rows_equal(block, templates, reference, templates)
    assert block.units.shape[1] == len(templates)
    return templates


@settings(max_examples=80, deadline=None)
@given(corpora(), corpora(words=_WORDS[::2] + _UNSEEN), st.sampled_from(MODE_KINDS), st.booleans())
def test_rows_equal_string_reference(train, test, kind, dep):
    _check_against_reference(train, test, kind, dep, block_size=2)


@settings(max_examples=20, deadline=None)
@given(corpora(max_n=1), corpora(words=_WORDS[::2] + _UNSEEN, max_n=1), st.sampled_from(MODE_KINDS), st.booleans())
def test_rows_equal_string_reference_for_one_token_sentences(train, test, kind, dep):
    # every span is a whole sentence: its start and end units both sit at a sentence edge
    _check_against_reference(train, test, kind, dep, block_size=2)


def test_frozen_lookup_rows_with_unknown_repeats_and_an_empty_row():
    # Tokens 2 and 3 of "k u u" share all four (unknown) dependency
    # templates, so the span (1, 3) repeats each of them; its row and the
    # row before it, (1, 2), hold the first token's known "dpl" template,
    # the last template id, once each: the unknown repeats add to no count.
    # Every template of the span (1, 2) of "z z" is unknown, so its row is
    # empty (its units hold no template).
    known = Sentence(tuple(Token(w, "NN") for w in "kuu"), DependencyTree((0, 1, 1), ("root", "dep", "dep")))
    unknown = Sentence(tuple(Token("z", "ZZ") for _ in range(2)), DependencyTree((0, 1), ("root", "dep")))
    templates = ("sw:k", "len:1", "bw:k", f"dpl:NN+{ROOT}+root")
    mode = Mode("semi", 4)
    sentences = [known, unknown]
    block = _block(sentences, mode, mode_labels(LabelSet(["PER"]), mode), Vocabulary(templates), True)
    lattices = [build_lattice(s, mode) for s in sentences]
    reference = reference_rows(sentences, lattices, True, True, {t: i for i, t in enumerate(templates)}.get)
    _assert_rows_equal(block, templates, reference, templates)
    rows = implied_rows(block).toarray()
    spans = sorted(lattices[0].allowed)
    assert rows[spans.index((1, 2)), -1] == rows[spans.index((1, 3)), -1] == 1
    assert not rows[len(spans) + sorted(lattices[1].allowed).index((1, 2))].any()


def test_frozen_lookup_rows_find_seg_templates_of_words_no_other_template_holds():
    # The words of "seg:zz q" and "seg:a:b" occur in no other template, so
    # they are outside every word-keyed table; the seg lookup must still find
    # both spans, and "iw:2:q" and "dw:q+zz" the templates that name q.
    # "iw:02:q" spells its offset in a way no span's template does, and no
    # span reaches the offsets of the last four iw templates; the last two
    # sit on either side of 2**31, where the vocabulary stops taking offsets.
    sentence = Sentence(tuple(Token(w, "NN") for w in ("zz", "q", "a:b")), DependencyTree((0, 1, 1), ("root", "dep", "dep")))
    other = Sentence(tuple(Token(w, "VB") for w in ("q", "zz")), DependencyTree((2, 0), ("dep", "root")))
    templates = ("sw:k", "seg:zz q", "seg:a:b", "seg:q a:b x", "iw:2:q", "iw:02:q", "dw:q+zz", "ip:1:NN", f"iw:{10**15}:q", f"iw:{'9' * 5000}:q", f"iw:{2**31 - 1}:q", f"iw:{2**31}:q")
    ids = {t: i for i, t in enumerate(templates)}
    mode = Mode("semi", 4)
    sentences = [sentence, other]
    block = _block(sentences, mode, mode_labels(LabelSet(["PER"]), mode), Vocabulary(templates), True)
    lattices = [build_lattice(s, mode) for s in sentences]
    reference = reference_rows(sentences, lattices, True, True, ids.get)
    _assert_rows_equal(block, templates, reference, templates)
    rows = implied_rows(block).toarray()
    spans = sorted(lattices[0].allowed)
    for span, template in (((1, 2), "seg:zz q"), ((3, 3), "seg:a:b"), ((1, 2), "iw:2:q"), ((2, 2), "dw:q+zz")):
        assert rows[spans.index(span), ids[template]] == 1, template
    assert not rows[len(spans) :, ids["seg:zz q"]].any()


@pytest.mark.parametrize(
    "kind, dep, block_size",
    [
        pytest.param(kind, dep, size, id=f"{dep}-{kind}" if size == 64 else f"{dep}-{kind}-{size}")
        for size in (64, training._BLOCK_SIZE)
        for dep in (True, False)
        for kind in MODE_KINDS
    ],
)
def test_rows_equal_string_reference_with_distinct_words(kind, dep, block_size):
    # vocab=0: every surface form in both corpora is distinct, so every
    # word template of the second corpus is unseen. At the production block
    # size all 70 training sentences are featurized in one block_rows call.
    train = synthesize(70, mean_len=6.0, vocab=0, seed=31)
    test = synthesize(10, mean_len=6.0, vocab=0, seed=32)
    _check_against_reference(train, test, kind, dep, block_size=block_size)


@pytest.mark.parametrize("kind", ["dgm", "semi"])
def test_rows_equal_string_reference_at_offsets_past_8(kind):
    # every sentence is longer than L = 20, so the training strings and the
    # decode keys of the offset templates meet offsets past 8, up to 20
    train = [s for s in synthesize(16, mean_len=26.0, vocab=40, seed=35) if s.n > 20]
    test = [s for s in synthesize(8, mean_len=26.0, vocab=80, seed=36) if s.n > 20]
    templates = _check_against_reference(train, test, kind, True, block_size=4, max_len=20)
    assert max(int(t.split(":")[1]) for t in templates if t.startswith("iw:")) == 20


def test_one_token_sentences_touch_both_edges():
    sentence = Sentence((Token("a", "NN"),), DependencyTree((0,), ("root",)))
    got = template_counts(sentence, (1, 1))
    assert {f"bw:{BOS}", f"aw:{EOS}", "pre1:a", "suf1:a", "iw:1:a", "dw:a+<ROOT>"} <= set(got)
    assert not any(name.startswith(("pre2:", "suf2:")) for name in got)

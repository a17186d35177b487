"""CoNLL parsing, IOB conversion, and the corpus data types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancrf import (
    ConllParseError,
    DependencyTree,
    EntitySpan,
    LabelSet,
    Sentence,
    SerializationError,
    Token,
    iob_to_spans,
    read_conll,
    read_predictions,
    representability_stats,
    spans_to_iob,
    synthesize,
    write_conll,
)
from spancrf.lattice import Mode


def test_dependency_tree_rejects_cycle():
    with pytest.raises(ValueError, match="cycl"):
        DependencyTree((2, 3, 2, 0), ("a", "b", "c", "root"))


def test_dependency_tree_validates_a_long_path_in_linear_time():
    # token i heads on token i+1 and the last token is the root: depth n, so a
    # walk from every token to the root would take n^2 / 2 = 2e8 steps
    n = 20_000
    tree = DependencyTree(tuple(range(2, n + 1)) + (0,), ("dep",) * (n - 1) + ("root",))
    assert tree.root == n


def test_dependency_tree_reports_a_cycle_at_the_end_of_a_long_chain():
    # tokens 1..n-3 are a chain into the cycle n-2 -> n-1 -> n -> n-2; token n+1 is the root
    n = 5_000
    heads = tuple(range(2, n + 1)) + (n - 2, 0)
    with pytest.raises(ValueError, match=f"cyclic head assignment through token {n - 2}$"):
        DependencyTree(heads, ("dep",) * (n + 1))
    # a walk that enters a cycle from a tail names the first node it meets twice
    with pytest.raises(ValueError, match="through token 3$"):
        DependencyTree((3, 0, 4, 5, 3), ("a",) * 5)


def test_dependency_tree_rejects_extra_root():
    with pytest.raises(ValueError):
        DependencyTree((0, 0, 2), ("root", "root", "dep"))


def test_dependency_tree_rejects_out_of_range_head():
    with pytest.raises(ValueError):
        DependencyTree((0, 4), ("root", "dep"))


def test_arcs_are_undirected_and_exclude_root(womack):
    arcs = womack.tree.arcs
    assert (1, 3) in arcs and (3, 4) in arcs
    assert all(a < b for a, b in arcs)
    assert len(arcs) == womack.n - 1
    assert womack.tree.root == 4


def test_sentence_rejects_overlapping_gold():
    tokens = (Token("a", "X"), Token("b", "X"))
    tree = DependencyTree((0, 1), ("root", "dep"))
    with pytest.raises(ValueError, match="overlap"):
        Sentence(tokens, tree, (EntitySpan(1, 2, "A"), EntitySpan(2, 2, "B")))


def test_label_set_o_first_then_first_seen():
    ls = LabelSet(["PER", "ORG", "PER", "GPE"])
    assert ls.labels == ("O", "PER", "ORG", "GPE")
    assert ls.label_id("O") == 0
    assert ls.label_id("ORG") == 2
    assert len(ls) == 4
    assert "GPE" in ls and "MISC" not in ls


def test_iob_round_trip_basic():
    spans = (EntitySpan(2, 3, "PER"), EntitySpan(5, 5, "LOC"))
    tags = spans_to_iob(spans, 5)
    assert tags == ["O", "B-PER", "I-PER", "O", "B-LOC"]
    back, repaired = iob_to_spans(tags)
    assert back == spans
    assert repaired == ()


def test_iob_repairs_dangling_inside():
    spans, repaired = iob_to_spans(["O", "I-PER", "I-PER", "I-ORG"])
    assert spans == (EntitySpan(2, 3, "PER"), EntitySpan(4, 4, "ORG"))
    assert repaired == (2, 4)


def test_iob_rejects_malformed_tag():
    with pytest.raises(ValueError, match="malformed"):
        iob_to_spans(["B"])


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n), st.sampled_from(["A", "B", "C"])),
                max_size=4,
            ),
        )
    )
)
@settings(max_examples=200)
def test_iob_round_trip_property(case):
    n, raw = case
    spans, last_end = [], 0
    for a, b, t in sorted((min(u, v), max(u, v), t) for u, v, t in raw):
        if a > last_end:
            spans.append(EntitySpan(a, b, t))
            last_end = b
    tags = spans_to_iob(spans, n)
    back, repaired = iob_to_spans(tags)
    assert list(back) == spans
    assert repaired == ()


def _write(tmp_path, text):
    path = tmp_path / "corpus.conll"
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """# a comment
1\tAmi\tNNP\t2\tnsubj\tB-PER
2\tgave\tVBD\t0\troot\tO

1\tParis\tNNP\t0\troot\tB-LOC
"""


def test_read_conll_basic(tmp_path):
    sents = read_conll(_write(tmp_path, GOOD))
    assert len(sents) == 2
    assert sents[0].tokens[0].surface == "Ami"
    assert sents[0].gold == (EntitySpan(1, 1, "PER"),)
    assert sents[1].tree.root == 1


def test_read_conll_reports_line_for_bad_column_count(tmp_path):
    with pytest.raises(ConllParseError, match="line 1"):
        read_conll(_write(tmp_path, "1\tAmi\tNNP\t0\troot\n"))


def test_read_conll_reports_line_for_bad_head(tmp_path):
    with pytest.raises(ConllParseError, match="line 2"):
        read_conll(_write(tmp_path, "1\ta\tX\t2\tdep\tO\n2\tb\tX\tx\troot\tO\n"))


def test_read_conll_rejects_out_of_sequence_index(tmp_path):
    with pytest.raises(ConllParseError, match="index"):
        read_conll(_write(tmp_path, "1\ta\tX\t0\troot\tO\n3\tb\tX\t1\tdep\tO\n"))


def test_read_conll_rejects_malformed_tag(tmp_path):
    with pytest.raises(ConllParseError, match="tag"):
        read_conll(_write(tmp_path, "1\ta\tX\t0\troot\tQ-PER\n"))


def test_read_conll_names_sentence_start_for_tree_errors(tmp_path):
    text = "1\ta\tX\t0\troot\tO\n\n1\tb\tX\t2\tdep\tO\n2\tc\tX\t1\tdep\tO\n"
    with pytest.raises(ConllParseError, match="line 3"):
        read_conll(_write(tmp_path, text))


def test_write_read_round_trip(tmp_path):
    corpus = synthesize(12, mean_len=6.0, num_types=3, vocab=30, seed=3)
    path = tmp_path / "out.conll"
    write_conll(corpus, None, path)
    back = read_conll(path)
    assert back == corpus


def test_prediction_column_round_trip(tmp_path):
    corpus = synthesize(6, mean_len=5.0, num_types=2, vocab=20, seed=4)
    preds = [s.gold for s in corpus]
    path = tmp_path / "pred.conll"
    write_conll(corpus, preds, path)
    assert [tuple(p) for p in read_predictions(path)] == [tuple(p) for p in preds]
    # gold column still intact
    assert read_conll(path) == corpus


def test_byte_order_mark_is_skipped(tmp_path):
    corpus = synthesize(8, mean_len=6.0, num_types=2, vocab=20, leak_rate=0.3, seed=5)
    preds = [s.gold[:1] for s in corpus]
    plain, marked = tmp_path / "plain.conll", tmp_path / "bom.conll"
    write_conll(corpus, preds, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_conll(marked) == read_conll(plain) == corpus
    assert [tuple(p) for p in read_predictions(marked)] == [tuple(p) for p in preds]


def test_write_conll_misaligned_predictions(tmp_path):
    corpus = synthesize(3, mean_len=5.0, seed=5)
    with pytest.raises(SerializationError):
        write_conll(corpus, [()], tmp_path / "x.conll")


@pytest.mark.parametrize("breaker", ["\t", "\n", "\r"])
@pytest.mark.parametrize("field", ["surface", "pos", "relation", "etype"])
def test_write_conll_rejects_fields_that_would_not_read_back(tmp_path, field, breaker):
    odd = f"a{breaker}b"
    tokens = (Token("x", "NN"), Token(odd if field == "surface" else "y", odd if field == "pos" else "VB"))
    tree = DependencyTree((2, 0), (odd if field == "relation" else "nsubj", "root"))
    gold = (EntitySpan(1, 1, odd if field == "etype" else "PER"),)
    corpus = [synthesize(1, mean_len=3.0, seed=6)[0], Sentence(tokens, tree, gold)]
    with pytest.raises(SerializationError, match=r"sentence 2, token [12]: a field of '.*a\\[tnr]b"):
        write_conll(corpus, None, tmp_path / "x.conll")
    assert not (tmp_path / "x.conll").exists()  # no line is written before every line is checked
    write_conll(corpus[:1], [()], tmp_path / "ok.conll")
    assert read_conll(tmp_path / "ok.conll") == corpus[:1]
    # a predicted span of a later sentence that does not render leaves an existing file unchanged
    before = (tmp_path / "ok.conll").read_bytes()
    overlapping = (EntitySpan(1, 2, "PER"), EntitySpan(2, 2, "PER"))
    with pytest.raises(SerializationError, match="sentence 2: overlapping span"):
        write_conll([corpus[0], corpus[0]], [(), overlapping], tmp_path / "ok.conll")
    assert (tmp_path / "ok.conll").read_bytes() == before


def test_read_predictions_requires_column(tmp_path):
    with pytest.raises(ConllParseError, match="line 1"):
        read_predictions(_write(tmp_path, "1\ta\tX\t0\troot\tO\n"))


def test_empty_file_is_empty_corpus(tmp_path):
    assert read_conll(_write(tmp_path, "")) == []


def test_representability_stats(womack):
    # (1,3) is covered by one arc; (5,8) needs the chain 5-6-8, so DGM only
    total, representable, pct = representability_stats([womack], Mode("dgm", 8))
    assert (total, representable, pct) == (2, 2, 100.0)
    total, representable, pct = representability_stats([womack], Mode("dgm-s", 8))
    assert (total, representable, pct) == (2, 1, 50.0)
    total, representable, pct = representability_stats([womack], Mode("linear", 8))
    assert (total, representable) == (2, 0)


def test_representability_leak_rate_lowers_coverage():
    clean = synthesize(60, mean_len=12.0, seed=6)
    leaky = synthesize(60, mean_len=12.0, leak_rate=0.8, seed=6)
    _, _, pct_clean = representability_stats(clean, Mode("dgm-s", 8))
    _, _, pct_leaky = representability_stats(leaky, Mode("dgm-s", 8))
    assert pct_clean == 100.0
    assert pct_leaky < 100.0

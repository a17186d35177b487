"""Span lattices: the four mode-specific span sets and their invariants."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spancrf.lattice
from spancrf import synthesize
from spancrf.combinatorics import enumerate_trees, random_tree
from spancrf.lattice import (
    DGM,
    DGM_S,
    LINEAR,
    MODE_KINDS,
    SEMI,
    Mode,
    SpanLattice,
    average_edges_per_token,
    block_spans,
    build_lattice,
    coverage,
    edge_count,
    representability_stats,
)

from oracles import chain_spans_reference, spans_reference, tree_sentence


def span_list(spans) -> list[tuple[int, int, int]]:
    """block_spans' arrays as a list of (sentence, u, v)."""
    return list(zip(*(a.tolist() for a in spans)))


@lru_cache(maxsize=None)
def all_trees(n: int):
    """Every tree on n nodes as a sentence, roots rotating over the tokens, and its arcs."""
    trees = [e.edges for e in enumerate_trees(n)] if n > 1 else [frozenset()]
    return [tree_sentence(n, edges, root=1 + b % n) for b, edges in enumerate(trees)], trees


def reference_block(n: int, kind: str, max_len: int) -> np.ndarray:
    """(S, 3) rows (sentence, u, v) of spans_reference for every tree on n
    nodes, in block order. A span passes the cap L when v - u < L, so each
    tree's reference is computed once at L = n and cut to shorter lengths."""
    full = _reference_block(n, kind)
    return full[full[:, 2] - full[:, 1] < max_len]


@lru_cache(maxsize=None)
def _reference_block(n: int, kind: str) -> np.ndarray:
    trees = all_trees(n)[1]
    return np.array([(b, u, v) for b, arcs in enumerate(trees) for u, v in sorted(spans_reference(n, arcs, kind, n))])


def test_mode_validation():
    assert Mode("dgm").max_len == 8
    with pytest.raises(ValueError, match="unknown mode"):
        Mode("hsmm")
    with pytest.raises(ValueError, match="max_len"):
        Mode("semi", 0)
    for max_len in (2.5, True, "3"):
        with pytest.raises(TypeError, match="max_len"):
            Mode("semi", max_len)
    assert MODE_KINDS == ("linear", "semi", "dgm-s", "dgm")


def test_block_spans_sort_by_sentence_then_u_then_v(womack, shlomo):
    spans = block_spans([womack, shlomo], Mode(DGM, 8))
    assert all(a.dtype == np.int64 for a in spans)
    got = span_list(spans)
    assert got == sorted(got)
    for b, sentence in enumerate((womack, shlomo)):
        lattice = build_lattice(sentence, Mode(DGM, 8))
        assert [(u, v) for c, u, v in got if c == b] == sorted(lattice.allowed)
        assert len(lattice) == len(lattice.allowed) and lattice.n == sentence.n


def test_lattice_equality_and_hash_follow_n_and_spans():
    lat = SpanLattice(2, frozenset({(2, 2), (1, 2), (1, 1)}))
    assert lat == SpanLattice(2, frozenset({(1, 1), (1, 2), (2, 2)}))
    assert hash(lat) == hash(SpanLattice(2, lat.allowed))


def test_linear_is_singletons_regardless_of_cap(womack):
    for cap in (1, 4, 30):
        lat = build_lattice(womack, Mode(LINEAR, cap))
        assert lat.allowed == frozenset((i, i) for i in range(1, 10))


def test_semi_is_every_span_up_to_cap(womack):
    lat = build_lattice(womack, Mode(SEMI, 3))
    n, cap = 9, 3
    assert len(lat) == n * cap - cap * (cap - 1) // 2
    assert (1, 3) in lat.allowed and (1, 4) not in lat.allowed
    assert (8, 9) in lat.allowed


def test_figure_sentence_memberships(womack):
    dgm = build_lattice(womack, Mode(DGM, 8)).allowed
    dgm_s = build_lattice(womack, Mode(DGM_S, 8)).allowed
    # one arc covers (1,3); the chain 2-3-4 covers (2,4); nothing reaches 5 from the left
    assert (1, 3) in dgm and (1, 3) in dgm_s
    assert (2, 4) in dgm and (2, 4) not in dgm_s
    assert (2, 5) not in dgm and (2, 5) not in dgm_s
    # (5,8) takes the chain 5-6-8, two arcs, so it is not a single-arc span
    assert (5, 8) in dgm and (5, 8) not in dgm_s


def test_chain_spans_matches_reference_exhaustively():
    # every tree on up to 7 nodes as one block, for every cap L
    for n in range(1, 8):
        sentences, _ = all_trees(n)
        for cap in range(1, n + 2):
            got = np.column_stack(block_spans(sentences, Mode(DGM, cap)))
            assert np.array_equal(got, reference_block(n, DGM, cap)), (n, cap)


def test_arc_semi_and_linear_spans_match_definitions_exhaustively():
    for n in range(1, 8):
        sentences, _ = all_trees(n)
        for kind in (DGM_S, SEMI, LINEAR):
            for cap in range(1, n + 2):
                got = np.column_stack(block_spans(sentences, Mode(kind, cap)))
                assert np.array_equal(got, reference_block(n, kind, cap)), (n, kind, cap)


def test_chain_spans_matches_reference_random():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        tree = random_tree(n, rng)
        cap = int(rng.integers(1, n + 2))
        got = build_lattice(tree_sentence(n, tree.edges), Mode(DGM, cap)).allowed
        assert got == chain_spans_reference(n, tree.edges, cap)
    # past 64 tokens a span no longer fits a machine word's bitmask
    for _ in range(40):
        n = int(rng.integers(60, 151))
        tree = random_tree(n, rng)
        cap = int(rng.integers(1, n + 2))
        got = build_lattice(tree_sentence(n, tree.edges), Mode(DGM, cap)).allowed
        assert got == chain_spans_reference(n, tree.edges, cap), (n, cap)


def test_chain_spans_reach_90_tokens_on_a_chain_shaped_tree():
    # arcs i - (i + 1): every span is a chain, up to the whole sentence
    n = 90
    sentence = tree_sentence(n, {(i, i + 1) for i in range(1, n)}, root=n // 2)
    spans = span_list(block_spans([sentence], Mode(DGM, 100)))
    assert spans == [(0, u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
    assert max(v - u + 1 for _, u, v in spans) == 90


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=6), st.sampled_from(MODE_KINDS), st.integers(1, 14), st.data())
def test_block_spans_concatenate_single_sentence_builds(lengths, kind, cap, data):
    # uniform Pruefer trees, non-projective ones included, with random roots
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    trees = [random_tree(n, rng) for n in lengths]
    sentences = [tree_sentence(n, tree.edges, root=int(rng.integers(1, n + 1))) for n, tree in zip(lengths, trees)]
    mode = Mode(kind, cap)
    want = []
    for b, (n, tree, sentence) in enumerate(zip(lengths, trees, sentences)):
        alone = span_list(block_spans([sentence], mode))
        assert alone == [(0, u, v) for u, v in sorted(spans_reference(n, tree.edges, kind, cap))]
        want += [(b, u, v) for _, u, v in alone]
    assert span_list(block_spans(sentences, mode)) == want


def test_mode_containment_and_cap_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        sentence = tree_sentence(n, random_tree(n, rng).edges)
        cap = int(rng.integers(1, 10))
        lin, semi, arc, dgm = (build_lattice(sentence, Mode(kind, cap)).allowed for kind in MODE_KINDS)
        assert lin == frozenset((i, i) for i in range(1, n + 1))
        assert lin <= arc <= dgm <= semi
        assert dgm <= build_lattice(sentence, Mode(DGM, cap + 1)).allowed
        assert max((v - u + 1 for u, v in dgm), default=1) <= cap


def test_edge_count_is_spans_times_label_pairs(womack):
    lat = build_lattice(womack, Mode(DGM, 8))
    assert edge_count(lat, 3) == len(lat) * 9
    with pytest.raises(ValueError):
        edge_count(lat, 0)


def test_average_edges_per_token_averages_ratios(womack, shlomo):
    k = 4
    e1 = edge_count(build_lattice(womack, Mode(DGM, 8)), k) / womack.n
    e2 = edge_count(build_lattice(shlomo, Mode(DGM, 8)), k) / shlomo.n
    got = average_edges_per_token([womack, shlomo], Mode(DGM, 8), k)
    assert got == pytest.approx((e1 + e2) / 2, rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        average_edges_per_token([], Mode(DGM, 8), k)


def test_corpus_statistics_build_each_lattice_once(monkeypatch):
    corpus = synthesize(40, mean_len=10.0, leak_rate=0.3, seed=8)
    builds = []

    def counting(sentences, mode):
        builds.append(list(sentences))
        return block_spans(sentences, mode)

    monkeypatch.setattr(spancrf.lattice, "block_spans", counting)
    average_edges_per_token(corpus, Mode(DGM, 8), 5)
    assert builds == [corpus]
    builds.clear()
    representability_stats(corpus, Mode(DGM, 8))
    assert builds == [corpus]


@pytest.mark.parametrize("kind", MODE_KINDS)
def test_coverage_matches_a_direct_recount(kind):
    corpus = synthesize(80, mean_len=12.0, leak_rate=0.4, seed=9)
    mode = Mode(kind, 4)
    want = []
    for sentence in corpus:
        lattice = build_lattice(sentence, mode)
        inside = [span for span in sentence.gold if (span.start, span.end) in lattice.allowed]
        want.append((sentence.n, len(lattice), len(sentence.gold), len(inside)))
    records = coverage(corpus, mode)
    assert records == want
    # leaked entities and the length cap leave some gold spans outside every lattice
    total, representable = sum(r[2] for r in want), sum(r[3] for r in want)
    assert 0 < representable < total
    assert representability_stats(corpus, mode) == (total, representable, 100.0 * representable / total)


def test_mode_ordering_on_a_sentence(womack):
    k = 5
    counts = {
        kind: edge_count(build_lattice(womack, Mode(kind, 8)), k)
        for kind in (DGM_S, DGM, SEMI)
    }
    assert counts[DGM_S] < counts[DGM] < counts[SEMI]


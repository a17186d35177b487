"""Span lattices: the four mode-specific span sets and their invariants."""

from __future__ import annotations

import numpy as np
import pytest

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
    arc_spans,
    average_edges_per_token,
    build_lattice,
    chain_spans,
    coverage,
    edge_count,
    representability_stats,
)

from oracles import chain_spans_reference


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


def test_sorted_spans_order():
    lat = SpanLattice(3, frozenset({(2, 2), (1, 3), (1, 1), (3, 3), (2, 3)}))
    assert lat.sorted_spans() == ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3))
    assert len(lat) == 5


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
    for n in range(2, 6):
        for tree in enumerate_trees(n):
            for cap in (2, n):
                got = chain_spans(n, tree.edges, cap)
                want = chain_spans_reference(n, tree.edges, cap)
                assert got == want, (n, sorted(tree.edges), cap)


def test_chain_spans_matches_reference_random():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(2, 13))
        tree = random_tree(n, rng)
        cap = int(rng.integers(1, n + 2))
        got = chain_spans(n, tree.edges, cap)
        want = chain_spans_reference(n, tree.edges, cap)
        assert got == want
    # past 64 tokens the reach sets no longer fit a machine word
    for _ in range(40):
        n = int(rng.integers(60, 151))
        tree = random_tree(n, rng)
        cap = int(rng.integers(1, n + 2))
        assert chain_spans(n, tree.edges, cap) == chain_spans_reference(n, tree.edges, cap), (n, cap)


def test_mode_containment_and_cap_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        tree = random_tree(n, rng)
        cap = int(rng.integers(1, 10))
        singles = frozenset((i, i) for i in range(1, n + 1))
        lin = singles
        arc = arc_spans(n, tree.edges, cap)
        dgm = chain_spans(n, tree.edges, cap)
        semi = frozenset(
            (u, v) for u in range(1, n + 1) for v in range(u, min(n, u + cap - 1) + 1)
        )
        assert lin <= arc <= dgm <= semi
        assert singles <= arc
        assert chain_spans(n, tree.edges, cap) <= chain_spans(n, tree.edges, cap + 1)
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

    def counting(sentence, mode):
        builds.append(sentence)
        return build_lattice(sentence, mode)

    monkeypatch.setattr(spancrf.lattice, "build_lattice", counting)
    average_edges_per_token(corpus, Mode(DGM, 8), 5)
    assert builds == corpus
    builds.clear()
    representability_stats(corpus, Mode(DGM, 8))
    assert builds == corpus


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


"""Acceptance gate: ten checks covering counting identities, oracle
equivalence, and directional performance, one test per criterion.

Each test prints a single pass line with its measured numbers; pytest -v
turns the file into a running checklist.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spancrf import combinatorics
from spancrf.combinatorics import (
    average_valid_spans,
    brute_force_F,
    closed_form_F,
    random_tree,
    total_valid_spans,
    verify_identities,
)
from spancrf.corpus import LabelSet
from spancrf.evaluation import score
from spancrf.inference import label_scheme, log_partition, mode_labels, viterbi
from spancrf.lattice import (
    MODE_KINDS,
    Mode,
    average_edges_per_token,
    build_lattice,
)
from spancrf.synth import synthesize
from spancrf.training import Objective, TrainConfig, _compile, decode_corpus, fit

from oracles import (
    brute_best_score,
    brute_log_partition,
    brute_marginals,
    chain_spans_reference,
    draw_factors,
    marginals,
    random_sentence,
    scored_block,
    tree_sentence,
)


def test_criterion_01_span_tree_bijection():
    start = time.perf_counter()
    for n in range(2, 8):
        assert total_valid_spans(n) == (n + 1) ** (n - 1), n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS - total spans = (n+1)^(n-1) for n=2..7 in {elapsed:.1f}s")


def test_criterion_02_closed_form_F(monkeypatch):
    for n in range(2, 8):
        for L in range(2, n + 1):
            formula = closed_form_F(n, L)
            assert formula.denominator == 1
            assert formula == brute_force_F(n, L), (n, L)
        assert brute_force_F(n, n) == (n + 1) ** (n - 1) - n ** (n - 1), n

    # a transcription error must surface as a discrepancy record, not a crash
    real = combinatorics.closed_form_F
    monkeypatch.setattr(combinatorics, "closed_form_F", lambda n, L: real(n, L) + 1)
    report = verify_identities(max_n=3)
    assert report.discrepancies and not report.ok
    assert all("formula" in str(d) for d in report.discrepancies)
    print("criterion 2: PASS - F(n,L) exact for 2<=L<=n<=7; mismatches become discrepancy records")


def test_criterion_03_average_bound():
    for n in range(2, 8):
        exact = Fraction(total_valid_spans(n), n ** (n - 2))
        assert average_valid_spans(n) == exact, n
        assert float(average_valid_spans(n)) < math.e * n, n
    print("criterion 3: PASS - average = n(1+1/n)^(n-1) exactly and < e*n for n=2..7")


def _random_instance(rng, i):
    kind = MODE_KINDS[i % len(MODE_KINDS)]
    mode = Mode(kind, max_len=int(rng.integers(1, 9)))
    types = ("A",) if kind == "linear" else ("A", "B")[: int(rng.integers(1, 3))]
    sent = random_sentence(rng, n=int(rng.integers(1, 8)), types=types)
    labels = mode_labels(LabelSet(list(types)), mode)
    assert len(labels) <= 3 or kind == "linear"
    lattice = build_lattice(sent, mode)
    (emission,), transition = draw_factors([lattice], labels, label_scheme(mode), lambda shape: rng.normal(scale=2.0, size=shape))
    return scored_block([lattice], labels, emission, transition)


def test_criterion_04_dp_matches_enumeration():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(200):
        scored = _random_instance(rng, i)
        [logz] = log_partition(scored)
        brute = brute_log_partition(scored)
        worst = max(worst, abs(logz - brute))
        assert abs(logz - brute) <= 1e-8
        np.testing.assert_allclose(marginals(scored), brute_marginals(scored), atol=1e-8)
        [(_, best)] = viterbi(scored)
        assert abs(best - brute_best_score(scored)) <= 1e-8
    print(f"criterion 4: PASS - 200 instances, all modes; worst logZ gap {worst:.2e}")


def test_criterion_05_gradient_finite_differences():
    rng = np.random.default_rng(105)
    h = 1e-5
    worst = 0.0
    for i in range(50):
        kind = MODE_KINDS[i % len(MODE_KINDS)]
        mode = Mode(kind, max_len=int(rng.integers(2, 5)))
        types = ("A",) if kind == "linear" else ("A", "B")[: int(rng.integers(1, 3))]
        corpus = [random_sentence(rng, n=int(rng.integers(2, 5)), types=types) for _ in range(2)]
        labels = mode_labels(LabelSet(list(types)), mode)
        compiled = _compile(corpus, mode, labels, {}, dep=True, project=True)
        objective = Objective(compiled, l2=float(rng.choice([0.0, 0.05])))
        w = rng.normal(scale=0.3, size=compiled.num_weights)
        _, grad = objective(w)
        for k in range(compiled.num_weights):
            w[k] += h
            up, _ = objective(w)
            w[k] -= 2 * h
            down, _ = objective(w)
            w[k] += h
            fd = (up - down) / (2 * h)
            rel = abs(fd - grad[k]) / max(abs(fd), abs(grad[k]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-5, (i, k)
    print(f"criterion 5: PASS - 50 models, every component; worst relative error {worst:.2e}")


def test_criterion_06_lattice_containment():
    rng = np.random.default_rng(106)
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        sent = tree_sentence(n, random_tree(n, rng).edges)
        L = int(rng.integers(1, 11))

        def spans(kind, cap=L):
            return build_lattice(sent, Mode(kind, cap)).allowed

        singles = frozenset((i, i) for i in range(1, n + 1))
        semi = frozenset((u, v) for u in range(1, n + 1) for v in range(u, min(n, u + L - 1) + 1))
        assert singles <= spans("dgm-s") <= spans("dgm") <= semi == spans("semi")
        assert spans("dgm") <= spans("dgm", L + 1)
        assert spans("dgm-s") <= spans("dgm-s", L + 1)
    print("criterion 6: PASS - 1000 trees (n<=30): containment, singletons, L-monotonicity")


def test_criterion_07_overfit_all_modes():
    corpus = synthesize(20, mean_len=9.0, num_types=2, vocab=0, entity_rate=0.3, max_len=8, seed=11)
    config = TrainConfig(l2=0.0, max_iter=200)
    iterations = {}
    for kind in MODE_KINDS:
        seen = []
        model = fit(corpus, config, Mode(kind, 8), trace=lambda record: seen.append(record.get("iteration")))
        assert seen and seen[-1] <= 200, kind
        preds = decode_corpus(model, corpus)
        f1 = score([s.gold for s in corpus], preds).f1
        assert f1 == 100.0, kind
        iterations[kind] = seen[-1]
    detail = ", ".join(f"{kind} {its} iters" for kind, its in iterations.items())
    print(f"criterion 7: PASS - 100.0 train F1 in all four modes ({detail})")


def test_criterion_08_figure_sentence_memberships(womack):
    dgm = build_lattice(womack, Mode("dgm", 8)).allowed
    dgm_s = build_lattice(womack, Mode("dgm-s", 8)).allowed
    assert (1, 3) in dgm
    assert (2, 4) in dgm
    assert (2, 5) not in dgm
    assert (5, 8) in dgm and (5, 8) not in dgm_s
    print("criterion 8: PASS - worked-sentence span memberships match the stated lattice")


def test_criterion_09_dgm_faster_than_semi():
    corpus = synthesize(
        500, mean_len=25.0, num_types=4, vocab=200, entity_rate=0.15, max_len=8, seed=9
    )
    times = {}
    for kind in ("dgm", "semi"):
        mean, _ = bench(corpus, kind)
        times[kind] = mean
    ratio = times["dgm"] / times["semi"]
    assert ratio <= 0.8, times
    print(
        f"criterion 9: PASS - per-iteration dgm {times['dgm']:.3f}s vs semi {times['semi']:.3f}s"
        f" (ratio {ratio:.2f} <= 0.8)"
    )


def bench(corpus, kind):
    from spancrf.training import bench_per_evaluation

    return bench_per_evaluation(corpus, Mode(kind, 8), iters=3, warmup=1)


def test_criterion_10_edge_accounting():
    corpus = synthesize(150, mean_len=15.0, num_types=4, vocab=100, entity_rate=0.2, seed=10)
    K = len(LabelSet.from_corpus(corpus))
    assert K == 5
    L = 8
    averages = {}
    for kind in ("dgm-s", "dgm", "semi"):
        got = average_edges_per_token(corpus, Mode(kind, L), K)
        # independent recount straight from the definitions
        total = 0.0
        for sent in corpus:
            n = sent.n
            if kind == "semi":
                spans = sum(min(L, n - u + 1) for u in range(1, n + 1))
            elif kind == "dgm":
                spans = len(chain_spans_reference(n, sent.tree.arcs, L))
            else:
                spans = n + sum(1 for u, v in sent.tree.arcs if v - u + 1 <= L)
            total += spans * K * K / n
        want = total / len(corpus)
        assert got == pytest.approx(want, rel=1e-12), kind
        averages[kind] = got
    assert averages["dgm-s"] < averages["dgm"] < averages["semi"]
    detail = ", ".join(f"{kind} {avg:.1f}" for kind, avg in averages.items())
    print(f"criterion 10: PASS - edges/token vs independent recount; ordering holds ({detail})")

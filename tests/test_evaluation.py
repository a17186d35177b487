"""Span-level P/R/F scoring and the bootstrap significance test."""

from __future__ import annotations

import pytest

from spancrf import EntitySpan, bootstrap_test, score


def e(start, end, etype="PER"):
    return EntitySpan(start, end, etype)


def test_perfect_and_empty_scores():
    gold = [[e(1, 2)], [e(3, 3, "LOC")]]
    report = score(gold, [list(s) for s in gold])
    assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)
    empty = score([[], []], [[], []])
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)
    assert empty.per_type == {}


def test_worked_micro_example():
    # 3 gold, 2 predicted, 1 exactly right: P=50, R=33.3, F=40
    gold = [[e(1, 2), e(4, 4, "LOC")], [e(2, 3, "ORG")]]
    pred = [[e(1, 2), e(3, 4, "LOC")], []]
    report = score(gold, pred)
    assert report.precision == pytest.approx(50.0)
    assert report.recall == pytest.approx(100.0 / 3)
    assert report.f1 == pytest.approx(40.0)
    assert report.overall.gold == 3
    assert report.overall.predicted == 2
    assert report.overall.correct == 1


def test_type_must_match_not_just_boundaries():
    gold = [[e(1, 2, "PER")]]
    report = score(gold, [[e(1, 2, "LOC")]])
    assert report.f1 == 0.0
    assert report.per_type["PER"].gold == 1
    assert report.per_type["LOC"].predicted == 1


def test_per_type_rows_are_sorted_and_add_up():
    gold = [[e(1, 1, "B"), e(3, 4, "A")], [e(2, 2, "A")]]
    pred = [[e(1, 1, "B"), e(3, 4, "A")], [e(3, 3, "A")]]
    report = score(gold, pred)
    assert list(report.per_type) == ["A", "B"]
    assert report.per_type["A"].correct == 1
    assert report.per_type["B"].f1 == 100.0
    assert sum(t.gold for t in report.per_type.values()) == report.overall.gold
    assert sum(t.correct for t in report.per_type.values()) == report.overall.correct


def test_sentence_order_insensitivity_within_sentence():
    gold = [[e(1, 1), e(3, 4, "LOC")]]
    pred = [[e(3, 4, "LOC"), e(1, 1)]]
    assert score(gold, pred).f1 == 100.0


def test_duplicate_spans_count_once():
    gold = [[e(1, 2)]]
    pred = [[e(1, 2), e(1, 2)]]
    assert score(gold, pred).f1 == 100.0


def test_misaligned_lengths_rejected():
    with pytest.raises(ValueError, match="gold sentences"):
        score([[]], [[], []])
    with pytest.raises(ValueError, match="gold sentences"):
        bootstrap_test([[]], [[]], [[], []])


def test_bootstrap_exact_tie_short_circuits():
    gold = [[e(1, 1)], [e(2, 2)]]
    result = bootstrap_test(gold, [list(s) for s in gold], [list(s) for s in gold])
    assert result.tie
    assert result.p_value == 1.0
    assert result.better == ""
    assert result.f1_a == result.f1_b == 100.0


def test_bootstrap_perfect_vs_useless():
    gold = [[e(i, i)] for i in range(1, 21)]
    perfect = [list(s) for s in gold]
    useless = [[] for _ in gold]
    result = bootstrap_test(gold, perfect, useless, samples=500)
    assert result.better == "a"
    assert not result.tie
    assert result.f1_a == 100.0 and result.f1_b == 0.0
    assert result.p_value == 1 / 501
    flipped = bootstrap_test(gold, useless, perfect, samples=500)
    assert flipped.better == "b"
    assert flipped.p_value == 1 / 501


def test_bootstrap_p_counts_the_full_set_when_no_resample_catches_up():
    # the loser finds no entity and the winner every one, in every resample:
    # no hit, so p = (0 + 1) / (samples + 1), not 0
    gold = [[e(1, 1)], [e(2, 2)], [e(1, 2)]]
    for samples in (100, 1000):
        result = bootstrap_test(gold, [list(s) for s in gold], [[] for _ in gold], samples=samples)
        assert result.p_value == 1 / (samples + 1)


def test_bootstrap_is_deterministic():
    gold = [[e(i, i)] for i in range(1, 13)]
    pred_a = [list(s) if i % 3 else [] for i, s in enumerate(gold)]
    pred_b = [list(s) if i % 2 else [] for i, s in enumerate(gold)]
    r1 = bootstrap_test(gold, pred_a, pred_b, samples=400, seed=9)
    r2 = bootstrap_test(gold, pred_a, pred_b, samples=400, seed=9)
    assert r1 == r2
    r3 = bootstrap_test(gold, pred_a, pred_b, samples=400, seed=10)
    assert r3.better == r1.better  # seed moves p a little, not the winner


def test_bootstrap_p_shrinks_with_corpus_size():
    # the same 75%-vs-50% recall gap grows more significant with more data
    def corpus(n):
        gold = [[e(i, i)] for i in range(1, n + 1)]
        pred_a = [list(s) if i % 4 else [] for i, s in enumerate(gold)]
        pred_b = [list(s) if i % 2 else [] for i, s in enumerate(gold)]
        return gold, pred_a, pred_b

    small = bootstrap_test(*corpus(12), samples=2000, seed=3)
    large = bootstrap_test(*corpus(120), samples=2000, seed=3)
    assert small.better == large.better == "a"
    assert large.p_value < small.p_value


def test_bootstrap_sample_floor():
    gold = [[e(1, 1)]]
    with pytest.raises(ValueError, match="100"):
        bootstrap_test(gold, [[]], [[e(1, 1)]], samples=50)

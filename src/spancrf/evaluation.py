"""Span-level scoring and bootstrap significance testing.

A predicted span counts iff (start, end, type) all match a gold span.
Overall numbers are micro-averaged; per-type rows are diagnostics.
All percentages follow F1 = 2PR/(P+R) with 0 when P+R = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EntitySpan

DEFAULT_SAMPLES = 10000
_CHUNK = 1000


@dataclass(frozen=True)
class TypeScore:
    """Gold/predicted/correct counts with derived percentages."""

    gold: int
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return 100.0 * self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Micro-averaged overall score plus one TypeScore per entity type."""

    overall: TypeScore
    per_type: dict[str, TypeScore]

    @property
    def precision(self) -> float:
        return self.overall.precision

    @property
    def recall(self) -> float:
        return self.overall.recall

    @property
    def f1(self) -> float:
        return self.overall.f1


def _counts(
    gold: Sequence[Sequence[EntitySpan]], pred: Sequence[Sequence[EntitySpan]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sentence (gold, predicted, correct) count arrays."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    g = np.empty(len(gold), dtype=np.int64)
    p = np.empty(len(gold), dtype=np.int64)
    c = np.empty(len(gold), dtype=np.int64)
    for i, (gs, ps) in enumerate(zip(gold, pred)):
        g[i] = len(gs)
        p[i] = len(ps)
        c[i] = len(set(gs) & set(ps))
    return g, p, c


def score(gold: Sequence[Sequence[EntitySpan]], pred: Sequence[Sequence[EntitySpan]]) -> EvalReport:
    """Exact-match micro P/R/F over aligned per-sentence span lists."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    by_type: dict[str, list[int]] = {}

    def cell(etype: str) -> list[int]:
        return by_type.setdefault(etype, [0, 0, 0])

    total = [0, 0, 0]
    for gs, ps in zip(gold, pred):
        gset, pset = set(gs), set(ps)
        total[0] += len(gset)
        total[1] += len(pset)
        total[2] += len(gset & pset)
        for span in gset:
            cell(span.etype)[0] += 1
        for span in pset:
            cell(span.etype)[1] += 1
        for span in gset & pset:
            cell(span.etype)[2] += 1
    per_type = {t: TypeScore(*counts) for t, counts in sorted(by_type.items())}
    return EvalReport(TypeScore(*total), per_type)


def _f1_of(correct: np.ndarray, predicted: np.ndarray, gold: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(predicted > 0, correct / predicted, 0.0)
        r = np.where(gold > 0, correct / gold, 0.0)
        return np.where(p + r > 0, 2.0 * p * r / (p + r), 0.0)


@dataclass(frozen=True)
class SignificanceResult:
    p_value: float
    tie: bool
    f1_a: float
    f1_b: float
    better: str  # "a", "b", or "" on an exact tie


def bootstrap_test(
    gold: Sequence[Sequence[EntitySpan]],
    pred_a: Sequence[Sequence[EntitySpan]],
    pred_b: Sequence[Sequence[EntitySpan]],
    samples: int = DEFAULT_SAMPLES,
    seed: int = 42,
) -> SignificanceResult:
    """One-sided bootstrap over sentences: can the worse system catch up?

    Resamples sentence indices with replacement; p = (hits + 1) / (samples
    + 1), hits the resamples where the full-set loser scores at least as
    high as the winner, so p > 0. An exact tie short-circuits to p = 1.
    Deterministic for a fixed seed and sample count.
    """
    if samples < 100:
        raise ValueError("need at least 100 bootstrap samples")
    ga, pa, ca = _counts(gold, pred_a)
    gb, pb, cb = _counts(gold, pred_b)
    f1_a = float(_f1_of(ca.sum(), pa.sum(), ga.sum()) * 100.0)
    f1_b = float(_f1_of(cb.sum(), pb.sum(), gb.sum()) * 100.0)
    if f1_a == f1_b:
        return SignificanceResult(1.0, True, f1_a, f1_b, "")
    if f1_a > f1_b:
        win, lose = (pa, ca), (pb, cb)
        better = "a"
    else:
        win, lose = (pb, cb), (pa, ca)
        better = "b"
    n = len(gold)
    rng = np.random.default_rng(seed)
    hits = done = 0
    while done < samples:
        take = min(_CHUNK, samples - done)
        idx = rng.integers(0, n, size=(take, n))
        g = ga[idx].sum(axis=1)
        f_win = _f1_of(win[1][idx].sum(axis=1), win[0][idx].sum(axis=1), g)
        f_lose = _f1_of(lose[1][idx].sum(axis=1), lose[0][idx].sum(axis=1), g)
        hits += int((f_lose >= f_win).sum())
        done += take
    return SignificanceResult((hits + 1) / (samples + 1), False, f1_a, f1_b, better)

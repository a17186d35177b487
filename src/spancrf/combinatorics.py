"""Counting checks for dependency-guided span lattices.

Enumerates labeled trees through the Pruefer bijection and counts valid
spans by brute force, then compares against the closed forms:

    total spans over all trees on n nodes  = (n+1)^(n-1)
    average spans per tree                 = n(1+1/n)^(n-1)  <=  e*n
    F(n,L)   multi-word spans up to length L, summed over trees
    f_n(u,v) trees whose lattice contains the span (u,v)

All closed forms are evaluated in exact rational arithmetic; floating
point could mask an off-by-one in a transcribed formula. Brute force is
the ground truth: a formula that disagrees with it is reported as a
Discrepancy record, never silently trusted.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .lattice import DGM, Mode, _spans

MAX_ENUMERABLE_N = 8  # n^(n-2) trees; 8 -> 262,144 is the desk-scale ceiling


@dataclass(frozen=True)
class LabeledTree:
    """Undirected labeled tree on nodes 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one node, got {self.n}")
        if len(self.edges) != self.n - 1:
            raise ValueError(f"{self.n} nodes need {self.n - 1} edges, got {len(self.edges)}")
        parent = list(range(self.n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u},{v})")
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValueError(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv


def prufer_decode(seq: Sequence[int], n: int) -> LabeledTree:
    """Build the labeled tree on 1..n encoded by a Pruefer sequence of length n-2."""
    if n < 2:
        raise ValueError(f"Pruefer codes need n >= 2, got {n}")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n-2 = {n - 2}")
    degree = [1] * (n + 1)
    for x in seq:
        if not 1 <= x <= n:
            raise ValueError(f"sequence entry {x} out of range 1..{n}")
        degree[x] += 1
    leaves = [i for i in range(1, n + 1) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return LabeledTree(n, frozenset(edges))


def prufer_encode(tree: LabeledTree) -> tuple[int, ...]:
    """Pruefer sequence of a labeled tree; inverse of prufer_decode."""
    n = tree.n
    if n < 2:
        raise ValueError("Pruefer codes need n >= 2")
    adjacent: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    for u, v in tree.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    leaves = [i for i in range(1, n + 1) if len(adjacent[i]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        neighbor = adjacent[leaf].pop()
        adjacent[neighbor].remove(leaf)
        seq.append(neighbor)
        if len(adjacent[neighbor]) == 1:
            heapq.heappush(leaves, neighbor)
    return tuple(seq)


def enumerate_trees(n: int) -> Iterator[LabeledTree]:
    """Yield every labeled tree on 1..n exactly once (all n^(n-2) Pruefer sequences)."""
    if not 2 <= n <= MAX_ENUMERABLE_N:
        raise ValueError(f"n must be in 2..{MAX_ENUMERABLE_N}, got {n}")
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(seq, n)


def random_tree(n: int, rng) -> LabeledTree:
    """Uniformly random labeled tree on 1..n from a random Pruefer sequence."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n == 1:
        return LabeledTree(1, frozenset())
    if n == 2:
        return LabeledTree(2, frozenset({(1, 2)}))
    seq = rng.integers(1, n + 1, size=n - 2)
    return prufer_decode([int(x) for x in seq], n)


@lru_cache(maxsize=None)
def _span_census(n: int) -> tuple[int, int, dict[tuple[int, int], int]]:
    """One brute-force pass over all trees on n nodes, each a sentence of a block for the lattice builder.

    Returns (trees, total spans including singletons, multi-word count by (u,v) endpoints).
    """
    n_trees, total, by_endpoints = 0, 0, Counter()
    trees = enumerate_trees(n)
    while batch := list(itertools.islice(trees, 1 << 14)):
        n_trees += len(batch)
        arcs = np.array([list(tree.edges) for tree in batch], dtype=np.int64).reshape(-1, 2) - 1
        arcs += n * np.repeat(np.arange(len(batch)), n - 1)[:, None]  # block-global token indices
        _, u, v = _spans(np.full(len(batch), n), *arcs.T, Mode(DGM, n))
        total += len(u)
        by_endpoints.update(zip(u[v > u].tolist(), v[v > u].tolist()))
    return n_trees, total, dict(by_endpoints)


def total_valid_spans(n: int) -> int:
    """Valid spans (singletons included) summed over every tree on n nodes, by brute force."""
    return _span_census(n)[1]


def brute_force_F(n: int, max_len: int) -> int:
    """Multi-word valid spans of length <= max_len summed over all trees on n nodes."""
    if not 1 <= max_len <= n:
        raise ValueError(f"max_len must be in 1..{n}, got {max_len}")
    return sum(count for (u, v), count in _span_census(n)[2].items() if v - u < max_len)


def brute_force_f_n(n: int, u: int, v: int) -> int:
    """Trees on n nodes whose lattice contains the span (u,v), by brute force."""
    if not (1 <= u < v <= n):
        raise ValueError(f"need 1 <= u < v <= n, got u={u} v={v} n={n}")
    return _span_census(n)[2].get((u, v), 0)


def closed_form_F(n: int, max_len: int) -> Fraction:
    """Closed form for the multi-word span total F(n, L), in exact rationals.

    F(n,L) = n^(n-2)/(n+1) * [(n^2 + L(n-L+1))(1+1/n)^(L-1) - n(n+1)],
    with F(n,1) = 0 since the count covers multi-word spans only.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= max_len <= n:
        raise ValueError(f"max_len must be in 1..{n}, got {max_len}")
    if max_len == 1:
        return Fraction(0)
    L = max_len
    growth = Fraction(n + 1, n) ** (L - 1)
    return Fraction(n ** (n - 2), n + 1) * ((n * n + L * (n - L + 1)) * growth - n * (n + 1))


def average_valid_spans(n: int) -> Fraction:
    """Closed form n(1+1/n)^(n-1): average valid spans per tree, exact."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n * Fraction(n + 1, n) ** (n - 1)


def f_n_count(n: int, u: int, v: int) -> int:
    """Closed form for f_n(u,v): trees on n nodes whose lattice contains (u,v).

    f_n(u,v) = n^(n-3) * ((2n+1+v-u)/(n+1)) * (1+1/n)^(v-u-1), evaluated
    exactly. The result must be an integer (it counts trees); a fractional
    value means the formula was transcribed wrong and raises ArithmeticError.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not (1 <= u < v <= n):
        raise ValueError(f"need 1 <= u < v <= n, got u={u} v={v} n={n}")
    value = (
        Fraction(n) ** (n - 3)
        * Fraction(2 * n + 1 + v - u, n + 1)
        * Fraction(n + 1, n) ** (v - u - 1)
    )
    if value.denominator != 1:
        raise ArithmeticError(f"f_{n}({u},{v}) evaluated to non-integer {value}")
    return int(value)


def f_n_binomial(n: int, u: int, v: int) -> Fraction:
    """The pre-simplification sum for f_n(u,v): sum_k C(v-u-1,k)(k+2)n^(n-k-3).

    Independent route to the same count; exponents may go negative for
    small n, so the sum lives in the rationals until it collapses.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not (1 <= u < v <= n):
        raise ValueError(f"need 1 <= u < v <= n, got u={u} v={v} n={n}")
    width = v - u - 1
    return sum(
        (math.comb(width, k) * (k + 2) * Fraction(n) ** (n - k - 3) for k in range(width + 1)),
        Fraction(0),
    )


@dataclass(frozen=True)
class Discrepancy:
    """A closed form disagreed with brute force; brute force wins."""

    identity: str
    params: tuple[tuple[str, int], ...]
    brute_force: int
    formula: Fraction

    def __str__(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.identity}({args}): brute force {self.brute_force}, formula {self.formula}"


@dataclass
class VerificationReport:
    rows: list[tuple[str, bool]]
    discrepancies: list[Discrepancy]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.rows) and not self.discrepancies


def verify_identities(max_n: int = 7) -> VerificationReport:
    """Run the full identity suite for 2 <= n <= max_n.

    Checks, per n: the tree count n^(n-2); the span bijection total
    (n+1)^(n-1); the exact average and its e*n bound; F(n,L) against brute
    force for every L; F(n,n) = (n+1)^(n-1) - n^(n-1); and f_n(u,v) against
    brute force for every pair (closed form and binomial sum). Formula
    mismatches become Discrepancy records rather than failures of the
    brute-force rows.
    """
    if not 2 <= max_n <= MAX_ENUMERABLE_N:
        raise ValueError(f"max_n must be in 2..{MAX_ENUMERABLE_N}, got {max_n}")
    rows: list[tuple[str, bool]] = []
    discrepancies: list[Discrepancy] = []
    for n in range(2, max_n + 1):
        n_trees = _span_census(n)[0]
        rows.append((f"n={n}: tree count {n_trees} = n^(n-2) = {n ** (n - 2)}", n_trees == n ** (n - 2)))

        total = total_valid_spans(n)
        expected_total = (n + 1) ** (n - 1)
        rows.append((f"n={n}: total spans {total} = (n+1)^(n-1) = {expected_total}", total == expected_total))

        average = average_valid_spans(n)
        exact = Fraction(total, n ** (n - 2))
        rows.append((f"n={n}: average {exact} matches n(1+1/n)^(n-1)", average == exact))
        rows.append((f"n={n}: average {float(average):.3f} < e*n = {math.e * n:.3f}", float(average) < math.e * n))

        for L in range(2, n + 1):
            brute = brute_force_F(n, L)
            formula = closed_form_F(n, L)
            if formula != brute:
                discrepancies.append(Discrepancy("F", (("n", n), ("L", L)), brute, formula))
            rows.append((f"n={n} L={L}: F = {brute} (brute force)", True))
        top = expected_total - n ** (n - 1)
        rows.append((f"n={n}: F(n,n) = (n+1)^(n-1) - n^(n-1) = {top}", brute_force_F(n, n) == top))

        if n >= 3:
            fn_ok = True
            for u in range(1, n):
                for v in range(u + 1, n + 1):
                    brute = brute_force_f_n(n, u, v)
                    for name, formula in (("f_n", Fraction(f_n_count(n, u, v))), ("f_n_binomial", f_n_binomial(n, u, v))):
                        if formula != brute:
                            discrepancies.append(Discrepancy(name, (("n", n), ("u", u), ("v", v)), brute, formula))
                            fn_ok = False
            rows.append((f"n={n}: f_n(u,v) closed forms match brute force for all pairs", fn_ok))

            # F is by definition the sum of f_n over admissible endpoints
            for L in range(2, n + 1):
                summed = sum(brute_force_f_n(n, u, v) for u in range(1, n) for v in range(u + 1, min(n, u + L - 1) + 1))
                rows.append((f"n={n} L={L}: sum of f_n = F", summed == brute_force_F(n, L)))
    return VerificationReport(rows, discrepancies)

"""The block DP core against per-sentence enumeration, over random blocks.

A block concatenates scored sentences of mixed lengths under one mode;
every per-sentence quantity read off the block must equal brute force, and
equal what the same sentence gives as a block of one, bit for bit. Blocks of
sentences too long to enumerate are decoded against a scalar Viterbi, and
their log Z, messages and marginal sums are checked against a forward and
backward in exact integers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancrf.corpus import LabelSet
from spancrf.inference import (
    IOB_SCHEME,
    SEGMENT_SCHEME,
    InvariantViolation,
    _FLOOR,
    _TINY,
    _RowStep,
    allowed_mask,
    backward,
    forward,
    label_scheme,
    log_partition,
    mode_labels,
    pair_mask,
    posteriors,
    viterbi,
)
from spancrf.lattice import MODE_KINDS, Mode, SpanLattice, build_lattice

from oracles import (
    block_lattices,
    brute_log_partition,
    brute_marginals,
    brute_viterbi,
    dense_mask,
    draw_factors,
    exact_forward_backward,
    marginals,
    path_score,
    position_viterbi,
    random_sentence,
    reference_steps,
    scored_block,
)


@st.composite
def scored_sentences(draw):
    """1-6 sentences of lengths 1-5, each a scored block of one, under one
    mode and label set, sharing one transition table.

    Emission and transition scores are random where the labeling rule
    allows them and -inf where it forbids; small integers when ties are
    drawn, so equal path scores are exact and the tie rule decides.
    """
    mode = Mode(draw(st.sampled_from(MODE_KINDS)), max_len=draw(st.integers(1, 4)))
    labels = mode_labels(LabelSet(["A", "B"][: draw(st.integers(1, 2))]), mode)
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    ties = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        return rng.integers(-2, 3, size=shape).astype(float) if ties else rng.normal(scale=1.5, size=shape)

    lattices = [build_lattice(random_sentence(rng, n=n), mode) for n in lengths]
    emissions, transition = draw_factors(lattices, labels, label_scheme(mode), values)
    return [scored_block([lat], labels, emission, transition) for lat, emission in zip(lattices, emissions)]


def as_block(singles):
    return scored_block(
        [block_lattices(s)[0] for s in singles],
        singles[0].labels,
        np.concatenate([s.emission for s in singles]),
        singles[0].transition,
    )


def per_sentence(rows, singles):
    return np.split(rows, np.cumsum([len(s.emission) for s in singles])[:-1])


def scheme_of(labels):
    return IOB_SCHEME if any(y.startswith("B-") for y in labels) else SEGMENT_SCHEME


@settings(max_examples=100, deadline=None)
@given(scored_sentences())
def test_block_partition_and_marginals_match_enumeration(singles):
    block = as_block(singles)
    logz, label, _ = posteriors(block, forward(block), backward(block))
    m = marginals(block)
    assert logz.shape == (len(singles),)
    assert np.array_equal(log_partition(block), logz)
    for scored, z, m_b, label_b in zip(singles, logz, per_sentence(m, singles), per_sentence(label, singles)):
        assert z == pytest.approx(brute_log_partition(scored), abs=1e-9)
        np.testing.assert_allclose(m_b, brute_marginals(scored), rtol=0, atol=1e-9)
        # the block layout does not change a sentence's numbers
        alone_z, alone_label, _ = posteriors(scored, forward(scored), backward(scored))
        assert alone_z[0] == z
        assert np.array_equal(alone_label, label_b)
        assert np.array_equal(marginals(scored), m_b)


@settings(max_examples=100, deadline=None)
@given(scored_sentences())
def test_factors_and_gradient_reductions(singles):
    block = as_block(singles)
    labels, K = block.labels, len(block.labels)
    scheme = scheme_of(labels)
    dense = np.concatenate([dense_mask(block_lattices(s)[0], labels, scheme) for s in singles])
    # span mask, pair mask and begin rule reproduce the dense mask cell for cell
    u = block.layout.uv[:, 0]
    begin = (u == 1)[:, None] == (np.arange(K + 1) == K)[None, :]
    factored = allowed_mask(block.layout.uv, K)[:, None, :] & pair_mask(labels, scheme)[None] & begin[:, :, None]
    assert np.array_equal(factored, dense)
    # the factors carry no begin rule, yet what it forbids gets no mass
    m = marginals(block)
    assert (m[~dense] == 0).all()
    # the gradient's two reductions are the sums of the dense marginals
    _, label, pair = posteriors(block, forward(block), backward(block))
    np.testing.assert_allclose(label, m.sum(axis=1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair, m.sum(axis=0), rtol=0, atol=1e-12)
    # exactly one labeled span covers each position
    for scored, label_b in zip(singles, per_sentence(label, singles)):
        lattice = block_lattices(scored)[0]
        for j in range(1, lattice.n + 1):
            covering = [s for s, (u, v) in enumerate(sorted(lattice.allowed)) if u <= j <= v]
            assert label_b[covering].sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(scored_sentences(), st.data())
def test_layout_rows_are_the_span_map(singles, data):
    block = as_block(singles)
    lay = block.layout
    # every span of every sentence maps to its row, in block order
    sentence = np.repeat(np.arange(len(singles)), [len(s.emission) for s in singles])
    u, v = np.array([span for s in singles for span in sorted(block_lattices(s)[0].allowed)]).T
    assert np.array_equal(lay.rows(sentence, u, v), np.arange(len(u)))
    # a span missing from its lattice: a gap in it, past the sentence's n, or not 1 <= u <= v
    b = data.draw(st.integers(0, len(singles) - 1), label="sentence")
    lattice = block_lattices(singles[b])[0]
    missing = [(i, j) for i in range(lattice.n + 2) for j in range(-1, lattice.n + 2) if (i, j) not in lattice.allowed]
    for span in missing:
        with pytest.raises(KeyError, match=f"sentence {b} "):
            lay.rows(b, *span)
    # the (S, K) span mask covers the dense mask's projection, in either scheme
    scheme = scheme_of(block.labels)
    dense = np.concatenate([dense_mask(block_lattices(s)[0], block.labels, scheme) for s in singles])
    assert (allowed_mask(lay.uv, len(block.labels)) >= dense.any(axis=1)).all()


@settings(max_examples=100, deadline=None)
@given(scored_sentences())
def test_block_viterbi_matches_enumeration_with_tie_rule(singles):
    decoded = viterbi(as_block(singles))
    assert len(decoded) == len(singles)
    for scored, (seg, best) in zip(singles, decoded):
        want = brute_viterbi(scored)
        spans = sorted(block_lattices(scored)[0].allowed)
        assert list(seg) == [(spans[s], scored.labels[y]) for s, y in want]
        assert best == pytest.approx(path_score(scored, want), abs=1e-9)
        assert viterbi(scored) == [(seg, best)]


@pytest.mark.parametrize("ties", [False, True], ids=["float", "ties"])
@pytest.mark.parametrize("kind", MODE_KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_block_viterbi_matches_scalar_viterbi_on_long_sentences(kind, ties, seed):
    rng = np.random.default_rng([seed, MODE_KINDS.index(kind), int(ties)])
    mode = Mode(kind, max_len=8)
    labels = mode_labels(LabelSet(["A", "B"]), mode)

    def values(shape):
        return rng.integers(-2, 3, size=shape).astype(float) if ties else rng.normal(scale=1.5, size=shape)

    lengths = [80, *rng.integers(1, 81, size=5)]
    lattices = [build_lattice(random_sentence(rng, n=int(n)), mode) for n in rng.permutation(lengths)]
    emissions, transition = draw_factors(lattices, labels, label_scheme(mode), values)
    block = scored_block(lattices, labels, np.concatenate(emissions), transition)
    got, want = viterbi(block), position_viterbi(block)
    assert [(seg, best.hex()) for seg, best in got] == [(seg, best.hex()) for seg, best in want]


def integer_weights(rng, table, scale, emission):
    """A weight k >= 1 for every finite cell of a factor table, 0 for every
    -inf one. small: k < 10^6. huge: that times 10^300 in one cell of eight.
    redo: label 0 is best by far, emission k 10^300 against < 10^3, but meets
    every label, before or after it, only through k = 1, while the other
    pairs weigh about 10^288; so a row step's shifted sums underflow."""
    out = []
    for p, row in enumerate(table.tolist()):
        ks = []
        for y, score in enumerate(row):
            k = int(rng.integers(1, 10**6))
            if scale == "huge" and rng.random() < 1 / 8:
                k *= 10**300
            elif scale == "redo":
                if emission:
                    k = k * 10**300 if y == 0 else k // 1000 + 1
                else:
                    k = 1 if 0 in (p, y) else (k // 1000 + 1) * 10**285
            ks.append(0 if score == -math.inf else k)
        out.append(ks)
    return out


def log_weights(weights) -> np.ndarray:
    return np.array([[math.log(k) if k else -math.inf for k in row] for row in weights])


# (scale, L, longest sentence): small weights at every L up to n = 80; the
# integers of huge and redo weights grow with n, so their blocks are shorter
_EXACT_CASES = [("small", L, 80) for L in (1, 3, 8, 30)] + [("huge", 8, 48), ("huge", 30, 24), ("redo", 3, 32)]


@pytest.mark.parametrize("scale, max_len, longest", _EXACT_CASES)
@pytest.mark.parametrize("kind", MODE_KINDS)
def test_block_dp_matches_exact_integer_dp(kind, scale, max_len, longest, monkeypatch):
    # with every score the log of an integer, Z and the marginals' numerators
    # are integers, which exact_forward_backward sums exactly
    rng = np.random.default_rng([MODE_KINDS.index(kind), max_len, longest])
    mode = Mode(kind, max_len=max_len)
    labels = mode_labels(LabelSet(["A", "B"]), mode)
    lengths = rng.permutation([longest, 1, 1, *rng.integers(1, longest + 1, size=2)])
    lattices = [build_lattice(random_sentence(rng, n=int(n)), mode) for n in lengths]
    emissions, transition = draw_factors(lattices, labels, label_scheme(mode), np.zeros)
    E = [integer_weights(rng, e, scale, emission=True) for e in emissions]
    T = integer_weights(rng, transition, scale, emission=False)
    block = scored_block(lattices, labels, np.concatenate([log_weights(e) for e in E]), log_weights(T))
    # count the rows whose shifted sums underflow, which the row step redoes
    redone, step = [], _RowStep.__call__

    def spy(self, x):
        a = np.maximum(x.max(axis=1), _FLOOR)[:, None]
        redone.append(int((np.einsum("rp,py->ry", np.exp(x - a), self.E) <= _TINY).any(axis=1).sum()))
        return step(self, x)

    monkeypatch.setattr(_RowStep, "__call__", spy)
    fwd = forward(block)
    forward_redone = sum(redone)
    bwd = backward(block)
    logz, label, pair = posteriors(block, fwd, bwd)
    # each score log k is rounded to within 2^-53 of itself, and a path sums
    # up to 2n of them: a marginal's error grows with n and the largest score
    tol = 4e-14 * longest * (1 + max(block.emission.max(), block.transition.max()))
    lay, want_pair = block.layout, np.zeros(block.transition.shape)
    for b, (lattice, weights) in enumerate(zip(lattices, E)):
        Z, *messages, label_b, pair_b = exact_forward_backward(lattice.n, sorted(lattice.allowed), weights, T)
        assert math.isclose(logz[b], math.log(Z), rel_tol=1e-14, abs_tol=1e-14)
        rows = slice(lay.first_row[b], lay.last_row[b] + 1)
        for got, want in zip((*fwd, *bwd), messages):
            want = log_weights(want)
            got = got[rows]
            assert np.array_equal(got == -np.inf, want == -np.inf)
            np.testing.assert_allclose(got[want > -np.inf], want[want > -np.inf], rtol=1e-14, atol=1e-14)
        want_label = np.array([[k / Z for k in row] for row in label_b])
        np.testing.assert_allclose(label[lay.sentence == b], want_label, rtol=0, atol=tol)
        want_pair += [[k / Z for k in row] for row in pair_b]
    np.testing.assert_allclose(pair, want_pair, rtol=tol, atol=tol)
    if scale == "redo":
        assert forward_redone > 0 and sum(redone) > forward_redone


@settings(max_examples=50, deadline=None)
@given(scored_sentences(), st.integers(2, 5), st.data())
def test_gapped_lattice_inside_a_block_raises(singles, n, data):
    # the block cannot be built, so no pass, backward included, runs on it
    gap = data.draw(st.integers(1, n), label="gap")
    where = data.draw(st.integers(0, len(singles)), label="where")
    labels = singles[0].labels
    spans = frozenset((u, v) for u in range(1, n + 1) for v in range(u, min(n, u + 1) + 1) if v != gap)
    lattices, emissions = [block_lattices(s)[0] for s in singles], [s.emission for s in singles]
    lattices.insert(where, SpanLattice(n, spans))
    emissions.insert(where, np.zeros((len(spans), len(labels))))
    with pytest.raises(InvariantViolation, match=f"no spans end at position {gap} .sentence {where} of the block.$"):
        scored_block(lattices, labels, np.concatenate(emissions), singles[0].transition)


@settings(max_examples=100, deadline=None)
@given(scored_sentences())
def test_step_schedules_match_per_position_cut(singles):
    block = as_block(singles)
    # decoding builds no backward schedule
    viterbi(block)
    assert "backward_steps" not in vars(block.layout)
    for got, want in zip((block.layout.forward_steps, block.layout.backward_steps), reference_steps(block.layout)):
        assert len(got) == len(want)
        for got_step, want_step in zip(got, want):
            assert len(got_step) == len(want_step) == 4
            for a, b in zip(got_step, want_step):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    # Viterbi's padded view: per step, the spans of each written row in the
    # same order, then pads, which read the pad slot; slots number the rows
    lay, pad = block.layout, block.layout.padded_steps
    forward_steps = reference_steps(lay)[0]
    G, B = len(pad.offset), len(lay.first_row)
    assert np.array_equal(pad.slot[lay.first_row], G + np.arange(B))
    assert len(pad.steps) == len(forward_steps)
    for (g, h, a, b, source), (idx, _, dst, starts) in zip(pad.steps, forward_steps):
        assert np.array_equal(pad.slot[dst], np.arange(g, h))
        spans, real = pad.span[a:b].reshape(source.shape), source != G + B
        # each row's spans come first, and the widest row has no pads
        width = real.sum(axis=1)
        assert np.array_equal(real, np.arange(real.shape[1]) < width[:, None]) and width.max() == real.shape[1]
        for row, row_real, group in zip(spans, real, np.split(idx, starts[1:])):
            assert np.array_equal(row[row_real], group)
        assert np.array_equal(source[real], pad.slot[lay.start_row[spans[real]]])

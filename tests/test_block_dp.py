"""The block DP core against per-sentence enumeration, over random blocks.

A block concatenates scored sentences of mixed lengths under one mode;
every per-sentence quantity read off the block must equal brute force, and
equal what the same sentence gives as a block of one, bit for bit. Blocks of
sentences too long to enumerate are decoded against a scalar Viterbi.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancrf.corpus import LabelSet
from spancrf.inference import (
    IOB_SCHEME,
    SEGMENT_SCHEME,
    InvariantViolation,
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


@settings(max_examples=50, deadline=None)
@given(scored_sentences(), st.integers(2, 5), st.data())
def test_gapped_lattice_inside_a_block_raises(singles, n, data):
    gap = data.draw(st.integers(1, n), label="gap")
    where = data.draw(st.integers(0, len(singles)), label="where")
    labels = singles[0].labels
    spans = frozenset((u, v) for u in range(1, n + 1) for v in range(u, min(n, u + 1) + 1) if v != gap)
    gapped = scored_block([SpanLattice(n, spans)], labels, np.zeros((len(spans), len(labels))), singles[0].transition)
    block = as_block(singles[:where] + [gapped] + singles[where:])
    for dp in (forward, marginals, viterbi):
        with pytest.raises(InvariantViolation, match=f"position {gap} .sentence {where} "):
            dp(block)


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
            assert len(got_step) == len(want_step) == 5
            for a, b in zip(got_step, want_step):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    # Viterbi's padded view: per step, the spans of each written row in the
    # same order, then pads, which read the pad slot; slots number the rows
    lay, pad = block.layout, block.layout.padded_steps
    forward_steps = reference_steps(lay)[0]
    G, B = len(pad.offset), len(lay.first_row)
    assert np.array_equal(pad.slot[lay.first_row], G + np.arange(B))
    assert len(pad.steps) == len(forward_steps)
    for (g, h, a, b, source), (idx, _, dst, starts, _) in zip(pad.steps, forward_steps):
        assert np.array_equal(pad.slot[dst], np.arange(g, h))
        spans, real = pad.span[a:b].reshape(source.shape), source != G + B
        # each row's spans come first, and the widest row has no pads
        width = real.sum(axis=1)
        assert np.array_equal(real, np.arange(real.shape[1]) < width[:, None]) and width.max() == real.shape[1]
        for row, row_real, group in zip(spans, real, np.split(idx, starts[1:])):
            assert np.array_equal(row[row_real], group)
        assert np.array_equal(source[real], pad.slot[lay.start_row[spans[real]]])

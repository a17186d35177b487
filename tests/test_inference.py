"""Lattice DP: partition function, marginals, and Viterbi against oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancrf.corpus import LabelSet
from spancrf.inference import (
    IOB_SCHEME,
    SEGMENT_SCHEME,
    InvariantViolation,
    Segmentation,
    _RowStep,
    allowed_mask,
    backward,
    forward,
    iob_labels,
    label_scheme,
    log_partition,
    mode_labels,
    pair_mask,
    posteriors,
    segment_labels,
    viterbi,
)
from spancrf.lattice import MODE_KINDS, Mode, SpanLattice, build_lattice

from oracles import (
    block_lattices,
    brute_best_score,
    brute_log_partition,
    brute_marginals,
    chain_forward_logz,
    dense_mask,
    draw_factors,
    enumerate_labelings,
    marginals,
    path_score,
    random_sentence,
    scored_block,
)


def scored_from(lattice, labels, scheme, rng=None, fill=0.0):
    if rng is None:
        (emission,), transition = draw_factors([lattice], labels, scheme, lambda shape: np.full(shape, fill))
    else:
        (emission,), transition = draw_factors([lattice], labels, scheme, lambda shape: rng.normal(scale=1.5, size=shape))
    return scored_block([lattice], labels, emission, transition)


def singleton_lattice(n):
    return SpanLattice(n, frozenset((i, i) for i in range(1, n + 1)))


def random_scored(rng):
    sent = random_sentence(rng)
    kind = MODE_KINDS[int(rng.integers(len(MODE_KINDS)))]
    mode = Mode(kind, max_len=int(rng.integers(1, 5)))
    label_set = LabelSet(["PER"] if rng.random() < 0.5 else ["PER", "LOC"])
    labels = mode_labels(label_set, mode)
    lattice = build_lattice(sent, mode)
    return scored_from(lattice, labels, label_scheme(mode), rng=rng)


def test_label_schemes():
    assert label_scheme(Mode("linear")) == IOB_SCHEME
    for kind in ("semi", "dgm", "dgm-s"):
        assert label_scheme(Mode(kind)) == SEGMENT_SCHEME
    ls = LabelSet(["PER", "LOC"])
    assert segment_labels(ls) == ("O", "PER", "LOC")
    assert iob_labels(ls) == ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
    assert mode_labels(ls, Mode("linear")) == iob_labels(ls)
    assert mode_labels(ls, Mode("semi")) == segment_labels(ls)


def test_segment_mask_rules(womack):
    labels = ("O", "PER", "MISC")
    lattice = build_lattice(womack, Mode("dgm", 8))
    mask = allowed_mask(np.array(sorted(lattice.allowed)), len(labels))
    assert mask.shape == (len(lattice), len(labels))
    for s, (u, v) in enumerate(sorted(lattice.allowed)):
        # O rides only on single words, entity types on every span
        assert mask[s, 0] == (u == v)
        assert mask[s, 1:].all()


def test_iob_mask_blocks_dangling_inside():
    labels = ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
    K = len(labels)
    mask = allowed_mask(np.array(sorted(singleton_lattice(3).allowed)), K)
    pair = pair_mask(labels, IOB_SCHEME)
    # single tokens take every tag; the first token follows only the begin
    # sentinel, and the begin row of the pair rule keeps inside tags off it
    assert mask.all()
    assert not pair[K, labels.index("I-PER")]
    assert pair[K, labels.index("B-PER")]
    assert pair[labels.index("B-PER"), labels.index("I-PER")]
    assert pair[labels.index("I-PER"), labels.index("I-PER")]
    assert not pair[labels.index("O"), labels.index("I-PER")]
    assert not pair[labels.index("B-LOC"), labels.index("I-PER")]
    # everything may follow anything when no inside tag is involved
    assert pair[:, labels.index("B-LOC")].all()


def test_allowed_mask_validation():
    with pytest.raises(ValueError, match="scheme"):
        pair_mask(("O", "A"), "bio")
    with pytest.raises(ValueError, match="label id 0"):
        pair_mask(("A", "O"), SEGMENT_SCHEME)


def test_scored_lattice_validation():
    lat = singleton_lattice(2)
    labels = ("O", "A")
    with pytest.raises(ValueError, match="emission shape"):
        scored_block([lat], labels, np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="transition shape"):
        scored_block([lat], labels, np.zeros((2, 2)), np.zeros((2, 2)))
    for bad_value in (np.nan, np.inf):
        bad = np.zeros((2, 2))
        bad[0, 0] = bad_value
        with pytest.raises(ValueError, match="emission scores must be finite"):
            scored_block([lat], labels, bad, np.zeros((3, 2)))
        bad = np.zeros((3, 2))
        bad[0, 0] = bad_value
        with pytest.raises(ValueError, match="transition scores must be finite"):
            scored_block([lat], labels, np.zeros((2, 2)), bad)

    scored = scored_block([lat], labels, np.zeros((2, 2)), np.zeros((3, 2)))
    assert scored.layout.rows(0, 2, 2).tolist() == [1]
    assert scored.layout.find(0, [2, 1, 2, 2, 0], [2, 2, 3, 1, 1]).tolist() == [1, -1, -1, -1, -1]
    for missing in ((1, 2), (2, 3), (2, 1), (0, 1)):
        with pytest.raises(KeyError):
            scored.layout.rows(0, *missing)


def test_segmentation_validation():
    seg = Segmentation((((1, 2), "PER"), ((3, 3), "O")))
    assert seg.n == 3
    assert seg.labels() == ("PER", "O")
    assert len(seg) == 2
    assert list(seg) == [((1, 2), "PER"), ((3, 3), "O")]
    with pytest.raises(ValueError):
        Segmentation(())
    with pytest.raises(ValueError, match="partition"):
        Segmentation((((1, 1), "O"), ((3, 3), "O")))
    with pytest.raises(ValueError, match="partition"):
        Segmentation((((2, 3), "O"),))
    with pytest.raises(ValueError, match="label"):
        Segmentation((((1, 1), ""),))


def test_log_partition_two_labelings():
    scored = scored_from(singleton_lattice(1), ("O", "PER"), SEGMENT_SCHEME)
    logz = log_partition(scored)
    assert logz.shape == (1,)
    assert logz[0] == pytest.approx(math.log(2), abs=1e-12)


def test_log_partition_two_squared_paths():
    scored = scored_from(singleton_lattice(2), ("O", "A"), IOB_SCHEME)
    assert log_partition(scored)[0] == pytest.approx(math.log(4), abs=1e-12)
    # a block of a 1-token and a 2-token sentence: log 2 and log 4, one per sentence
    block = scored_block([singleton_lattice(1), singleton_lattice(2)], ("O", "A"), np.zeros((3, 2)), np.zeros((3, 2)))
    np.testing.assert_allclose(log_partition(block), [math.log(2), math.log(4)], rtol=0, atol=1e-12)


def test_uniform_marginals_are_half():
    scored = scored_from(singleton_lattice(1), ("O", "PER"), SEGMENT_SCHEME)
    m = marginals(scored)
    assert m[0, 2, 0] == pytest.approx(0.5)
    assert m[0, 2, 1] == pytest.approx(0.5)
    assert m[0, :2].sum() == 0.0


def test_viterbi_prefers_scored_label():
    lat = singleton_lattice(1)
    labels = ("O", "PER")
    [(seg, best)] = viterbi(scored_block([lat], labels, np.array([[0.0, 1.0]]), np.zeros((3, 2))))
    assert seg.segments == (((1, 1), "PER"),)
    assert best == 1.0


def test_viterbi_tie_rule_all_singletons(womack):
    labels = ("O", "PER", "MISC")
    scored = scored_from(build_lattice(womack, Mode("dgm", 8)), labels, SEGMENT_SCHEME)
    [(seg, best)] = viterbi(scored)
    assert best == 0.0
    assert seg.segments == tuple((((i, i), "O")) for i in range(1, 10))


def test_viterbi_tie_prefers_shorter_last_segment():
    # both factors of the length-2 sentence score 1.0 overall: the span
    # (1,2) directly, the singleton path via 0.5 + 0.5
    lat = SpanLattice(2, frozenset({(1, 1), (2, 2), (1, 2)}))
    labels = ("O", "A")
    emission = np.full((3, 2), -np.inf)
    idx = {span: i for i, span in enumerate(sorted(lat.allowed))}
    emission[idx[(1, 1)], 1] = 0.5
    emission[idx[(2, 2)], 1] = 0.5
    emission[idx[(1, 2)], 1] = 1.0
    [(seg, best)] = viterbi(scored_block([lat], labels, emission, np.zeros((3, 2))))
    assert best == pytest.approx(1.0)
    assert seg.segments == (((1, 1), "A"), ((2, 2), "A"))


def test_dp_matches_enumeration_oracles():
    rng = np.random.default_rng(20)
    for _ in range(60):
        scored = random_scored(rng)
        labelings = enumerate_labelings(scored)
        assert labelings, "every lattice admits the all-singleton path"
        assert log_partition(scored)[0] == pytest.approx(brute_log_partition(scored), abs=1e-10)
        np.testing.assert_allclose(marginals(scored), brute_marginals(scored), atol=1e-10)
        [(seg, best)] = viterbi(scored)
        assert best == pytest.approx(brute_best_score(scored), abs=1e-10)
        # the returned segmentation really has the returned score
        u, v = np.array([span for span, _ in seg]).T
        lab = list(zip(scored.layout.rows(0, u, v).tolist(), map(scored.labels.index, seg.labels())))
        assert path_score(scored, lab) == pytest.approx(best, abs=1e-10)


def test_marginals_normalize_at_every_position():
    rng = np.random.default_rng(21)
    for _ in range(25):
        scored = random_scored(rng)
        m = marginals(scored)
        lattice = block_lattices(scored)[0]
        for p in range(1, lattice.n + 1):
            covering = [s for s, (u, v) in enumerate(sorted(lattice.allowed)) if u <= p <= v]
            assert sum(m[s].sum() for s in covering) == pytest.approx(1.0, abs=1e-9)
        # forbidden factors carry no mass
        scheme = IOB_SCHEME if any(y.startswith("B-") for y in scored.labels) else SEGMENT_SCHEME
        assert (m[~dense_mask(lattice, scored.labels, scheme)] == 0).all()


def test_linear_mode_is_a_textbook_chain_crf():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        labels = ("O", "B-A", "I-A", "B-B", "I-B")
        K = len(labels)
        lat = singleton_lattice(n)
        mask = dense_mask(lat, labels, IOB_SCHEME)
        emit = rng.normal(size=(n, K))
        trans = rng.normal(size=(K + 1, K))
        emission = np.where(mask.any(axis=1), emit, -np.inf)
        [logz] = log_partition(scored_block([lat], labels, emission, np.where(pair_mask(labels, IOB_SCHEME), trans, -np.inf)))

        chain_trans = np.where(mask[1] if n > 1 else True, trans, -np.inf)[:K]
        begin = np.where(mask[0][K], trans[K] + 0.0, -np.inf)
        want = chain_forward_logz(emit, chain_trans, begin)
        assert logz == pytest.approx(want, abs=1e-10)


def test_shrinking_the_lattice_never_raises_logz():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sent = random_sentence(rng, n=int(rng.integers(2, 7)))
        lattice = build_lattice(sent, Mode("semi", 4))
        labels = ("O", "A")
        scored = scored_from(lattice, labels, SEGMENT_SCHEME, rng=rng)
        spans = sorted(lattice.allowed)
        multi = [span for span in spans if span[1] > span[0]]
        if not multi:
            continue
        drop = multi[int(rng.integers(len(multi)))]
        keep = [s for s, span in enumerate(spans) if span != drop]
        smaller = scored_block(
            [SpanLattice(lattice.n, frozenset(span for span in spans if span != drop))],
            labels,
            scored.emission[keep],
            scored.transition,
        )
        assert log_partition(smaller)[0] <= log_partition(scored)[0] + 1e-12


def test_logz_bounds_viterbi_and_dominance_closes_the_gap():
    rng = np.random.default_rng(24)
    for _ in range(15):
        scored = random_scored(rng)
        [(_, best)] = viterbi(scored)
        [logz] = log_partition(scored)
        assert logz >= best - 1e-12
    # boost one full path far above the rest: the bound becomes tight
    lat = singleton_lattice(4)
    labels = ("O", "A")
    emission = np.where(allowed_mask(np.array(sorted(lat.allowed)), len(labels)), 0.0, -np.inf)
    emission[:, 1] = 60.0
    scored = scored_block([lat], labels, emission, np.zeros((3, 2)))
    [(seg, best)] = viterbi(scored)
    assert best == pytest.approx(240.0)
    assert seg.labels() == ("A", "A", "A", "A")
    assert log_partition(scored)[0] == pytest.approx(best, abs=1e-9)


def test_gapped_lattice_raises_invariant_violation():
    lat = SpanLattice(3, frozenset({(1, 1), (3, 3)}))
    labels = ("O", "A")
    scored = scored_block([lat], labels, np.zeros((2, 2)), np.zeros((3, 2)))
    with pytest.raises(InvariantViolation, match="position 2"):
        forward(scored)
    with pytest.raises(InvariantViolation):
        log_partition(scored)
    with pytest.raises(InvariantViolation):
        viterbi(scored)


def test_extreme_scores_stay_finite():
    rng = np.random.default_rng(25)
    lat = singleton_lattice(6)
    labels = ("O", "A", "B")
    with np.errstate(over="raise"):
        for fill in (-1e4, 1e4):
            # every labeling scores fill per segment; transitions add 0
            (emission,), _ = draw_factors([lat], labels, SEGMENT_SCHEME, lambda shape: np.full(shape, fill))
            scored = scored_block([lat], labels, emission, np.zeros((4, 3)))
            [logz] = log_partition(scored)
            assert math.isfinite(logz)
            assert logz == pytest.approx(6 * fill + math.log(3 ** 6), rel=1e-12)
        (emission,), transition = draw_factors([lat], labels, SEGMENT_SCHEME, lambda shape: rng.uniform(-1e4, 1e4, size=shape))
        scored = scored_block([lat], labels, emission, transition)
        m = marginals(scored)
        assert np.isfinite(log_partition(scored)).all()
        # exponent arithmetic at 1e4 scale leaves ~1e-12 relative slack
        assert ((m >= 0) & (m <= 1 + 1e-9)).all()


@st.composite
def row_step_cases(draw):
    """x (rows, K) and T (K, K) as a row step sees them: the transition's
    first K rows (forward) or their transpose (backward), -inf where the IOB
    or segment pair rule forbids and at random cells, so whole columns may be
    -inf; x has -inf cells and all -inf rows. Scores are uniform in
    [-scale, scale] for a scale up to 1e4."""
    scheme = draw(st.sampled_from((SEGMENT_SCHEME, IOB_SCHEME)))
    types = LabelSet(["A", "B", "C"][: draw(st.integers(1, 3))])
    labels = iob_labels(types) if scheme == IOB_SCHEME else segment_labels(types)
    K = len(labels)
    scale = draw(st.sampled_from((1.0, 50.0, 1e4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = np.where(pair_mask(labels, scheme), rng.uniform(-scale, scale, (K + 1, K)), -np.inf)[:K]
    T[rng.random((K, K)) < draw(st.sampled_from((0.0, 0.2, 0.6)))] = -np.inf
    if draw(st.booleans()):
        T = T.T
    rows = draw(st.integers(1, 12))
    x = rng.uniform(-scale, scale, (rows, K))
    x[rng.random((rows, K)) < draw(st.sampled_from((0.0, 0.3, 0.8)))] = -np.inf
    x[rng.random(rows) < 0.2] = -np.inf
    return x, T, scale


@settings(max_examples=300, deadline=None)
@given(row_step_cases())
def test_row_step_matches_logaddexp(case):
    x, T, scale = case
    want = np.logaddexp.reduce(x[:, :, None] + T, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _RowStep(T)(x)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    # both forms add scores of size up to scale, so rounding is relative to scale
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12 * scale)


def test_underflowing_row_sums_match_enumeration():
    # O and X are kept apart by -1e4 transitions; X costs 2000 at odd tokens
    # and pays 5000 at even ones, so at every row the row max and the column
    # max of the transition sit on different labels and the shifted sums
    # underflow to 0, yet the X paths carry all the mass
    lattice = SpanLattice(4, frozenset({(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (3, 4)}))
    labels = ("O", "X")
    score = {(1, 1): [0, -2000], (2, 2): [0, 5000], (3, 3): [0, -2000], (4, 4): [0, 5000]}
    score.update({(1, 2): [-np.inf, 2999.5], (3, 4): [-np.inf, 2999.5]})
    emission = np.array([score[span] for span in sorted(lattice.allowed)], dtype=float)
    transition = np.array([[0.0, -1e4], [-1e4, 0.0], [0.0, 0.0]])
    scored = scored_block([lattice], labels, emission, transition)
    K = len(labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, G = forward(scored)
        beta, H = backward(scored)
        logz, label, pair = posteriors(scored, (alpha, G), (beta, H))
        [z] = log_partition(scored)
        m = marginals(scored)
    rows = alpha[1:4, :K]
    shifted = np.exp(rows - rows.max(axis=1, keepdims=True)) @ np.exp(transition[:K] - transition[:K].max(axis=0))
    assert (shifted == 0).any()
    want_z, want_m = brute_log_partition(scored), brute_marginals(scored)
    assert want_z == pytest.approx(6000 + 2 * math.log1p(math.exp(-0.5)), rel=1e-12)
    for got in (z, logz[0], beta[0, K]):
        assert got == pytest.approx(want_z, rel=1e-12)
    np.testing.assert_allclose(m, want_m, rtol=0, atol=1e-9)
    np.testing.assert_allclose(label, want_m.sum(axis=1), rtol=0, atol=1e-9)
    np.testing.assert_allclose(pair, want_m.sum(axis=0), rtol=0, atol=1e-9)
    # spans in sorted order: (1, 1), (1, 2), (2, 2), (3, 3), (3, 4), (4, 4)
    one_segment = math.exp(-0.5) / (1 + math.exp(-0.5))
    np.testing.assert_allclose(label[:, 1], [1 - one_segment, one_segment, 1 - one_segment] * 2, rtol=1e-12)


def test_forward_backward_agree_on_logz():
    rng = np.random.default_rng(26)
    for _ in range(20):
        scored = random_scored(rng)
        K, n = len(scored.labels), block_lattices(scored)[0].n
        alpha, G = forward(scored)
        beta, H = backward(scored)
        assert np.logaddexp.reduce(alpha[n, :K]) == pytest.approx(beta[0, K], abs=1e-10)
        # the row messages fold the transition into alpha and beta
        np.testing.assert_allclose(G, np.logaddexp.reduce(alpha[:, :, None] + scored.transition, axis=1), atol=1e-12)
        inner = slice(1, n)
        np.testing.assert_allclose(beta[inner, :K], np.logaddexp.reduce(scored.transition[:K] + H[inner, None, :], axis=2), atol=1e-12)

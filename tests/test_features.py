"""Feature templates, the string index, and label conjunction.

Feature strings are read back from the emission rows that training
compiles, so the tests see exactly what the model is trained and decoded on.
"""

from __future__ import annotations

import numpy as np
import pytest

from spancrf import LabelSet, Sentence
from spancrf.features import BOS, EOS, FeatureIndex, emission_features, transition_feature, word_shape
from spancrf.inference import mode_labels
from spancrf.lattice import Mode
from spancrf.training import _compile


@pytest.mark.parametrize(
    ("surface", "shape"),
    [
        ("Ami", "Xxx"),
        ("Minister", "Xxxx"),
        ("-", "-"),
        ("gave", "xxxx"),
        ("3rd", "dxx"),
        ("U.S.A.", "X.X."),
        ("iPhone", "xXxx"),
    ],
)
def test_word_shape(surface, shape):
    assert word_shape(surface) == shape


def test_word_shape_rejects_empty():
    with pytest.raises(ValueError):
        word_shape("")


def test_index_allocates_dense_ids_in_order():
    idx = FeatureIndex()
    assert idx.intern("a") == 0
    assert idx.intern("b") == 1
    assert idx.intern("a") == 0
    assert idx.strings() == ("a", "b")
    assert "a" in idx and "c" not in idx
    assert len(idx) == 2


def test_frozen_index_drops_unseen():
    idx = FeatureIndex()
    idx.intern("a")
    idx.freeze()
    assert idx.frozen
    assert idx.intern("a") == 0
    assert idx.intern("new") is None
    assert idx.lookup("new") is None
    assert len(idx) == 1


def _compiled(sentence, kind, dep=True, index=None):
    mode = Mode(kind, 8)
    labels = mode_labels(LabelSet.from_corpus([sentence]), mode)
    index = FeatureIndex() if index is None else index
    return _compile([sentence], mode, labels, index, dep, project=True), index


def emission_strings(sentence, span, label, kind="semi", dep=True, index=None):
    """Feature string -> count of the compiled emission row of (span, label)."""
    compiled, index = _compiled(sentence, kind, dep, index)
    block = compiled.blocks[0]
    # the block holds one sentence; its emission rows are the live cells in row-major order
    cell = (sorted(block.scored.lattices[0].allowed).index(span), compiled.labels.index(label))
    assert block.live[cell], "no emission row for a forbidden (span, label) pair"
    row = np.count_nonzero(block.live.ravel()[: np.ravel_multi_index(cell, block.live.shape)])
    lo, hi = block.emit.indptr[row], block.emit.indptr[row + 1]
    names = index.strings()
    return {names[fid]: count for fid, count in zip(block.emit.indices[lo:hi], block.emit.data[lo:hi])}


def transition_string(sentence, y_prev, y, kind="semi"):
    """Feature string of the compiled transition y_prev -> y."""
    compiled, index = _compiled(sentence, kind)
    labels = compiled.labels
    p = len(labels) if y_prev == BOS else labels.index(y_prev)
    return index.strings()[compiled.trans_ids[p, labels.index(y)]]


def test_segment_feature_strings(shlomo):
    got = emission_strings(shlomo, (3, 6), "PER")

    expected_once = {
        "bw:Minister|PER",
        "bp:NNP|PER",
        "bsh:Xxxx|PER",
        "aw:gave|PER",
        "ap:VBD|PER",
        "ash:xxxx|PER",
        "sw:Shlomo|PER",
        "ew:Ami|PER",
        "sp:NNP|PER",
        "ep:NNP|PER",
        "len:4|PER",
        "seg:Shlomo Ben - Ami|PER",
        "pre1:S|PER",
        "pre2:Sh|PER",
        "pre3:Shl|PER",
        "suf1:i|PER",
        "suf2:mi|PER",
        "suf3:Ami|PER",
        "iw:1:Shlomo|PER",
        "iw:2:Ben|PER",
        "iw:3:-|PER",
        "iw:4:Ami|PER",
        "ip:1:NNP|PER",
        "ip:2:NNP|PER",
        "ip:3:HYPH|PER",
        "ip:4:NNP|PER",
        "ish:1:Xxxx|PER",
        "ish:2:Xxx|PER",
        "ish:3:-|PER",
        "ish:4:Xxx|PER",
        "dw:Shlomo+Ami|PER",
        "dwl:Shlomo+Ami+compound|PER",
        "dw:Ben+Ami|PER",
        "dw:-+Ami|PER",
        "dwl:-+Ami+punct|PER",
        "dw:Ami+gave|PER",
        "dwl:Ami+gave+nsubj|PER",
        "dp:NNP+VBD|PER",
        "dpl:NNP+VBD+nsubj|PER",
    }
    for feature in expected_once:
        assert got.get(feature) == 1, feature
    # Shlomo and Ben both attach to Ami with the same POS pair
    assert got["dp:NNP+NNP|PER"] == 2
    assert got["dpl:NNP+NNP+compound|PER"] == 2
    assert got["dp:HYPH+NNP|PER"] == 1
    assert transition_string(shlomo, "O", "PER") == "t:O+PER"


def test_segment_sentinels_at_sentence_edges(womack):
    got = emission_strings(womack, (1, 3), "PER")
    assert f"bw:{BOS}|PER" in got
    assert "aw:won|PER" in got
    got2 = emission_strings(womack, (8, 9), "MISC")
    assert f"aw:{EOS}|MISC" in got2


def test_linear_feature_strings(shlomo):
    got = emission_strings(shlomo, (6, 6), "I-PER", kind="linear")
    for feature in (
        "w:Ami|I-PER",
        "p:NNP|I-PER",
        "pw:-|I-PER",
        "pp:HYPH|I-PER",
        "sh:Xxx|I-PER",
        "psh:-|I-PER",
        "pre1:A|I-PER",
        "pre3:Ami|I-PER",
        "suf3:Ami|I-PER",
        "dw:Ami+gave|I-PER",
        "dpl:NNP+VBD+nsubj|I-PER",
    ):
        assert got.get(feature) == 1, feature
    assert transition_string(shlomo, "I-PER", "I-PER", kind="linear") == "t:I-PER+I-PER"


def test_linear_bos_at_first_token(shlomo):
    got = emission_strings(shlomo, (1, 1), "B-PER", kind="linear")
    assert f"pw:{BOS}|B-PER" in got
    assert f"psh:{BOS}|B-PER" in got


def test_root_head_templates(shlomo):
    # token 7 "gave" attaches to the artificial root
    got = emission_strings(shlomo, (7, 7), "O", kind="linear")
    assert "dw:gave+<ROOT>|O" in got
    assert "dpl:VBD+<ROOT>+root|O" in got


def test_dep_features_can_be_disabled(shlomo):
    got = emission_strings(shlomo, (3, 6), "PER", dep=False)
    assert not any(name.startswith(("dw:", "dwl:", "dp:", "dpl:")) for name in got)
    assert "sw:Shlomo|PER" in got


def test_short_word_affixes(womack):
    # "of" only has prefixes/suffixes up to its own length
    got = emission_strings(womack, (6, 6), "O", kind="linear")
    assert "w:of|O" in got
    assert "pre1:o|O" in got and "pre2:of|O" in got
    assert not any(name.startswith("pre3:") for name in got)


def test_label_conjunction_separates_labels(womack):
    a = emission_strings(womack, (1, 3), "PER")
    b = emission_strings(womack, (1, 3), "MISC")
    assert a and b
    assert set(a).isdisjoint(b)


def test_frozen_index_filters_vectors(womack):
    # an index trained without MISC gives the MISC rows no features
    index = FeatureIndex()
    _compiled(Sentence(womack.tokens, womack.tree, womack.gold[:1]), "semi", index=index)
    size = len(index)
    index.freeze()
    assert emission_strings(womack, (1, 3), "MISC", index=index) == {}
    assert emission_strings(womack, (1, 3), "PER", index=index)
    assert len(index) == size


def test_emission_feature_format():
    assert emission_features(["w:Ami", "p:NNP"], "I-PER") == ["w:Ami|I-PER", "p:NNP|I-PER"]


def test_transition_feature_format():
    assert transition_feature("O", "PER") == "t:O+PER"
    assert transition_feature("<BOS>", "O") == "t:<BOS>+O"

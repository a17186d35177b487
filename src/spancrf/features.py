"""Feature templates for position factors and segment factors.

A template is a string with a template-name prefix, so no two templates
can collide: "w:Ami", "seg:Shlomo Ben - Ami". Templates carry no label.
Every lattice span gets one row of template counts, and the weight of a
template for a label is one cell of the model's weight matrix, so labels
and transitions need no strings (training.py describes that matrix). The
FeatureIndex maps template strings to dense ids; while unfrozen it
allocates on sight, after freeze() unseen strings are dropped.

Position templates: current/previous word, POS, and word shape, plus
prefixes and suffixes of the current word up to length 3. Segment
templates: word/POS/shape before and after the segment, prefixes of the
first word and suffixes of the last, start/end word and POS, segment
length, indexed word/POS/shape per offset, and the whole surface form.
Dependency templates (word+head, word+head+relation, POS+headPOS,
POS+headPOS+relation) apply to the current position, or to every token
inside a segment.
"""

from __future__ import annotations

from .corpus import Sentence

BOS = "<BOS>"
EOS = "<EOS>"
ROOT = "<ROOT>"


class FeatureIndex:
    """String-to-id dictionary with dense ids in insertion order."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._frozen = False

    def intern(self, feature: str) -> int | None:
        """Id of the feature, allocating a new one unless frozen. None if frozen and unseen."""
        fid = self._ids.get(feature)
        if fid is None and not self._frozen:
            fid = len(self._ids)
            self._ids[feature] = fid
        return fid

    def lookup(self, feature: str) -> int | None:
        return self._ids.get(feature)

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def strings(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def __contains__(self, feature: str) -> bool:
        return feature in self._ids

    def __len__(self) -> int:
        return len(self._ids)


def word_shape(surface: str) -> str:
    """Character-class sketch of a word, truncated to 4 characters.

    Uppercase -> X, lowercase -> x, digit -> d, anything else kept as is:
    "Ami" -> "Xxx", "Minister" -> "Xxxx", "-" -> "-".
    """
    if not surface:
        raise ValueError("empty surface form")
    out = []
    for ch in surface[:4]:
        if ch.isupper():
            out.append("X")
        elif ch.islower():
            out.append("x")
        elif ch.isdigit():
            out.append("d")
        else:
            out.append(ch)
    return "".join(out)


def _prefixes(surface: str) -> list[str]:
    return [f"pre{k}:{surface[:k]}" for k in range(1, min(3, len(surface)) + 1)]


def _suffixes(surface: str) -> list[str]:
    return [f"suf{k}:{surface[-k:]}" for k in range(1, min(3, len(surface)) + 1)]


def _dep_templates(sentence: Sentence, i: int) -> list[str]:
    token = sentence.tokens[i - 1]
    head = sentence.tree.heads[i - 1]
    relation = sentence.tree.labels[i - 1]
    if head == 0:
        head_word, head_pos = ROOT, ROOT
    else:
        head_word = sentence.tokens[head - 1].surface
        head_pos = sentence.tokens[head - 1].pos
    return [
        f"dw:{token.surface}+{head_word}",
        f"dwl:{token.surface}+{head_word}+{relation}",
        f"dp:{token.pos}+{head_pos}",
        f"dpl:{token.pos}+{head_pos}+{relation}",
    ]


def _position_templates(sentence: Sentence, i: int, dep_features: bool) -> list[str]:
    token = sentence.tokens[i - 1]
    if i == 1:
        prev_word, prev_pos, prev_shape = BOS, BOS, BOS
    else:
        prev = sentence.tokens[i - 2]
        prev_word, prev_pos, prev_shape = prev.surface, prev.pos, word_shape(prev.surface)
    templates = [
        f"w:{token.surface}",
        f"p:{token.pos}",
        f"pw:{prev_word}",
        f"pp:{prev_pos}",
        f"sh:{word_shape(token.surface)}",
        f"psh:{prev_shape}",
    ]
    templates.extend(_prefixes(token.surface))
    templates.extend(_suffixes(token.surface))
    if dep_features:
        templates.extend(_dep_templates(sentence, i))
    return templates


def _segment_templates(sentence: Sentence, span: tuple[int, int], dep_features: bool) -> list[str]:
    u, v = span
    words = [t.surface for t in sentence.tokens[u - 1 : v]]
    tags = [t.pos for t in sentence.tokens[u - 1 : v]]
    if u == 1:
        before_word, before_pos, before_shape = BOS, BOS, BOS
    else:
        before = sentence.tokens[u - 2]
        before_word, before_pos, before_shape = before.surface, before.pos, word_shape(before.surface)
    if v == sentence.n:
        after_word, after_pos, after_shape = EOS, EOS, EOS
    else:
        after = sentence.tokens[v]
        after_word, after_pos, after_shape = after.surface, after.pos, word_shape(after.surface)
    templates = [
        f"bw:{before_word}",
        f"bp:{before_pos}",
        f"bsh:{before_shape}",
        f"aw:{after_word}",
        f"ap:{after_pos}",
        f"ash:{after_shape}",
        f"sw:{words[0]}",
        f"ew:{words[-1]}",
        f"sp:{tags[0]}",
        f"ep:{tags[-1]}",
        f"len:{v - u + 1}",
        f"seg:{' '.join(words)}",
    ]
    templates.extend(_prefixes(words[0]))
    templates.extend(_suffixes(words[-1]))
    for offset, (word, pos) in enumerate(zip(words, tags), start=1):
        templates.append(f"iw:{offset}:{word}")
        templates.append(f"ip:{offset}:{pos}")
        templates.append(f"ish:{offset}:{word_shape(word)}")
    if dep_features:
        for i in range(u, v + 1):
            templates.extend(_dep_templates(sentence, i))
    return templates

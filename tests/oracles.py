"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way: exhaustive enumeration of
segmentations, each mode's valid spans by definition (a direct
increasing-chain search for dgm), a textbook
first-order chain forward pass, small corpus builders over random trees
and random factors, the feature templates built as strings one span at a
time, a string-lookup factor scorer for trained models, and the dense
(S, K+1, K) labeling mask written out from the rules. Only the scorer and
the factor builder touch package internals, and only for what they score
(lattice, label-pair mask); they share nothing with the compiled span rows.
Two more read a block's layout: the dense (S, K+1, K) factor marginals,
from the package's alpha and beta, which the gradient's sums are checked
against, and the layout's step schedules cut one position at a time.
position_viterbi is Viterbi in scalars, one sentence and position at a
time, for sentences too long to enumerate; exact_forward_backward is the
forward and backward of one sentence in Python integers, which sum the
weights of scores drawn as logs of integers exactly. project_gold is a sentence's
gold segmentation, one token at a time, from the projection rule.
scored_block and block_lattices convert between a tuple of per-sentence
SpanLattice sets and a block's span arrays, in sorted order, and
implied_rows reads a compiled block's two operators back as the scipy
matrix members @ units.
The optimizer's oracle is scipy's L-BFGS-B run on the package's Objective.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import scipy.optimize
from scipy import sparse

from spancrf import DependencyTree, EntitySpan, Sentence, SpanLattice, Token, build_lattice
from spancrf import iob_to_spans, random_tree
from spancrf.features import BOS, EOS, ROOT, word_shape
from spancrf.inference import IOB_SCHEME, Layout, ScoredBlock, Segmentation, backward, forward, label_scheme, log_partition, pair_mask
from spancrf.training import Objective


def scored_block(lattices, labels, emission, transition) -> ScoredBlock:
    """A ScoredBlock over the given lattices, hand-made or built: their
    lengths and their spans as (sentence, u, v) arrays in sorted order."""
    spans = [(b, u, v) for b, lattice in enumerate(lattices) for u, v in sorted(lattice.allowed)]
    sentence, u, v = np.array(spans, dtype=np.int64).reshape(-1, 3).T
    return ScoredBlock(Layout(np.array([lattice.n for lattice in lattices]), (sentence, u, v)), labels, emission, transition)


def block_lattices(block) -> list[SpanLattice]:
    """The SpanLattice of each sentence of a block, scored or compiled, read off its layout."""
    lay = block.layout
    spans = [set() for _ in lay.first_row]
    for b, (u, v) in zip(lay.sentence.tolist(), lay.uv.tolist()):
        spans[b].add((u, v))
    return [SpanLattice(int(n), frozenset(s)) for n, s in zip(lay.lengths.tolist(), spans)]


def implied_rows(block, width: int) -> sparse.csr_matrix:
    """A compiled block's span-by-template count matrix members @ units, as
    a (spans, width) scipy matrix rebuilt from the operators' CSR index
    pairs, every entry 1, indices sorted; width is at least the templates."""
    (unit_ptr, ids), (indptr, members) = block.units, block.members
    units = sparse.csr_matrix((np.ones(len(ids)), ids, unit_ptr), shape=(len(unit_ptr) - 1, width))
    rows = (sparse.csr_matrix((np.ones(len(members)), members, indptr), shape=(len(indptr) - 1, units.shape[0])) @ units).tocsr()
    rows.sort_indices()
    return rows


def enumerate_labelings(scored):
    """Every complete segmentation of a one-sentence block as a list of
    (span row, label id) pairs.

    Only factors with finite scores emission[s, y] + transition[p, y] are
    followed; the begin state is previous label K, the transition's last row.
    """
    [lattice] = block_lattices(scored)
    spans = sorted(lattice.allowed)
    K = len(scored.labels)
    by_start: dict[int, list[int]] = {}
    for idx, (u, _v) in enumerate(spans):
        by_start.setdefault(u, []).append(idx)
    out: list[list[tuple[int, int]]] = []

    def rec(pos: int, prev: int, acc: list[tuple[int, int]]) -> None:
        if pos > lattice.n:
            out.append(list(acc))
            return
        for s in by_start.get(pos, ()):
            v = spans[s][1]
            for y in range(K):
                if scored.emission[s, y] + scored.transition[prev, y] > -np.inf:
                    acc.append((s, y))
                    rec(v + 1, y, acc)
                    acc.pop()

    rec(1, K, [])
    return out


def path_score(scored, labeling) -> float:
    total = 0.0
    prev = len(scored.labels)
    for s, y in labeling:
        total += scored.emission[s, y] + scored.transition[prev, y]
        prev = y
    return total


def draw_factors(lattices, labels, scheme, values):
    """Random factors for a block of lattices: one (S, K) emission per
    lattice and one shared (K+1, K) transition, each values(shape) where the
    labeling rule allows the label (the pair) and -inf where it forbids it."""
    emissions = []
    for lattice in lattices:
        live = dense_mask(lattice, labels, scheme).any(axis=1)
        emissions.append(np.where(live, values(live.shape), -np.inf))
    pair = pair_mask(labels, scheme)
    return emissions, np.where(pair, values(pair.shape), -np.inf)


def brute_log_partition(scored) -> float:
    totals = [path_score(scored, lab) for lab in enumerate_labelings(scored)]
    return float(np.logaddexp.reduce(np.array(totals)))


def brute_marginals(scored) -> np.ndarray:
    labelings = enumerate_labelings(scored)
    totals = np.array([path_score(scored, lab) for lab in labelings])
    logz = np.logaddexp.reduce(totals)
    K = len(scored.labels)
    m = np.zeros((len(scored.emission), K + 1, K))
    for lab, t in zip(labelings, totals):
        weight = math.exp(t - logz)
        prev = K
        for s, y in lab:
            m[s, prev, y] += weight
            prev = y
    return m


def marginals(scored) -> np.ndarray:
    """Posterior probability of every factor of a block, shape (S, K+1, K).

    m[s, p, y] = P(span s has label y and is preceded by label p), p = K
    the begin sentinel, from the package's forward and backward passes.
    Factors the labeling rule forbids get 0: alpha is -inf where the begin
    rule forbids p. For every position, the marginals of factors covering it
    sum to 1.
    """
    lay, K = scored.layout, len(scored.labels)
    alpha, beta = forward(scored)[0], backward(scored)[0]
    m = alpha[lay.start_row, :, None] + (scored.emission[:, None, :] + scored.transition)
    m += beta[lay.end_row, None, :K]
    m -= log_partition(scored)[lay.sentence, None, None]
    return np.exp(m, out=m)


def reference_steps(layout):
    """The layout's forward and backward step schedules, cut one position
    at a time with np.split: per step (span ids, rows they read, distinct
    rows they write, reduceat offsets)."""

    def cut(order, position, source, target):
        out = []
        for idx in np.split(order, np.flatnonzero(np.diff(position[order])) + 1):
            rows = target[idx]
            new_row = np.concatenate(([True], rows[1:] != rows[:-1]))
            starts = np.flatnonzero(new_row)
            out.append((idx, source[idx], rows[starts], starts))
        return out

    u, v = layout.uv.T
    start, end = layout.start_row, layout.end_row
    # forward: by end position, then written row, then shorter span first;
    # backward, last start position first: by written row, then shorter span first
    forward_steps = cut(np.lexsort((-u, end, v)), v, start, end)
    backward_steps = cut(np.lexsort((v, start, u)), u, end, start)[::-1]
    return forward_steps, backward_steps


def dense_mask(lattice, labels, scheme) -> np.ndarray:
    """(S, K+1, K) bool, cell for cell from the labeling rules: may span s of
    the lattice carry label y after previous label p (p = K is the begin
    sentinel). Begin precedes exactly the spans that start at position 1;
    in the IOB scheme I-X follows only B-X or I-X, otherwise O sits only on
    single-token spans."""
    K = len(labels)
    spans = sorted(lattice.allowed)
    mask = np.zeros((len(spans), K + 1, K), dtype=bool)
    for s, (u, v) in enumerate(spans):
        for p in range(K + 1):
            if (p == K) != (u == 1):
                continue
            for y, label in enumerate(labels):
                if scheme == IOB_SCHEME:
                    mask[s, p, y] = not label.startswith("I-") or (p < K and labels[p] in (f"B-{label[2:]}", f"I-{label[2:]}"))
                else:
                    mask[s, p, y] = label != "O" or u == v
    return mask


def project_gold(sentence: Sentence, lattice, scheme: str) -> tuple[list[tuple[tuple[int, int], str]], int]:
    """A sentence's gold as ((u, v), label) segments covering 1..n, token by
    token, and the number of entities split. In the IOB scheme every token is
    a segment tagged B-X, I-X or O. Otherwise an entity whose span is in the
    lattice is one segment of its type, an entity outside it one segment of
    its type per token (split), and every other token an O segment."""
    entity = {i: span for span in sentence.gold for i in range(span.start, span.end + 1)}
    segments, splits, i = [], 0, 1
    while i <= sentence.n:
        span = entity.get(i)
        if span is None:
            segments.append(((i, i), "O"))
        elif scheme == IOB_SCHEME:
            segments.append(((i, i), ("B-" if i == span.start else "I-") + span.etype))
        elif (span.start, span.end) in lattice.allowed:
            segments.append(((i, span.end), span.etype))
            i = span.end
        else:
            segments.append(((i, i), span.etype))
            splits += i == span.start
        i += 1
    return segments, splits


def brute_best_score(scored) -> float:
    return max(path_score(scored, lab) for lab in enumerate_labelings(scored))


def brute_viterbi(scored):
    """Best labeling by enumeration, ties broken by the rule viterbi documents.

    Among the top-scoring labelings, read from the end of the sentence: the
    shorter last segment, then the smaller last label; then at each earlier
    boundary the smaller previous label, then the shorter segment carrying it.
    """
    labelings = enumerate_labelings(scored)
    top = max(path_score(scored, lab) for lab in labelings)
    spans = sorted(block_lattices(scored)[0].allowed)

    def key(lab):
        lengths = [spans[s][1] - spans[s][0] for s, _ in lab]
        out = [lengths[-1], lab[-1][1]]
        for k in range(len(lab) - 2, -1, -1):
            out += [lab[k][1], lengths[k]]
        return out

    return min((lab for lab in labelings if path_score(scored, lab) == top), key=key)


def position_viterbi(scored):
    """Viterbi of each sentence of a block, one position at a time, in
    Python floats: per sentence, its best (Segmentation, score).

    Sums are added in the block DP's order, (vit[p] + transition[p, y]) +
    emission[s, y], and ties follow the rule viterbi documents: into each
    start position the first best previous label, then among the spans
    ending at a position the first best in shorter-first order; at the end
    the shorter last segment, then the smaller label.
    """
    K, inf = len(scored.labels), float("inf")
    emission, transition = scored.emission.tolist(), scored.transition.tolist()
    out, base = [], 0
    for lattice in block_lattices(scored):
        spans, n = sorted(lattice.allowed), lattice.n
        ending = {}  # end position -> [(emission row, start u)], shorter span first
        for row, (u, v) in sorted(enumerate(spans, base), key=lambda item: (item[1][1], -item[1][0])):
            ending.setdefault(v, []).append((row, u))
        base += len(spans)
        vit = [[-inf] * K for _ in range(n + 1)]
        back = [[None] * K for _ in range(n + 1)]  # (start u, previous label) of the best segment

        def enter(j, y):
            if j == 0:
                return transition[K][y], K
            best = None
            for p in range(K):
                score = vit[j][p] + transition[p][y]
                if best is None or score > best[0]:
                    best = (score, p)
            return best

        for v in range(1, n + 1):
            for y in range(K):
                best = None
                for row, u in ending[v]:
                    into, p = enter(u - 1, y)
                    score = into + emission[row][y]
                    if best is None or score > best[0]:
                        best = (score, u, p)
                vit[v][y], back[v][y] = best[0], best[1:]
        top = max(vit[n])
        y = min((y for y in range(K) if vit[n][y] == top), key=lambda y: (n - back[n][y][0], y))
        segments, v = [], n
        while v:
            u, p = back[v][y]
            segments.append(((u, v), scored.labels[y]))
            v, y = u - 1, p
        out.append((Segmentation(tuple(reversed(segments))), top))
    return out


def exact_forward_backward(n, spans, E, T):
    """The semi-Markov forward and backward of one sentence in Python ints,
    one position at a time, straight from the recursion.

    spans are the sentence's (u, v) in sorted order, E[s][y] >= 0 the
    integer weight of span s with label y and T[p][y] that of label y after
    label p, p = K the begin sentinel; a segmentation weighs the product of
    its factors' weights, and a weight 0 is a score of -inf. Returns
    (Z, alpha, enter, beta, follow, label, pair), for positions j = 0..n:
      alpha[j][p]   summed weight of the segmentations of 1..j ending in
                    label p; the begin sentinel p = K ends only position 0
      enter[j][y]   sum_p alpha[j][p] T[p][y], entering label y after j
      beta[j][p]    summed weight of the segmentations of j+1..n after label
                    p at j, so beta[n][p] = 1 for p < K, and p = K only at 0
      follow[j][y]  the part of those whose first segment has label y,
                    without the transition into it
      label[s][y]   summed weight of the segmentations in which span s is a
                    segment with label y
      pair[p][y]    summed weight of the segmentations, each times its
                    number of (p, y) transitions
    Z = sum_y alpha[n][y] = beta[0][K]; label / Z and pair / Z are the sums
    of the factor marginals that the gradient needs.
    """
    K = len(T[0])
    ending, starting = [[] for _ in range(n + 2)], [[] for _ in range(n + 2)]
    for s, (u, v) in enumerate(spans):
        ending[v].append(s)
        starting[u].append(s)
    alpha = [[0] * (K + 1) for _ in range(n + 1)]
    alpha[0][K] = 1
    enter = []
    for j in range(n + 1):
        for s in ending[j]:
            u = spans[s][0]
            for y in range(K):
                alpha[j][y] += enter[u - 1][y] * E[s][y]
        enter.append([sum(alpha[j][p] * T[p][y] for p in range(K + 1)) for y in range(K)])
    beta = [[0] * (K + 1) for _ in range(n + 1)]
    follow = [[0] * K for _ in range(n + 1)]
    beta[n][:K] = [1] * K
    for j in range(n - 1, -1, -1):
        for s in starting[j + 1]:
            v = spans[s][1]
            for y in range(K):
                follow[j][y] += E[s][y] * beta[v][y]
        for p in [K] if j == 0 else range(K):
            beta[j][p] = sum(T[p][y] * follow[j][y] for y in range(K))
    Z = sum(alpha[n][:K])
    if beta[0][K] != Z:
        raise AssertionError("forward and backward disagree")
    label = [[enter[u - 1][y] * E[s][y] * beta[v][y] for y in range(K)] for s, (u, v) in enumerate(spans)]
    pair = [[T[p][y] * sum(alpha[j][p] * follow[j][y] for j in range(n + 1)) for y in range(K)] for p in range(K + 1)]
    return Z, alpha, enter, beta, follow, label, pair


def chain_spans_reference(n: int, arcs, max_len: int) -> set[tuple[int, int]]:
    """Valid spans by direct definition: singletons, plus (u,v) covered by
    an increasing chain u = u1 < u2 < ... < uk = v of undirected arcs."""
    arcset = {(min(a, b), max(a, b)) for a, b in arcs}
    spans = {(i, i) for i in range(1, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, min(n, u + max_len - 1) + 1):
            stack = [u]
            seen = {u}
            while stack:
                x = stack.pop()
                if x == v:
                    spans.add((u, v))
                    break
                for y in range(x + 1, v + 1):
                    if y not in seen and (x, y) in arcset:
                        seen.add(y)
                        stack.append(y)
    return spans


def spans_reference(n: int, arcs, kind: str, max_len: int) -> set[tuple[int, int]]:
    """A mode's valid spans by definition: singletons for linear, every span
    up to max_len for semi, singletons and the arcs up to max_len for dgm-s,
    chain_spans_reference for dgm."""
    singles = {(i, i) for i in range(1, n + 1)}
    if kind == "linear":
        return singles
    if kind == "semi":
        return {(u, v) for u in range(1, n + 1) for v in range(u, min(n, u + max_len - 1) + 1)}
    if kind == "dgm-s":
        return singles | {(min(a, b), max(a, b)) for a, b in arcs if abs(a - b) < max_len}
    return chain_spans_reference(n, arcs, max_len)


def tree_sentence(n: int, edges, root: int = 1) -> Sentence:
    """A sentence of n tokens whose dependency tree is the undirected tree
    edges, with its arcs pointing away from root."""
    heads = orient_edges(n, edges, root)
    tokens = tuple(Token(f"w{i}", "NN") for i in range(1, n + 1))
    return Sentence(tokens, DependencyTree(heads, tuple("root" if h == 0 else "dep" for h in heads)))


def chain_forward_logz(emit: np.ndarray, trans: np.ndarray, begin: np.ndarray) -> float:
    """Textbook first-order chain CRF partition function.

    emit is (n, K) per-position scores, trans is (K, K) score of p -> y,
    begin is (K,) score of starting in y. Pure-python logsumexp.
    """

    def lse(xs):
        top = max(xs)
        if top == -math.inf:
            return -math.inf
        return top + math.log(sum(math.exp(x - top) for x in xs))

    n, K = emit.shape
    alpha = [begin[y] + emit[0, y] for y in range(K)]
    for i in range(1, n):
        alpha = [lse([alpha[p] + trans[p, y] for p in range(K)]) + emit[i, y] for y in range(K)]
    return lse(alpha)


def orient_edges(n: int, edges, root: int = 1) -> tuple[int, ...]:
    """Heads array for an undirected tree, parenting away from the root."""
    adj: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    heads = [0] * (n + 1)
    seen = {root}
    queue = [root]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                heads[y] = x
                queue.append(y)
    return tuple(heads[1:])


def random_sentence(rng, n: int | None = None, types: tuple[str, ...] = ("A", "B"), entity_prob: float = 0.7) -> Sentence:
    """Small random sentence over a uniform random tree, possibly with one
    gold singleton entity (always representable in every mode)."""
    if n is None:
        n = int(rng.integers(1, 8))
    tree = random_tree(n, rng)
    heads = orient_edges(n, tree.edges, root=int(rng.integers(1, n + 1)))
    tokens = tuple(Token(f"w{int(rng.integers(8))}", ("NN", "VB", "JJ")[int(rng.integers(3))]) for _ in range(n))
    rels = tuple("root" if h == 0 else ("dep", "mod")[int(rng.integers(2))] for h in heads)
    gold = ()
    if types and rng.random() < entity_prob:
        i = int(rng.integers(1, n + 1))
        gold = (EntitySpan(i, i, types[int(rng.integers(len(types)))]),)
    return Sentence(tokens, DependencyTree(heads, rels), gold)


def prefixes(surface: str) -> list[str]:
    return [f"pre{k}:{surface[:k]}" for k in range(1, min(3, len(surface)) + 1)]


def suffixes(surface: str) -> list[str]:
    return [f"suf{k}:{surface[-k:]}" for k in range(1, min(3, len(surface)) + 1)]


def dep_templates(sentence: Sentence, i: int) -> list[str]:
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


def position_templates(sentence: Sentence, i: int, dep_features: bool) -> list[str]:
    """Template strings of token i, in row order (features.py lists them)."""
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
    templates.extend(prefixes(token.surface))
    templates.extend(suffixes(token.surface))
    if dep_features:
        templates.extend(dep_templates(sentence, i))
    return templates


def segment_templates(sentence: Sentence, span: tuple[int, int], dep_features: bool) -> list[str]:
    """Template strings of the segment span, in row order, repeats included."""
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
        f"sw:{words[0]}",
        f"sp:{tags[0]}",
        *prefixes(words[0]),
        f"aw:{after_word}",
        f"ap:{after_pos}",
        f"ash:{after_shape}",
        f"ew:{words[-1]}",
        f"ep:{tags[-1]}",
        *suffixes(words[-1]),
        f"len:{v - u + 1}",
        f"seg:{' '.join(words)}",
    ]
    for offset, (word, pos) in enumerate(zip(words, tags), start=1):
        templates.append(f"iw:{offset}:{word}")
        templates.append(f"ip:{offset}:{pos}")
        templates.append(f"ish:{offset}:{word_shape(word)}")
    if dep_features:
        for i in range(u, v + 1):
            templates.extend(dep_templates(sentence, i))
    return templates


def reference_rows(sentences, lattices, segments: bool, dep: bool, template_id):
    """CSR arrays (indptr, indices, data) of a block's template rows, built
    span by span: each span's template strings are counted in order of first
    occurrence and mapped through template_id, None templates left out."""
    indptr, indices, data = [0], [], []
    for sentence, lattice in zip(sentences, lattices):
        for span in sorted(lattice.allowed):
            if segments:
                counts = Counter(segment_templates(sentence, span, dep))
            else:
                counts = Counter(position_templates(sentence, span[0], dep))
            for template, c in counts.items():
                tid = template_id(template)
                if tid is not None:
                    indices.append(tid)
                    data.append(c)
            indptr.append(len(indices))
    return np.array(indptr, np.int64), np.array(indices, np.int32), np.array(data, np.float64)


def reference_scores(model, sentence) -> ScoredBlock:
    """One sentence as a block of one, its factors found by looking up every
    template string in the model's index: emission(span, y) is W[template, y]
    summed template by template, transition(p, y) the weight W[T + p, y],
    each -inf where the labeling rule forbids. Unseen templates weigh 0."""
    scheme = label_scheme(model.mode)
    lattice = build_lattice(sentence, model.mode)
    live = dense_mask(lattice, model.labels, scheme).any(axis=1)
    K = len(model.labels)
    T = len(model.index)
    ids = {template: tid for tid, template in enumerate(model.index)}

    def weight(template: str, y: int) -> float:
        tid = ids.get(template)
        return 0.0 if tid is None else model.weights[tid, y]

    tw = np.array([[model.weights[T + p, y] for y in range(K)] for p in range(K + 1)])
    e_sy = np.full((len(lattice), K), -np.inf)
    for s, span in enumerate(sorted(lattice.allowed)):
        if scheme == IOB_SCHEME:
            templates = position_templates(sentence, span[0], model.dep_features)
        else:
            templates = segment_templates(sentence, span, model.dep_features)
        counts: dict[str, int] = {}
        for t in templates:
            counts[t] = counts.get(t, 0) + 1
        for y in range(K):
            if live[s, y]:
                total = 0.0
                for template, c in counts.items():
                    total += weight(template, y) * c
                e_sy[s, y] = total
    return scored_block([lattice], model.labels, e_sy, np.where(pair_mask(model.labels, scheme), tw, -np.inf))


def segmentation_entities(seg, scheme: str) -> tuple[EntitySpan, ...]:
    """Entity spans of a Viterbi segmentation: IOB tags decoded, or the non-O segments."""
    if scheme == IOB_SCHEME:
        return iob_to_spans(seg.labels())[0]
    return tuple(EntitySpan(u, v, label) for (u, v), label in seg if label != "O")


# L-BFGS-B's messages as scipy spelled them before 1.15, and as after
_LBFGSB_SPELLING = (
    ("NORM_OF_PROJECTED_GRADIENT_<=_PGTOL", "NORM OF PROJECTED GRADIENT <= PGTOL"),
    ("REL_REDUCTION_OF_F_<=_FACTR*EPSMCH", "RELATIVE REDUCTION OF F <= FACTR*EPSMCH"),
    ("TOTAL NO. of ITERATIONS", "TOTAL NO. OF ITERATIONS"),
    ("ABNORMAL_TERMINATION_IN_LNSRCH", "ABNORMAL: "),
)


def lbfgsb_message(message: str) -> str:
    """An L-BFGS-B message in the spelling of scipy 1.15 and later."""
    for old, new in _LBFGSB_SPELLING:
        message = message.replace(old, new)
    return message


def lbfgsb_fit(compiled, config):
    """scipy's L-BFGS-B from w = 0 with fit's options, on a compiled corpus.

    Returns scipy's result, its message in lbfgsb_message's spelling.
    """
    result = scipy.optimize.minimize(
        Objective(compiled, config.l2),
        np.zeros(compiled.num_weights),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": config.max_iter, "maxcor": 10, "ftol": config.ftol, "gtol": config.gtol},
    )
    result.message = lbfgsb_message(result.message)
    return result

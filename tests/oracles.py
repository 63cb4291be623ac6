"""Independent reference implementations used only by the tests.

Everything here is written from first principles with deliberately
different data structures than the package (plain lists, ``.count()``,
budgeted recursion instead of lattice construction) so that agreement is
evidence of correctness rather than shared bugs. The one exception is the
whole-sentence I-measure alignment and classification, kept as the exact
reference for the package's, which skip the unchanged ends.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import zip_longest

INF = 10**9


# ---------------------------------------------------------------------------
# n-gram overlap score, brute force


def gleu_reference(source, hypothesis, reference, max_n=4):
    src, hyp, ref = list(source), list(hypothesis), list(reference)
    if not hyp:
        return 0.0
    log_parts = []
    for n in range(1, max_n + 1):
        h = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        r = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        s = [tuple(src[i : i + n]) for i in range(len(src) - n + 1)]
        if not h:
            continue
        matched = sum(min(h.count(g), r.count(g)) for g in set(h))
        penalty = sum(
            min(h.count(g), max(0, s.count(g) - r.count(g))) for g in set(h)
        )
        numerator = max(0, matched - penalty)
        if numerator > 0:
            log_parts.append(math.log(numerator / len(h)))
        else:
            log_parts.append(math.log(1.0 / (2.0 * (len(h) + 1))))
    brevity = (
        1.0
        if len(hyp) >= len(ref)
        else math.exp(1.0 - len(ref) / len(hyp))
    )
    return brevity * math.exp(sum(log_parts) / max_n)


def gleu_reference_counts(source, hypothesis, reference, max_n=4):
    """The n-gram counts behind :func:`gleu_reference`, brute force: for
    each order 1..max_n the hypothesis n-grams matched in the reference,
    those penalized as left from the source, and all of them; laid out as
    every order's matched count, then every penalty, then every total,
    then the hypothesis and reference lengths."""
    src, hyp, ref = list(source), list(hypothesis), list(reference)
    per_order = []
    for n in range(1, max_n + 1):
        h = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
        r = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        s = [tuple(src[i : i + n]) for i in range(len(src) - n + 1)]
        matched = sum(min(h.count(g), r.count(g)) for g in set(h))
        penalty = sum(
            min(h.count(g), max(0, s.count(g) - r.count(g))) for g in set(h)
        )
        per_order.append((matched, penalty, len(h)))
    matched, penalty, total = zip(*per_order)
    return (*matched, *penalty, *total, len(hyp), len(ref))


# ---------------------------------------------------------------------------
# token alignment primitives


def levenshtein(a, b) -> int:
    a, b = tuple(a), tuple(b)
    prev = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, 1):
        cur = [i]
        for j, tok_b in enumerate(b, 1):
            cur.append(
                min(
                    prev[j - 1] + (tok_a != tok_b),
                    prev[j] + 1,
                    cur[j - 1] + 1,
                )
            )
        prev = cur
    return prev[-1]


def min_matches(a, b) -> int:
    """Fewest zero-cost (equal-token) steps over all minimal alignments."""
    a, b = tuple(a), tuple(b)
    n, m = len(a), len(b)
    total = levenshtein(a, b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int, budget: int) -> int:
        if i == n and j == m:
            return 0
        best = INF
        if i < n and j < m:
            if a[i] == b[j]:
                nxt = go(i + 1, j + 1, budget)
                if nxt < INF:
                    best = min(best, 1 + nxt)
            elif budget > 0:
                best = min(best, go(i + 1, j + 1, budget - 1))
        if i < n and budget > 0:
            best = min(best, go(i + 1, j, budget - 1))
        if j < m and budget > 0:
            best = min(best, go(i, j + 1, budget - 1))
        return best

    result = go(0, 0, total)
    assert result < INF
    return result


def full_table(a, b):
    """Every cell of the edit-distance table of ``a`` and ``b``."""
    d = [list(range(len(b) + 1))]
    for i, x in enumerate(a, 1):
        prev, row = d[-1], [i]
        for j, y in enumerate(b, 1):
            row.append(min(prev[j - 1] + (x != y), prev[j] + 1, row[j - 1] + 1))
        d.append(row)
    return d


# ---------------------------------------------------------------------------
# token-level improvement scoring over whole sentences
#
# ``whole_sentence_align`` and ``whole_sentence_classify`` visit every cell
# and token; ``imeasure_reference`` is independent of both.


def whole_sentence_align(a, b):
    """The I-measure alignment of ``a`` to ``b`` as (partner, gaps), by a
    backtrace over the full table of the whole sentences: a match or
    substitution first, then a deletion, then an insertion."""
    n, m = len(a), len(b)
    if a == b:
        return list(b), [()] * (n + 1)
    d = full_table(a, b)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (a[i - 1] != b[j - 1]):
            ops.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            ops.append((i - 1, None))
            i -= 1
        else:
            ops.append((None, j - 1))
            j -= 1
    ops.reverse()
    partner = [None] * n
    gaps = [()] * (n + 1)
    cursor = 0
    for ai, bj in ops:
        if ai is None:
            gaps[cursor] += (b[bj],)
        else:
            partner[ai] = None if bj is None else b[bj]
            cursor = ai + 1
    return partner, gaps


def whole_sentence_classify(tokens, ref_alignment, hyp_alignment):
    """(tp, tn, fp, fn, fpn) of the triples joined from two
    :func:`whole_sentence_align` results of ``tokens``, every token and
    insert visited."""
    ref_partner, ref_gaps = ref_alignment
    hyp_partner, hyp_gaps = hyp_alignment
    triples = []
    n = len(tokens)
    for slot in range(n + 1):
        rg, hg = ref_gaps[slot], hyp_gaps[slot]
        for k in range(max(len(rg), len(hg))):
            triples.append(
                (None, rg[k] if k < len(rg) else None, hg[k] if k < len(hg) else None)
            )
        if slot < n:
            triples.append((tokens[slot], ref_partner[slot], hyp_partner[slot]))
    tp = tn = fp = fn = fpn = 0
    for s, r, h in triples:
        if r == s:
            if h == s:
                tn += 1
            else:
                fp += 1
        elif h == r:
            tp += 1
        elif h == s:
            fn += 1
        else:
            fp += 1
            fn += 1
            fpn += 1
    return tp, tn, fp, fn, fpn


def minimal_alignments(a, b):
    """Every minimal-cost alignment of ``a`` to ``b``. Each is a list of
    ``len(a) + 1`` units: unit ``i`` is (the b-tokens inserted before
    ``a[i]``, the b-token ``a[i]`` is aligned to or None if deleted); the
    last unit holds the trailing inserts and None."""
    a, b = tuple(a), tuple(b)
    n, m = len(a), len(b)

    @lru_cache(maxsize=None)
    def rest(i, j):
        return levenshtein(a[i:], b[j:])

    found = []

    def walk(i, j, units, inserted):
        if i == n and j == m:
            found.append(units + [(inserted, None)])
            return
        if i < n and j < m and (a[i] != b[j]) + rest(i + 1, j + 1) == rest(i, j):
            walk(i + 1, j + 1, units + [(inserted, b[j])], ())
        if i < n and 1 + rest(i + 1, j) == rest(i, j):
            walk(i + 1, j, units + [(inserted, None)], ())
        if j < m and 1 + rest(i, j + 1) == rest(i, j):
            walk(i, j + 1, units, inserted + (b[j],))

    walk(0, 0, [], ())
    return found


def _token_class(s, r, h):
    """The (tp, tn, fp, fn, fpn) increment of one triple, by the rules of
    the I-measure module docstring."""
    if r == s:
        return (0, 1, 0, 0, 0) if h == s else (0, 0, 1, 0, 0)
    if h == r:
        return (1, 0, 0, 0, 0)
    if h == s:
        return (0, 0, 0, 1, 0)
    return (0, 0, 1, 1, 1)


def _joined_counts(source, ref_units, hyp_units):
    counts = (0, 0, 0, 0, 0)
    for i, ((r_ins, r_tok), (h_ins, h_tok)) in enumerate(zip(ref_units, hyp_units)):
        triples = [(None, r, h) for r, h in zip_longest(r_ins, h_ins)]
        if i < len(source):
            triples.append((source[i], r_tok, h_tok))
        for triple in triples:
            counts = tuple(c + d for c, d in zip(counts, _token_class(*triple)))
    return counts


def _weighted_accuracy_reference(counts, weight):
    tp, tn, fp, fn, fpn = counts
    num = weight * tp + tn
    den = weight * (tp + fp) + tn + fn - (weight + 1.0) * fpn / 2.0
    return 1.0 if den == 0.0 else num / den


def imeasure_reference(source, hypothesis, reference, weight=2.0):
    """Every (system counts, improvement score) that some pair of minimal
    source-reference and source-hypothesis alignments gives, the counts as
    (tp, tn, fp, fn, fpn). The do-nothing baseline pairs the same
    source-reference alignment with the identity."""
    source = tuple(source)
    identity = [((), tok) for tok in source] + [((), None)]
    reachable = set()
    for ref_units in minimal_alignments(source, reference):
        base = _weighted_accuracy_reference(
            _joined_counts(source, ref_units, identity), weight
        )
        for hyp_units in minimal_alignments(source, hypothesis):
            counts = _joined_counts(source, ref_units, hyp_units)
            system = _weighted_accuracy_reference(counts, weight)
            if system >= base:
                score = 0.0 if base == 1.0 else (system - base) / (1.0 - base)
            else:
                score = system / base - 1.0
            reachable.add((counts, score))
    return reachable


# ---------------------------------------------------------------------------
# edit-level counts via exhaustive search over edit sequences


def m2_reference_count_set(source, hypothesis, gold_edits, max_unchanged=2):
    """All (tp, fp, fn) triples reachable by cost-optimal edit sequences.

    An admissible explanation of source -> hypothesis is a sorted sequence
    of non-identity edits (source span -> hypothesis span) where the text
    between consecutive edits matches exactly, every edit's own minimal
    alignment distance fits the overall distance budget, and no edit needs
    more than ``max_unchanged`` internal matched tokens. Cost-optimal means
    maximizing (gold-edit occurrences, -edit count, -total span size)
    lexicographically, which is exactly the ordering induced by edge costs
    ``1 + 0.001 * size - 1000 * [gold]`` at desk scale.

    The reward fires per occurrence while tp counts distinct gold edits, so
    degenerate inputs (duplicate-token insertion runs next to gold inserts)
    can tie on cost yet differ in tp. The returned set exposes exactly that
    ambiguity: a singleton means counts are fully determined.

    ``gold_edits`` holds (start, end, replacement) triples; identity gold
    edits are ignored, mirroring the scorer.
    """
    s, h = tuple(source), tuple(hypothesis)
    n, m = len(s), len(h)
    gold = set()
    for start, end, repl in gold_edits:
        repl = tuple(repl)
        if s[start:end] != repl:
            gold.add((start, end, repl))
    total = levenshtein(s, h)

    @lru_cache(maxsize=None)
    def span_lev(i, i2, j, j2):
        return levenshtein(s[i:i2], h[j:j2])

    @lru_cache(maxsize=None)
    def span_mm(i, i2, j, j2):
        return min_matches(s[i:i2], h[j:j2])

    def edit_moves(i, j, budget):
        for i2 in range(i, n + 1):
            for j2 in range(j, m + 1):
                if i2 == i and j2 == j:
                    continue
                if s[i:i2] == h[j:j2]:
                    continue
                cost = span_lev(i, i2, j, j2)
                if cost > budget:
                    continue
                if span_mm(i, i2, j, j2) > max_unchanged:
                    continue
                yield i2, j2, cost

    @lru_cache(maxsize=None)
    def best(i, j, budget):
        """Best (gold hits, -edits, -size) completing from here, or None."""
        if i == n and j == m:
            return (0, 0, 0)
        candidates = []
        if i < n and j < m and s[i] == h[j]:
            sub = best(i + 1, j + 1, budget)
            if sub is not None:
                candidates.append(sub)
        for i2, j2, cost in edit_moves(i, j, budget):
            sub = best(i2, j2, budget - cost)
            if sub is None:
                continue
            key = (i, i2, h[j:j2])
            candidates.append(
                (
                    sub[0] + (1 if key in gold else 0),
                    sub[1] - 1,
                    sub[2] - ((i2 - i) + (j2 - j)),
                )
            )
        return max(candidates) if candidates else None

    target = best(0, 0, total)
    assert target is not None, "every pair decomposes into maximal edit runs"

    # walk every optimal continuation, tracking distinct gold keys used
    finals = set()
    seen = set()
    stack = [(0, 0, total, frozenset())]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        i, j, budget, used = state
        if (i, j) == (n, m):
            finals.add(used)
            continue
        want = best(i, j, budget)
        if (
            i < n
            and j < m
            and s[i] == h[j]
            and best(i + 1, j + 1, budget) == want
        ):
            stack.append((i + 1, j + 1, budget, used))
        for i2, j2, cost in edit_moves(i, j, budget):
            sub = best(i2, j2, budget - cost)
            if sub is None:
                continue
            key = (i, i2, h[j:j2])
            hit = 1 if key in gold else 0
            got = (
                sub[0] + hit,
                sub[1] - 1,
                sub[2] - ((i2 - i) + (j2 - j)),
            )
            if got == want:
                nxt = used | {key} if hit else used
                stack.append((i2, j2, budget - cost, nxt))

    gold_occurrences, neg_edits, _ = target
    fp = -neg_edits - gold_occurrences
    return {(len(u), fp, len(gold) - len(u)) for u in finals}


def m2_reference_counts(source, hypothesis, gold_edits, max_unchanged=2):
    """The unique (tp, fp, fn); raises if the input is count-ambiguous."""
    triples = m2_reference_count_set(
        source, hypothesis, gold_edits, max_unchanged
    )
    if len(triples) != 1:
        raise ValueError(f"count-ambiguous case: {sorted(triples)}")
    return next(iter(triples))


def f_beta_reference(tp, fp, fn, beta=0.5):
    p = 1.0 if tp + fp == 0 else tp / (tp + fp)
    r = 1.0 if tp + fn == 0 else tp / (tp + fn)
    if p == 0.0 and r == 0.0:
        return 0.0
    return (1 + beta * beta) * p * r / (beta * beta * p + r)


# ---------------------------------------------------------------------------
# n-gram LM keys, decoded


def decode_lm(lm):
    """``lm``'s vocabulary, and its n-gram and context counts keyed by
    token tuples instead of integer codes, each order's keys in the LM's
    order: the per-position counting oracles count token tuples."""
    names = {number: token for token, number in lm.numbers.items()}

    def tokens(code, width):
        digits = []
        for _ in range(width):
            code, last = divmod(code, len(names))
            digits.append(names[last])
        return tuple(reversed(digits))

    def decoded(counters, width):
        return {
            k: {tokens(code, width(k)): n for code, n in counter.items()}
            for k, counter in counters.items()
        }

    vocab = {names[number] for number in lm.ngram_counts[1]}
    return (vocab, decoded(lm.ngram_counts, lambda k: k),
            decoded(lm.context_counts, lambda k: k - 1))


def lm_prob_oracle(decoded):
    """The interpolated probability ``prob(token, context=())`` of an LM,
    from its :func:`decode_lm` token-tuple counts alone: the unigram
    estimate is add-one smoothed over the vocabulary plus <unk>, each higher
    order's is the maximum-likelihood estimate, and an unseen context keeps
    the estimate of the order below. The context is padded with <s> on the
    left, and an out-of-vocabulary token reads as <unk> (as <s> stays <s>
    in a context). Each order weighs 1 / order."""
    vocab, ngrams, contexts = decoded
    order = len(ngrams)
    denominator = sum(ngrams[1].values()) + len(vocab) + 1

    def prob(token, context=()):
        token = token if token in vocab else "<unk>"
        padded = ["<s>"] * (order - 1) + [
            t if t == "<s>" or t in vocab else "<unk>" for t in context]
        p = (ngrams[1].get((token,), 0) + 1) / denominator
        terms = [(1.0 / order) * p]
        for k in range(2, order + 1):
            ctx = tuple(padded[len(padded) - k + 1 :])
            seen = contexts[k].get(ctx, 0)
            if seen:
                p = ngrams[k].get(ctx + (token,), 0) / seen
            terms.append((1.0 / order) * p)
        return math.fsum(terms)

    return prob

"""Token-level improvement scoring relative to doing nothing.

Source, reference, and hypothesis are joined into token triples via two
pairwise alignments (source-reference and source-hypothesis). Each triple
is classified by what the reference demanded and what the hypothesis did:

* ``r == s`` and ``h == s``: true negative (left well enough alone);
* ``r == s`` and ``h != s``: false positive (needless change);
* ``r != s`` and ``h == r``: true positive (the required correction);
* ``r != s`` and ``h == s``: false negative (missed correction);
* otherwise a wrong correction, counted as both a false positive and a
  false negative plus one unit of the combined ``fpn`` counter that the
  accuracy denominator discounts.

Weighted accuracy upweights true positives by ``weight``; the final score
normalizes the system's accuracy against the do-nothing baseline so that
1 means perfect correction, 0 means no improvement, and negative values
mean the system made the text worse. An unchanged hypothesis is exactly 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import groupby, zip_longest
from typing import Mapping, NamedTuple, Sequence

from . import _levenshtein
from ._config import IMeasureConfig
from .analysis import _check_sizes, _reducer
from .corpus import Sentence
from .errors import ValidationError

__all__ = [
    "IMeasureConfig",
    "TokenCounts",
    "weighted_accuracy",
    "IMeasureStats",
    "i_measure_stats",
    "i_measure_stats_many",
    "i_measure_subset",
    "i_measure_sentence",
    "i_measure_pool",
    "i_measure_corpus",
]


class TokenCounts(NamedTuple):
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    fpn: int = 0


def _align(a: tuple[str, ...], b: tuple[str, ...]):
    """Pair each position of ``a`` with a token of ``b`` (or None).

    Returns (partner, gaps, window): ``partner[i]`` is the b-token aligned
    to ``a[i]`` or None if deleted; ``gaps[slot]`` lists b-tokens inserted
    before a-position ``slot`` (slot ``len(a)`` holds trailing inserts).
    Unit ``i`` is slot ``i``'s inserts followed by ``a[i]``. ``window`` is
    ``(lo, hi)``: every unit outside ``range(lo, hi)`` inserts nothing and
    keeps its token; it is ``(len(a) + 1, 0)`` if nothing changed.

    Backtrace prefers a match or substitution, then deletion, insertion,
    so equal sides align position by position; that case skips the table.
    The backtrace runs down a common suffix diagonally, so the table covers
    only what precedes it, and starts one token before the first
    difference: that cut is exact if the backtrace ends by matching that
    token, and is dropped otherwise.
    """
    n, m = len(a), len(b)
    partner: list[str | None] = list(a)
    gaps: list[tuple[str, ...]] = [()] * (n + 1)
    lo, hi = n + 1, 0
    if a == b:
        return partner, gaps, (lo, hi)
    prefix, suffix = _levenshtein.common_ends(a, b)
    start = max(prefix - 1, 0)
    ops = _backtrace(a[start:n - suffix], b[start:m - suffix])
    if start and ops[0] != (0, 0):  # it met the first row or column early
        start = 0
        ops = _backtrace(a[:n - suffix], b[:m - suffix])
    cursor = start
    for ai, bj in ops:
        if ai is None:
            gaps[cursor] += (b[start + bj],)
            unit = cursor
        else:
            unit = ai = ai + start
            tok = partner[ai] = None if bj is None else b[start + bj]
            cursor = ai + 1
            if tok == a[ai]:
                continue
        lo, hi = min(lo, unit), unit + 1
    return partner, gaps, (lo, hi)


def _backtrace(a: tuple[str, ...], b: tuple[str, ...]) -> list[tuple[int | None, int | None]]:
    """The (a-position, b-position) pairs of :func:`_align`'s path, None
    for the side that has no token, in order."""
    d = _levenshtein.table(a, b)
    ops: list[tuple[int | None, int | None]] = []
    i, j = len(a), len(b)
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
    return ops


def _classify(tokens: tuple[str, ...], ref_alignment, hyp_alignment) -> TokenCounts:
    """Counts of the triples joined from two :func:`_align` results of
    ``tokens``. Only the units inside either alignment's window are
    joined: every token outside both is a true negative, counted in bulk."""
    ref_partner, ref_gaps, (ref_lo, ref_hi) = ref_alignment
    hyp_partner, hyp_gaps, (hyp_lo, hyp_hi) = hyp_alignment
    lo, hi = min(ref_lo, hyp_lo), max(ref_hi, hyp_hi)
    window = tokens[lo:hi]
    # the window's token triples, then its insert triples: order does not
    # change the counts
    triples: list[tuple[str | None, str | None, str | None]] = list(
        zip(window, ref_partner[lo:hi], hyp_partner[lo:hi])
    )
    for rg, hg in zip(ref_gaps[lo:hi], hyp_gaps[lo:hi]):
        if rg or hg:
            triples.extend((None, r, h) for r, h in zip_longest(rg, hg))
    tp = fp = fn = fpn = 0
    tn = len(tokens) - len(window)
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
    return TokenCounts(tp, tn, fp, fn, fpn)


def weighted_accuracy(counts: TokenCounts, weight: float = 2.0) -> float:
    """Accuracy with tp upweighted and combined fp+fn units discounted."""
    num = weight * counts.tp + counts.tn
    den = (
        weight * (counts.tp + counts.fp)
        + counts.tn
        + counts.fn
        - (weight + 1.0) * counts.fpn / 2.0
    )
    if den == 0.0:
        return 1.0  # nothing to get right or wrong
    if not math.isfinite(den):  # weight * count overflowed: a nan or a false 0
        raise ValidationError(f"weight {weight} overflows the weighted token counts")
    return num / den


def _improvement(system: TokenCounts, baseline: TokenCounts, weight: float) -> float:
    wacc_sys, wacc_base = weighted_accuracy(system, weight), weighted_accuracy(baseline, weight)
    if wacc_sys >= wacc_base:
        if wacc_base == 1.0:
            return 0.0
        return (wacc_sys - wacc_base) / (1.0 - wacc_base)
    return wacc_sys / wacc_base - 1.0


@dataclass(frozen=True, slots=True)
class IMeasureStats:
    """One hypothesis's statistics: its best improvement score over the
    references, with the system and do-nothing baseline token counts
    against that reference (the first one on ties). ``references`` holds
    the statistics against each reference alone, and does not take part
    in comparisons."""

    score: float
    system: TokenCounts
    baseline: TokenCounts
    references: tuple["IMeasureStats", ...] = field(default=(), compare=False, repr=False)


def i_measure_stats(
    source: Sentence,
    hypothesis: Sentence,
    references: Sequence[Sentence],
    cfg: IMeasureConfig = IMeasureConfig(),
) -> IMeasureStats:
    """Sentence statistics against the best of the available references.
    An unchanged hypothesis has the baseline's counts."""
    return i_measure_stats_many([source], [(0, hypothesis, tuple(references))], cfg)[0]


def i_measure_stats_many(
    sources: Sequence[Sentence] | Mapping[int, Sentence],
    items: Sequence[tuple[int, Sentence, tuple[Sentence, ...]]],
    cfg: IMeasureConfig = IMeasureConfig(),
) -> list[IMeasureStats]:
    """:func:`i_measure_stats` of each (sentence index, hypothesis,
    references) item, in item order.

    Items are taken sentence by sentence, whatever their rows. Each
    sentence aligns each distinct token sequence, reference or hypothesis,
    to its source once, counts each distinct (reference, hypothesis) pair
    and each reference's do-nothing baseline once, and drops it all after.
    """
    out: list = [None] * len(items)
    order = sorted(range(len(items)), key=lambda k: items[k][0])
    for i, group in groupby(order, key=lambda k: items[k][0]):
        tokens = sources[i].tokens
        align = functools.cache(lambda other: _align(tokens, other))
        # the counts against the source itself are the do-nothing baseline's
        counts = functools.cache(lambda ref, hyp: _classify(tokens, align(ref), align(hyp)))
        for k in group:
            _, hyp, row = items[k]
            if not row:
                raise ValidationError("at least one reference is required")
            per_reference = []
            for ref in row:
                system, base = counts(ref.tokens, hyp.tokens), counts(ref.tokens, tokens)
                per_reference.append(IMeasureStats(_improvement(system, base, cfg.weight),
                                                   system, base))
            best = max(per_reference, key=lambda stats: stats.score)
            out[k] = IMeasureStats(best.score, best.system, best.baseline, tuple(per_reference))
    return out


def i_measure_subset(stats: IMeasureStats, pick: Sequence[int]) -> IMeasureStats:
    """The statistics of the same hypothesis against the references
    ``pick`` of its row alone: the first best of the picked references'
    own statistics, as :func:`i_measure_stats` takes it."""
    return max((stats.references[j] for j in pick), key=lambda s: s.score)


def i_measure_sentence(
    source: Sentence,
    hypothesis: Sentence,
    references: Sequence[Sentence],
    cfg: IMeasureConfig = IMeasureConfig(),
) -> float:
    """Best improvement score over the available references, in [-1, 1]."""
    return i_measure_stats(source, hypothesis, references, cfg).score


def i_measure_pool(
    stats: Sequence[IMeasureStats], cfg: IMeasureConfig = IMeasureConfig()
) -> float:
    """One improvement score from the system and baseline counts pooled
    over each sentence's best reference."""
    # a field-wise sum: + on two tuples would concatenate them
    system = TokenCounts(*map(sum, zip(*(s.system for s in stats))))
    baseline = TokenCounts(*map(sum, zip(*(s.baseline for s in stats))))
    return _improvement(system, baseline, cfg.weight)


def i_measure_corpus(
    sources: Sequence[Sentence],
    hypotheses: Sequence[Sentence],
    references: Sequence[Sequence[Sentence]],
    cfg: IMeasureConfig = IMeasureConfig(),
    mode: str = "corpus",
) -> float:
    """Corpus score: the mean of sentence scores in ``sentence`` mode,
    :func:`i_measure_pool` of the sentence statistics in ``corpus`` mode."""
    _check_sizes(sources=sources, hypotheses=hypotheses, references=references)
    reduce = _reducer(len(sources), lambda stats: i_measure_pool(stats, cfg), mode)
    items = [(i, hyp, tuple(references[i])) for i, hyp in enumerate(hypotheses)]
    return reduce(i_measure_stats_many(sources, items, cfg))

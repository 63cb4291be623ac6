"""Sentence-level n-gram overlap metric for correction quality.

The score rewards hypothesis n-grams found in the reference and subtracts
credit for n-grams the hypothesis shares with the source but not the
reference, so leaving an error in place is penalized even when most of the
sentence matches. Per n-gram order::

    numerator_n   = max(0, sum_g min(c_H(g), c_R(g))
                         - sum_g min(c_H(g), max(0, c_S(g) - c_R(g))))
    denominator_n = sum_g c_H(g)

A zero numerator is smoothed to ``1 / (2 * (denominator_n + 1))``; orders
longer than the hypothesis contribute a neutral ``p_n = 1``. The final
score is ``BP * exp(mean_n log p_n)`` with the usual brevity penalty
against the reference length; an empty hypothesis scores 0. Scores are
always in [0, 1] and need no tuned weights, which keeps the metric usable
on single sentences.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import add, itemgetter, mul
from typing import Callable, Mapping, NamedTuple, Sequence

from .analysis import mean_score
from .corpus import Sentence
from .errors import ValidationError

__all__ = ["GleuConfig", "GleuStats", "gleu_stats", "gleu_stats_many",
           "gleu_subset", "gleu_multi_ref", "gleu_pool", "gleu_corpus", "sample_draws",
           "reference_draws", "SAMPLED", "MEAN_OVER_ALL"]

SAMPLED = "sampled"
MEAN_OVER_ALL = "mean-over-all"
_DRAW_WORDS = 1 << 24  # most words per getrandbits call: its bit count is a C int


@dataclass(frozen=True)
class GleuConfig:
    """Knobs for the n-gram metric.

    ``multi_ref_mode`` selects how multiple references combine: ``sampled``
    averages over ``iterations`` draws of one reference per sentence
    (seeded, reproducible); ``mean-over-all`` averages over every
    reference deterministically.
    """

    max_n: int = 4
    iterations: int = 500
    rng_seed: int = 0
    multi_ref_mode: str = SAMPLED

    def __post_init__(self):
        for name in ("max_n", "iterations"):
            value = getattr(self, name)
            # no tuple holds more than sys.maxsize // 8 items; a knob below
            # that can still ask for more memory than there is
            if not 1 <= value <= sys.maxsize // 8:
                raise ValidationError(
                    f"{name} must be in [1, {sys.maxsize // 8}], got {value}"
                )
        if self.multi_ref_mode not in (SAMPLED, MEAN_OVER_ALL):
            raise ValidationError(
                f"multi_ref_mode must be {SAMPLED!r} or {MEAN_OVER_ALL!r}, "
                f"got {self.multi_ref_mode!r}"
            )


# One order's n-grams: the set of their int keys, and the counts of repeated keys.
_Bag = tuple[set, dict]
_EMPTY: _Bag = (frozenset(), {})


def _ngrams(ids: Sequence[int], n: int, base: int, shorter: Sequence[int]) -> list[int]:
    """The keys of the order-``n`` n-grams of the token numbers ``ids``
    (each below ``base``), from the keys of the order-``n - 1`` ones (all 0
    for ``n == 1``): the prefix's key times ``base`` plus the last token's
    number, so two keys of one order are equal exactly when their n-grams are."""
    return list(map(add, map(mul, shorter, repeat(base)), ids[n - 1 :]))


def _orders(tokens: Sequence[str], max_n: int, numbers: Mapping[str, int]) -> list[_Bag]:
    """Each order's n-grams of ``tokens`` up to ``max_n``, as :data:`_Bag`
    keys under the token numbering ``numbers``."""
    ids = list(map(numbers.__getitem__, tokens))
    keys, out = [0] * len(ids), []
    for n in range(1, min(max_n, len(ids)) + 1):
        keys = _ngrams(ids, n, len(numbers), keys)
        distinct, repeated = set(keys), {}
        if len(distinct) < len(keys):
            for g in keys:
                repeated[g] = repeated.get(g, 0) + 1
            repeated = {g: c for g, c in repeated.items() if c > 1}
        out.append((distinct, repeated))
    return out


def _common(a: list[_Bag], b: list[_Bag]) -> list[int]:
    """``sum_g min(c_a(g), c_b(g))`` per order: each shared key once, plus
    the rest of the smaller count where both repeat it."""
    return [
        len(x & y)
        + (sum(min(c, ry[g]) - 1 for g, c in rx.items() if g in ry) if rx and ry else 0)
        for (x, rx), (y, ry) in zip(a, b)
    ]


def _surplus(source: _Bag, reference: _Bag) -> _Bag:
    """``max(0, c_S(g) - c_R(g))`` as a bag: the source n-grams the
    reference has fewer of, with how many fewer."""
    (s_keys, s_rep), (r_keys, r_rep) = source, reference
    keys, rep = s_keys - r_keys, {}
    for g, c in s_rep.items():
        c -= r_rep.get(g, 1) if g in r_keys else 0
        if c > 0:
            keys.add(g)
        if c > 1:
            rep[g] = c
    return keys, rep


def _assemble(counts: Sequence[int], max_n: int) -> float:
    hyp_len, ref_len = counts[3 * max_n], counts[3 * max_n + 1]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(max_n):
        denominator = counts[2 * max_n + n]
        if denominator == 0:
            continue  # log(1): orders longer than the hypothesis are neutral
        numerator = max(0, counts[n] - counts[max_n + n])
        if numerator > 0:
            log_sum += math.log(numerator / denominator)
        else:
            log_sum += math.log(1.0 / (2 * (denominator + 1)))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_sum / max_n)


def sample_draws(
    n_refs: int, iterations: int, seed: int, sentence_index: int
) -> Sequence[int]:
    """The reference drawn at each iteration for one sentence, from a
    stream of its own, so independent of scheduling order. Draws fit in a
    bytes object up to 256 references.

    The draws are ``rng.randrange(n_refs)`` of the stream, read in bulk:
    randrange takes the top ``n_refs.bit_length()`` bits of one 32-bit
    word and draws again while the value is ``>= n_refs``, and one
    ``getrandbits(32 * m)`` holds the next ``m`` words, first word lowest.
    """
    if n_refs < 1:
        raise ValidationError(f"n_refs must be >= 1, got {n_refs}")
    if n_refs == 1:
        # randrange(1) is always 0, and no other sentence shares this stream
        return bytes(iterations)
    import numpy as np  # imported where used: most commands never load it

    rng = random.Random(f"{seed}:{sentence_index}")
    shift = 32 - n_refs.bit_length()
    chunks, n_kept = [], 0
    while n_kept < iterations:
        m = min(2 * (iterations - n_kept) + 64, _DRAW_WORDS)  # at least half are kept
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        words = words >> shift
        chunks.append(words[words < n_refs])
        n_kept += len(chunks[-1])
    kept = np.concatenate(chunks)[:iterations]
    return kept.astype(np.uint8).tobytes() if n_refs <= 256 else kept.tolist()


def reference_draws(cfg: GleuConfig, sentence_index: int, n_refs: int) -> Sequence[int]:
    """The references a sentence's score averages over: its
    :func:`sample_draws`, or in ``mean-over-all`` mode each reference once."""
    if cfg.multi_ref_mode == MEAN_OVER_ALL:
        return range(n_refs)
    return sample_draws(n_refs, cfg.iterations, cfg.rng_seed, sentence_index)


class GleuStats(NamedTuple):
    """One hypothesis's statistics against each of its references.

    ``counts[j]`` holds the counts against reference ``j`` and
    ``per_reference[j]`` the score against it alone; ``score`` averages
    it over ``draws`` (any int sequence; :func:`reference_draws`): each
    iteration's drawn reference in ``sampled`` mode, every reference once
    in ``mean-over-all`` mode. The counts are each order's matched, then
    source-penalty, then total n-gram counts (0 for orders longer than
    the hypothesis), then the two lengths; sentences pool by summing them.
    """

    score: float
    counts: tuple[tuple[int, ...], ...]
    draws: Sequence[int]
    per_reference: tuple[float, ...]


def _score(counts, per_reference, draws) -> GleuStats:
    return GleuStats(_mean_over_draws(per_reference, draws), counts, draws, per_reference)


def _mean_over_draws(scores: Sequence[float], draws: Sequence[int]) -> float:
    """``mean_score([scores[j] for j in draws])`` from how often each
    reference is drawn. ``c`` draws of a score sum exactly to the score
    times each power of two in ``c``, and fsum correctly rounds the exact
    sum of whatever terms it is given."""
    first = scores[draws[0]]
    drawn = [(score, draws.count(j)) for j, score in enumerate(scores)]
    if all(score == first for score, c in drawn if c):
        return first
    return math.fsum(
        math.ldexp(score, b)
        for score, c in drawn
        for b in range(c.bit_length())
        if c >> b & 1
    ) / len(draws)


def gleu_stats(
    source: Sentence,
    hypothesis: Sentence,
    references: Sequence[Sentence],
    cfg: GleuConfig = GleuConfig(),
    sentence_index: int = 0,
    draws: Sequence[int] | None = None,
) -> GleuStats:
    """Sentence statistics; ``score`` is the multi-reference sentence score.

    ``draws`` defaults to :func:`reference_draws` of the sentence; a
    caller scoring many hypotheses of one sentence draws once and passes
    them, or uses :func:`gleu_stats_many`.
    """
    given = None if draws is None else (lambda i, n_refs: draws)
    item = (sentence_index, hypothesis, tuple(references))
    return gleu_stats_many({sentence_index: source}, [item], cfg, given)[0]


def gleu_stats_many(
    sources: Sequence[Sentence] | Mapping[int, Sentence],
    items: Sequence[tuple[int, Sentence, tuple[Sentence, ...]]],
    cfg: GleuConfig = GleuConfig(),
    draws: Callable[[int, int], Sequence[int]] | None = None,
) -> list[GleuStats]:
    """:func:`gleu_stats` of each (sentence index, hypothesis, references)
    item, in item order.

    Items are taken sentence by sentence. Each group of one sentence and
    one reference row numbers its tokens, builds the int-keyed n-grams of
    its source, references and distinct hypotheses and each reference's
    surplus once, counts by set intersection and drops it all after.
    ``draws(i, n_refs)`` gives sentence ``i``'s draws (default:
    :func:`reference_draws`).
    """
    draws = draws or functools.partial(reference_draws, cfg)
    max_n = cfg.max_n
    out: list = [None] * len(items)
    order = sorted(range(len(items)), key=lambda k: items[k][0])
    for (i, row), group in groupby(order, key=lambda k: (items[k][0], items[k][2])):
        if not row:
            raise ValidationError(f"sentence {i} has no references")
        hyps = [(k, items[k][1]) for k in group]
        seen = chain(
            sources[i].tokens, *(r.tokens for r in row), *(h.tokens for _, h in hyps)
        )
        numbers = {t: k for k, t in enumerate(dict.fromkeys(seen))}
        orders = functools.cache(lambda tokens: _orders(tokens, max_n, numbers))
        top = min(max_n, max(len(h) for _, h in hyps))
        pad = [_EMPTY] * top
        src = orders(sources[i].tokens)[:top]
        padded = [(orders(ref.tokens) + pad, len(ref)) for ref in row]
        refs = [(r, [*map(_surplus, src, r), *pad], n) for r, n in padded]
        picked = draws(i, len(row))
        for k, hyp in hyps:
            h, length = orders(hyp.tokens), len(hyp)
            zeros = (0,) * (max_n - len(h))
            totals = (*range(length, length - len(h), -1), *zeros, length)
            counts = tuple(
                (*_common(h, r), *zeros, *_common(h, u), *zeros, *totals, n)
                for r, u, n in refs
            )
            scores = tuple(_assemble(c, max_n) for c in counts)
            out[k] = _score(counts, scores, picked)
    return out


def gleu_subset(
    stats: GleuStats, pick: Sequence[int], draws: Sequence[int]
) -> GleuStats:
    """The statistics of the same hypothesis against the references
    ``pick`` of its row alone. The counts and score against a reference
    depend on that reference only, so they are the picked columns of
    ``stats``; ``draws`` are the subset's own :func:`reference_draws` of
    ``len(pick)`` references for the sentence ``stats`` belongs to."""
    return _score(
        tuple(stats.counts[j] for j in pick),
        tuple(stats.per_reference[j] for j in pick),
        draws,
    )


def gleu_multi_ref(
    source: Sentence,
    hypothesis: Sentence,
    references: Sequence[Sentence],
    cfg: GleuConfig = GleuConfig(),
    sentence_index: int = 0,
) -> float:
    """Score against multiple references per ``cfg.multi_ref_mode``.

    With a single reference both modes give exactly the score against it
    alone.
    """
    return gleu_stats(source, hypothesis, references, cfg, sentence_index).score


def gleu_pool(stats: Sequence[GleuStats], cfg: GleuConfig = GleuConfig()) -> float:
    """Corpus score from pooled n-gram counts.

    Counts are summed over sentences before the precisions and brevity
    penalty are computed, so the result generally differs from the mean of
    sentence scores. Reference handling mirrors the sentence modes: the
    ``sampled`` mode pools one sampled reference per sentence per iteration
    (using the same per-sentence draws, so a one-sentence corpus
    reproduces the sentence score exactly); ``mean-over-all`` averages the
    pooled score over reference columns and requires a uniform reference
    count per sentence.
    """
    if not stats:
        return 0.0

    def pooled(choice: Sequence[int]) -> float:
        picked = (s.counts[j] for s, j in zip(stats, choice))
        return _assemble([sum(column) for column in zip(*picked)], cfg.max_n)

    if cfg.multi_ref_mode == MEAN_OVER_ALL:
        width = len(stats[0].counts)
        for i, s in enumerate(stats):
            if len(s.counts) != width:
                raise ValidationError(
                    f"sentence {i} has {len(s.counts)} references, expected {width}"
                )
        return mean_score([pooled([j] * len(stats)) for j in range(width)])
    # totals[k] = sum over sentences of the counts against the reference
    # drawn at iteration k: each sentence's counts, one row per reference,
    # gathered by its draws. Orders longer than the longest hypothesis
    # count 0 everywhere, so only the other columns are summed, and the
    # zeros are put back once.
    import numpy as np

    max_n, iterations = cfg.max_n, len(stats[0].draws)
    top = min(max_n, max(s.counts[0][3 * max_n] for s in stats))
    keep = [k for k in range(3 * max_n + 2) if k % max_n < top or k >= 3 * max_n]
    take, kept = itemgetter(*keep), np.zeros((iterations, len(keep)), np.int64)
    for i, s in enumerate(stats):
        if len(s.draws) != iterations:
            raise ValidationError(
                f"sentence {i} has {len(s.draws)} draws, expected {iterations}"
            )
        draws = np.frombuffer(s.draws, np.uint8) if isinstance(s.draws, bytes) else s.draws
        kept += np.array([take(c) for c in s.counts], np.int64)[draws]
    totals = np.zeros((iterations, 3 * max_n + 2), np.int64)
    totals[:, keep] = kept
    return mean_score([_assemble(row, max_n) for row in totals.tolist()])


def gleu_corpus(
    sources: Sequence[Sentence],
    hypotheses: Sequence[Sentence],
    references: Sequence[Sequence[Sentence]],
    cfg: GleuConfig = GleuConfig(),
) -> float:
    """Corpus-level score: :func:`gleu_stats` per sentence, then :func:`gleu_pool`."""
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValidationError(
            f"size mismatch: {len(sources)} sources, {len(hypotheses)} hypotheses, "
            f"{len(references)} reference lists"
        )
    items = [(i, hyp, tuple(references[i])) for i, hyp in enumerate(hypotheses)]
    return gleu_pool(gleu_stats_many(sources, items, cfg), cfg)

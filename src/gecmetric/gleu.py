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
import struct
from itertools import chain, compress, groupby, repeat
from operator import add, itemgetter, mul, sub
from typing import Mapping, NamedTuple, Sequence

from ._config import MAX_ITERATIONS, MEAN_OVER_ALL, SAMPLED, GleuConfig
from .analysis import _check_sizes, mean_score
from .corpus import Sentence
from .errors import ValidationError

__all__ = ["GleuConfig", "GleuStats", "gleu_stats", "gleu_stats_many",
           "gleu_subset", "gleu_multi_ref", "gleu_pool", "gleu_corpus", "sample_draws",
           "reference_draws", "SAMPLED", "MEAN_OVER_ALL", "MAX_ITERATIONS"]

_DRAW_WORDS = 1 << 24  # most words per getrandbits call: its bit count is a C int
_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # unsigned struct codes by standard width


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


def _assemble(counts: Sequence[int], max_n: int, orders: int) -> float:
    """The score of one counts row (see :class:`GleuStats`). Only the first
    ``orders`` orders are read: the caller knows the rest have a zero
    denominator."""
    hyp_len, ref_len = counts[3 * max_n], counts[3 * max_n + 1]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(orders):
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
    rng = random.Random(f"{seed}:{sentence_index}")
    shift = 32 - n_refs.bit_length()
    kept = bytearray() if n_refs < 256 else []
    while len(kept) < iterations:
        m = min(2 * (iterations - len(kept)) + 64, _DRAW_WORDS)  # at least half are kept
        words = rng.getrandbits(32 * m).to_bytes(4 * m, "little")
        if n_refs < 256:  # a draw is in the top byte of its word
            kept += words[3::4].translate(*_byte_draws(n_refs))
        else:
            kept += [d for w in struct.unpack(f"<{m}I", words) if (d := w >> shift) < n_refs]
    return bytes(kept[:iterations]) if n_refs <= 256 else kept[:iterations]


@functools.cache
def _byte_draws(n_refs: int) -> tuple[bytes, bytes]:
    """A word's top byte to its draw among ``n_refs`` (below 256), and the rejected bytes."""
    table = bytes(v >> 8 - n_refs.bit_length() for v in range(256))
    return table, bytes(v for v in range(256) if table[v] >= n_refs)


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
) -> GleuStats:
    """Sentence statistics; ``score`` is the multi-reference sentence score,
    averaged over the sentence's :func:`reference_draws`."""
    item = (sentence_index, hypothesis, tuple(references))
    return gleu_stats_many({sentence_index: source}, [item], cfg)[0]


def gleu_stats_many(
    sources: Sequence[Sentence] | Mapping[int, Sentence],
    items: Sequence[tuple[int, Sentence, tuple[Sentence, ...]]],
    cfg: GleuConfig = GleuConfig(),
) -> list[GleuStats]:
    """:func:`gleu_stats` of each (sentence index, hypothesis, references)
    item, in item order.

    Items are taken sentence by sentence, whatever their rows. Each
    sentence numbers its tokens once (source, every reference of its
    items' distinct rows, hypotheses), builds the int-keyed n-grams of each
    distinct token sequence, each distinct row's reference and surplus
    bags and its draws per reference count once, counts by set
    intersection and drops it all after. Counts depend only on which
    n-grams are equal, so they do not depend on the numbering.
    """
    max_n = cfg.max_n
    out: list = [None] * len(items)
    order = sorted(range(len(items)), key=lambda k: items[k][0])
    for i, group in groupby(order, key=lambda k: items[k][0]):
        group = [(k, *items[k][1:]) for k in group]
        rows = dict.fromkeys(row for _, _, row in group)
        if not all(rows):
            raise ValidationError(f"sentence {i} has no references")
        seen = chain(sources[i].tokens, *(r.tokens for row in rows for r in row),
                     *(h.tokens for _, h, _ in group))
        numbers = {t: k for k, t in enumerate(dict.fromkeys(seen))}
        orders = functools.cache(lambda tokens: _orders(tokens, max_n, numbers))
        top = min(max_n, max(len(h) for _, h, _ in group))
        pad = [_EMPTY] * top
        src = orders(sources[i].tokens)[:top]
        for row in rows:
            padded = [(orders(ref.tokens) + pad, len(ref)) for ref in row]
            rows[row] = [(r, [*map(_surplus, src, r), *pad], n) for r, n in padded]
        draws = {n: reference_draws(cfg, i, n) for n in set(map(len, rows))}
        for k, hyp, row in group:
            h, length = orders(hyp.tokens), len(hyp)
            zeros = (0,) * (max_n - len(h))
            totals = (*range(length, length - len(h), -1), *zeros, length)
            counts = tuple(
                (*_common(h, r), *zeros, *_common(h, u), *zeros, *totals, n)
                for r, u, n in rows[row]
            )
            scores = tuple(_assemble(c, max_n, len(h)) for c in counts)
            out[k] = _score(counts, scores, draws[len(row)])
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
    sentence scores. Iteration ``k`` pools each sentence's counts against
    the reference it drew at ``k``, and the corpus score is the mean over
    iterations: the ``sampled`` mode pools one sampled reference per
    sentence per iteration (a one-sentence corpus reproduces the sentence
    score exactly); in ``mean-over-all`` mode, where each sentence draws
    every reference once, it averages the pooled score over reference
    columns. Every sentence needs as many draws as the first.
    """
    if not stats:
        return 0.0
    max_n, iterations = cfg.max_n, len(stats[0].draws)
    for i, s in enumerate(stats):
        if len(s.draws) != iterations:
            raise ValidationError(
                f"sentence {i} has {len(s.draws)} draws, expected {iterations}"
            )
    # Orders longer than the longest hypothesis count 0 everywhere, so only
    # the other columns are summed. Each column is one big int with a lane
    # per iteration: the sum of the counts against reference 0 in every
    # lane, plus each sentence's change to reference j in the lanes where it
    # drew j. No count exceeds its pair's longer length, so the sum of those
    # lengths bounds every lane, and the lanes never carry into each other.
    top = min(max_n, max(s.counts[0][3 * max_n] for s in stats))
    keep = [k for k in range(3 * max_n + 2) if k % max_n < top or k >= 3 * max_n]
    take = itemgetter(*keep)
    bound = sum(max(max(c[-2:]) for c in s.counts) for s in stats)
    size = max(1, (bound.bit_length() + 7) // 8)
    width = min((w for w in _LANES if w >= size), default=size)
    firsts = [take(s.counts[0]) for s in stats]
    spread, changes = bytearray(width * iterations), [0] * len(keep)
    for s, first in zip(stats, firsts):
        for j in range(1, len(s.counts)):
            deltas = list(map(sub, take(s.counts[j]), first))
            draws = s.draws
            spread[::width] = (draws.translate(_hits(j)) if isinstance(draws, bytes)
                               else bytes(d == j for d in draws))
            mask = int.from_bytes(spread, "little")  # 1 in each lane that drew j
            for c in compress(range(len(keep)), deltas):
                changes[c] += deltas[c] * mask
    spread[::width] = b"\1" * iterations
    ones = int.from_bytes(spread, "little")
    columns = [repeat(0)] * (3 * max_n + 2)
    for k, base, change in zip(keep, map(sum, zip(*firsts)), changes):
        raw = (base * ones + change).to_bytes(width * iterations, "little")
        if width in _LANES:
            columns[k] = struct.unpack(f"<{iterations}{_LANES[width]}", raw)
        else:
            columns[k] = [int.from_bytes(raw[i : i + width], "little")
                          for i in range(0, len(raw), width)]
    return mean_score([_assemble(row, max_n, top) for row in zip(*columns)])


# a draw byte to 1 where it is reference j, else 0
_hits = functools.cache(lambda j: bytes(v == j for v in range(256)))


def gleu_corpus(
    sources: Sequence[Sentence],
    hypotheses: Sequence[Sentence],
    references: Sequence[Sequence[Sentence]],
    cfg: GleuConfig = GleuConfig(),
) -> float:
    """Corpus-level score: :func:`gleu_stats` per sentence, then :func:`gleu_pool`."""
    _check_sizes(sources=sources, hypotheses=hypotheses, references=references)
    items = [(i, hyp, tuple(references[i])) for i, hyp in enumerate(hypotheses)]
    return gleu_pool(gleu_stats_many(sources, items, cfg), cfg)

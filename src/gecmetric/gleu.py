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

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .analysis import mean_score
from .corpus import Sentence
from .errors import ValidationError

__all__ = ["GleuConfig", "GleuStats", "gleu_sentence", "gleu_stats", "gleu_multi_ref",
           "gleu_pool", "gleu_corpus", "SAMPLED", "MEAN_OVER_ALL"]

SAMPLED = "sampled"
MEAN_OVER_ALL = "mean-over-all"


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
        if self.max_n < 1:
            raise ValidationError(f"max_n must be >= 1, got {self.max_n}")
        if self.iterations < 1:
            raise ValidationError(f"iterations must be >= 1, got {self.iterations}")
        if self.multi_ref_mode not in (SAMPLED, MEAN_OVER_ALL):
            raise ValidationError(
                f"multi_ref_mode must be {SAMPLED!r} or {MEAN_OVER_ALL!r}, "
                f"got {self.multi_ref_mode!r}"
            )


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _sentence_stats(
    source: Sentence, hypothesis: Sentence, reference: Sentence, max_n: int
) -> tuple[int, ...]:
    """Hypothesis counts against one reference: the per-order matched,
    source-penalty and total n-gram counts, then the hypothesis and
    reference lengths. Counts of several sentences pool by summing."""
    matched: list[int] = []
    penalty: list[int] = []
    total: list[int] = []
    for n in range(1, max_n + 1):
        c_hyp = _ngrams(hypothesis.tokens, n)
        c_ref = _ngrams(reference.tokens, n)
        c_src = _ngrams(source.tokens, n)
        matched.append(sum(min(c, c_ref[g]) for g, c in c_hyp.items()))
        penalty.append(
            sum(min(c, max(0, c_src[g] - c_ref[g])) for g, c in c_hyp.items())
        )
        total.append(sum(c_hyp.values()))
    return (*matched, *penalty, *total, len(hypothesis), len(reference))


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


def gleu_sentence(
    source: Sentence,
    hypothesis: Sentence,
    reference: Sentence,
    cfg: GleuConfig = GleuConfig(),
) -> float:
    """Score one hypothesis against a single reference. Result is in [0, 1]."""
    counts = _sentence_stats(source, hypothesis, reference, cfg.max_n)
    return _assemble(counts, cfg.max_n)


def _sample_ref_indices(
    n_refs: int, iterations: int, seed: int, sentence_index: int
) -> list[int]:
    """Reference draws for one sentence, independent of scheduling order."""
    rng = random.Random(f"{seed}:{sentence_index}")
    return [rng.randrange(n_refs) for _ in range(iterations)]


class GleuStats(NamedTuple):
    """One hypothesis's statistics against each of its references.

    ``counts[j]`` holds the counts against reference ``j``; ``draws`` is
    the reference drawn at each iteration in ``sampled`` mode and None in
    ``mean-over-all`` mode.
    """

    score: float
    counts: tuple[tuple[int, ...], ...]
    draws: list[int] | None


def gleu_stats(
    source: Sentence,
    hypothesis: Sentence,
    references: Sequence[Sentence],
    cfg: GleuConfig = GleuConfig(),
    sentence_index: int = 0,
) -> GleuStats:
    """Sentence statistics; ``score`` is the multi-reference sentence score."""
    references = tuple(references)
    if not references:
        raise ValidationError("at least one reference is required")
    counts = tuple(
        _sentence_stats(source, hypothesis, ref, cfg.max_n) for ref in references
    )
    scores = [_assemble(c, cfg.max_n) for c in counts]
    if cfg.multi_ref_mode == MEAN_OVER_ALL:
        return GleuStats(mean_score(scores), counts, None)
    draws = _sample_ref_indices(
        len(references), cfg.iterations, cfg.rng_seed, sentence_index
    )
    return GleuStats(mean_score([scores[j] for j in draws]), counts, draws)


def gleu_multi_ref(
    source: Sentence,
    hypothesis: Sentence,
    references: Sequence[Sentence],
    cfg: GleuConfig = GleuConfig(),
    sentence_index: int = 0,
) -> float:
    """Score against multiple references per ``cfg.multi_ref_mode``.

    With a single reference both modes reduce exactly to
    :func:`gleu_sentence`.
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
    return mean_score(
        [pooled([s.draws[k] for s in stats]) for k in range(cfg.iterations)]
    )


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
    for i, row in enumerate(references):
        if not row:
            raise ValidationError(f"sentence {i} has no references")
    stats = [
        gleu_stats(src, hyp, refs, cfg, sentence_index=i)
        for i, (src, hyp, refs) in enumerate(zip(sources, hypotheses, references))
    ]
    return gleu_pool(stats, cfg)

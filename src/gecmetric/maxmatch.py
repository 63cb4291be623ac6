"""Precision/recall of a system's edits against gold annotations.

The scorer does not trust any single alignment: it builds the lattice of
*all* minimal-cost token alignments between source and hypothesis
(Levenshtein with match 0, insert/delete/substitute 1), augments it with
merged phrase edits, and then picks the edit sequence that maximizes
agreement with the gold annotation. Concretely:

1. every edge on any minimal-cost alignment path enters the lattice;
2. for nodes ``u -> v`` connected by a lattice path holding at least one
   edit and at most ``max_unchanged_words`` matched tokens, one merged
   edge is added for the whole span (source span -> hypothesis span);
3. an edit edge costs ``1 + 0.001 * tokens_spanned`` so that fewer and
   smaller edits win ties, minus a fixed reward of 1000 when its
   (span, replacement) exactly equals a gold edit — the reward dwarfs all
   path costs, so gold-matching edits are always preferred;
4. the minimal-cost path through the lattice yields the system edits
   (matched tokens traverse zero-cost diagonal edges and contribute none).

True/false positives then follow from exact (span, replacement) equality
with the gold set, and F_beta favors precision with beta = 0.5 by default.

The gold sets are :attr:`~.corpus.AnnotatedSource.gold`, which holds no
identity edit (replacement equals the source span); scoring logs their count.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import _levenshtein
from .analysis import mean_score
from .corpus import AnnotatedSource, Sentence
from .errors import ValidationError

__all__ = [
    "M2Config",
    "M2SentenceCounts",
    "f_beta",
    "M2Stats",
    "m2_stats",
    "m2_sentence",
    "m2_pool",
    "m2_corpus",
]

log = logging.getLogger(__name__)

_EPS = 0.001  # tie-breaker: prefers fewer and smaller unmatched edits
_GOLD_REWARD = 1000.0  # taken off a gold-matching edit's cost (step 3 above)

_Node = tuple[int, int]
_EditKey = tuple[int, int, tuple[str, ...]]
# (annotator id, gold edit keys) pairs of one unit, by annotator id
_Gold = tuple[tuple[int, frozenset[_EditKey]], ...]


@dataclass(frozen=True)
class M2Config:
    beta: float = 0.5
    max_unchanged_words: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")
        if self.max_unchanged_words < 0:
            raise ValidationError(
                f"max_unchanged_words must be >= 0, got {self.max_unchanged_words}"
            )


@dataclass(frozen=True)
class M2SentenceCounts:
    tp: int
    fp: int
    fn: int
    annotator: int


def f_beta(tp: int, fp: int, fn: int, beta: float = 0.5) -> float:
    """F measure with the zero-denominator conventions P=1 and R=1."""
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * precision * recall / denom


def _build_graph(src: tuple[str, ...], hyp: tuple[str, ...], max_unchanged: int):
    """Lattice of minimal alignments plus merged phrase edges.

    Returns (topo-ordered nodes, adjacency u -> [(v, edit-or-None)]).
    """
    n, m = len(src), len(hyp)
    fwd = _levenshtein.table(src, hyp)
    # distances of suffixes: the table of the reversed sequences, read backwards
    bwd = [row[::-1] for row in reversed(_levenshtein.table(src[::-1], hyp[::-1]))]
    total = fwd[n][m]
    # a minimal path stays within |i - j| <= total, the band where both
    # tables are exact
    nodes = [
        (i, j)
        for i in range(n + 1)
        for j in range(max(0, i - total), min(m, i + total) + 1)
        if fwd[i][j] + bwd[i][j] == total
    ]
    # the elementary edges, at most one per direction out of each node
    adj: dict[_Node, list[tuple[_Node, _EditKey | None]]] = {u: [] for u in nodes}
    for i, j in nodes:
        base, out = fwd[i][j], adj[(i, j)]
        if i < n and j < m:
            cost = 0 if src[i] == hyp[j] else 1
            if base + cost + bwd[i + 1][j + 1] == total:
                out.append(((i + 1, j + 1), None if cost == 0 else (i, i + 1, (hyp[j],))))
        if i < n and base + 1 + bwd[i + 1][j] == total:
            out.append(((i + 1, j), (i, i + 1, ())))
        if j < m and base + 1 + bwd[i][j + 1] == total:
            out.append(((i, j + 1), (i, i, (hyp[j],))))

    topo = sorted(nodes, key=lambda u: (u[0] + u[1], u[0]))
    order = {u: k for k, u in enumerate(topo)}
    for u in nodes:
        # fewest matched tokens on any lattice path u -> v, pruned at
        # budget; reached nodes (u and nodes after it, whose edges are
        # still elementary) are relaxed in topological order
        fewest: dict[_Node, int] = {u: 0}
        queue = [order[u]]
        while queue:
            x = topo[heapq.heappop(queue)]
            got = fewest[x]
            for v, edit in adj[x]:
                matches = got + (1 if edit is None else 0)
                if matches > max_unchanged:
                    continue
                if v not in fewest:
                    fewest[v] = matches
                    heapq.heappush(queue, order[v])
                elif matches < fewest[v]:
                    fewest[v] = matches
        ui, uj = u
        for (vi, vj), matches in fewest.items():
            # a pure-match stretch has nothing to merge, and the merged
            # edge to an adjacent node is the elementary edge already there
            if fwd[vi][vj] - fwd[ui][uj] < 1 or (vi - ui <= 1 and vj - uj <= 1):
                continue
            adj[u].append(((vi, vj), (ui, vi, tuple(hyp[uj:vj]))))
    return topo, adj


def _best_edits(lattice, gold: frozenset[_EditKey]) -> list[_EditKey]:
    """The cheapest path through a :func:`_build_graph` lattice against ``gold``."""
    topo, adj = lattice
    start, goal = topo[0], topo[-1]
    dist: dict[_Node, float] = {start: 0.0}
    back: dict[_Node, tuple[_Node, _EditKey | None]] = {}
    for u in topo:  # every node lies on a minimal path, so ``dist`` reaches it
        du = dist[u]
        for v, edit in adj[u]:
            if edit is None:
                weight = 0.0
            else:
                e_start, e_end, repl = edit
                weight = 1.0 + _EPS * ((e_end - e_start) + len(repl))
                if edit in gold:
                    weight -= _GOLD_REWARD
            cand = du + weight
            if cand < dist.get(v, math.inf):
                dist[v] = cand
                back[v] = (u, edit)
    edits: list[_EditKey] = []
    node = goal
    while node != start:
        node, edit = back[node]
        if edit is not None:
            edits.append(edit)
    edits.reverse()
    return edits


def _warn_identity(units: Sequence[AnnotatedSource]) -> None:
    """One warning giving how many identity gold edits ``units`` left out."""
    ignored = sum(unit.identity for unit in units)
    if ignored:
        log.warning("ignored %d identity gold edit(s): replacement equals the "
                    "source span", ignored)


class M2Stats(NamedTuple):
    """One hypothesis's edit counts against each annotator, by annotator
    id; ``score`` is the F_beta of the best annotator."""

    score: float
    counts: tuple[M2SentenceCounts, ...]


def m2_stats(
    source: Sentence,
    hypothesis: Sentence,
    gold: _Gold,
    cfg: M2Config = M2Config(),
) -> M2Stats:
    """Sentence statistics against one unit's ``AnnotatedSource.gold``.

    One lattice serves every annotator. An unchanged hypothesis builds
    none: its only minimal path is the all-match diagonal, which holds no
    edit, so it scores tp = fp = 0 against every annotator.
    """
    if not gold:
        raise ValidationError("at least one annotation set is required")
    lattice = None
    if hypothesis != source:
        lattice = _build_graph(source.tokens, hypothesis.tokens, cfg.max_unchanged_words)
    counts = []
    for annotator, keys in gold:
        system = [] if lattice is None else _best_edits(lattice, keys)
        found = set(system)
        tp = len([g for g in keys if g in found])
        fp = len([e for e in system if e not in keys])
        counts.append(M2SentenceCounts(tp, fp, len(keys) - tp, annotator))
    score = max(f_beta(c.tp, c.fp, c.fn, cfg.beta) for c in counts)
    return M2Stats(score, tuple(counts))


def m2_sentence(
    source: Sentence,
    hypothesis: Sentence,
    gold: _Gold,
    cfg: M2Config = M2Config(),
) -> tuple[M2SentenceCounts, float]:
    """Score one sentence against ``gold``, choosing the annotator that
    maximizes F_beta.

    Ties go to the lowest annotator id. ``tp + fn`` always equals the
    number of gold edits of the chosen annotator.
    """
    stats = m2_stats(source, hypothesis, gold, cfg)
    best = max(stats.counts, key=lambda c: f_beta(c.tp, c.fp, c.fn, cfg.beta))
    return best, stats.score


def m2_pool(stats: Sequence[M2Stats], cfg: M2Config = M2Config()) -> float:
    """F_beta of tp/fp/fn pooled over sentences.

    Sentence by sentence, the annotator that maximizes the *running*
    cumulative F_beta is picked (ties to the lowest id) — the convention
    of edit-based shared-task scoring, which can diverge substantially
    from the sentence mean.
    """
    tp = fp = fn = 0
    for s in stats:
        best = max(
            s.counts, key=lambda c: f_beta(tp + c.tp, fp + c.fp, fn + c.fn, cfg.beta)
        )
        tp, fp, fn = tp + best.tp, fp + best.fp, fn + best.fn
    return f_beta(tp, fp, fn, cfg.beta)


def m2_corpus(
    units: Sequence[AnnotatedSource],
    hypotheses: Sequence[Sentence],
    cfg: M2Config = M2Config(),
    mode: str = "corpus",
) -> float:
    """Corpus score: the mean of sentence scores in ``sentence`` mode,
    :func:`m2_pool` of the sentence statistics in ``corpus`` mode."""
    if len(units) != len(hypotheses):
        raise ValidationError(
            f"size mismatch: {len(units)} sources, {len(hypotheses)} hypotheses"
        )
    if not units:
        raise ValidationError("empty corpus")
    if mode not in ("sentence", "corpus"):
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    _warn_identity(units)
    stats = [m2_stats(u.source, hyp, u.gold, cfg) for u, hyp in zip(units, hypotheses)]
    if mode == "sentence":
        return mean_score([s.score for s in stats])
    return m2_pool(stats, cfg)

"""Precision/recall of a system's edits against gold annotations.

The scorer does not trust any single alignment: it builds the lattice of
*all* minimal-cost token alignments between source and hypothesis
(Levenshtein with match 0, insert/delete/substitute 1), augments it with
merged phrase edits, and then picks the edit sequence that maximizes
agreement with the gold annotation. Concretely:

1. every edge on any minimal-cost alignment path enters the lattice.
   Only the stretch between the common prefix and suffix of source and
   hypothesis is built, with ``max_unchanged_words + 1`` of their matched
   tokens kept on each side. Cutting an end is exact when every minimal
   path runs along the cut diagonal, which then holds only match edges,
   and no merged edge reaches into it. The stretch's lattice shows both:
   no node on its first row or column but the first, whose only edge is
   a match; nothing but the end diagonal in its last
   ``max_unchanged_words + 1`` rows and columns. An end that fails is
   not cut;
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
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

from . import _levenshtein
from ._config import M2Config
from .analysis import _check_sizes, _reducer
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
    """Lattice of minimal alignments plus merged phrase edges, between the
    kept unchanged ends (step 1 of the module docstring).

    Returns (topo-ordered nodes, adjacency u -> [(v, edit-or-None)]).
    """
    prefix, suffix = _levenshtein.common_ends(src, hyp)
    keep = max_unchanged + 1
    lo, cut = max(prefix - keep, 0), max(suffix - keep, 0)
    while True:
        topo, adj = _lattice(src, hyp, max_unchanged, lo, cut)
        # a cut start fails if the first node has an edge besides a match
        # or another node lies on its row or column; a cut end fails if a
        # node of the last ``keep`` rows and columns is off the end diagonal
        ei, ej = topo[-1]
        start_fails = lo and (adj[topo[0]] != [((lo + 1, lo + 1), None)]
                              or any(i == lo or j == lo for i, j in topo[1:]))
        end_fails = cut and any(ei - i != ej - j for i, j in topo
                                if i > ei - keep or j > ej - keep)
        if not (start_fails or end_fails):
            return topo, adj
        lo, cut = (0 if start_fails else lo), (0 if end_fails else cut)


def _lattice(
    src: tuple[str, ...], hyp: tuple[str, ...], max_unchanged: int, lo: int, cut: int
):
    """The :func:`_build_graph` lattice of ``src[lo:len(src) - cut]`` and
    ``hyp[lo:len(hyp) - cut]``, in sentence coordinates."""
    s, h = src[lo:len(src) - cut], hyp[lo:len(hyp) - cut]
    n, m = len(s), len(h)
    fwd = _levenshtein.table(s, h)
    # the nodes: every cell that minimal steps lead back to from the end
    # (the table is exact on minimal paths and never below the distance
    # elsewhere, so a step that looks minimal is one)
    nodes = {(n, m)}
    stack = [(n, m)]
    while stack:
        i, j = stack.pop()
        here = fwd[i][j]
        for pi, pj in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
            if pi < 0 or pj < 0 or (pi, pj) in nodes:
                continue
            step = 1 if pi == i or pj == j else s[pi] != h[pj]
            if fwd[pi][pj] + step == here:
                nodes.add((pi, pj))
                stack.append((pi, pj))
    cells = sorted(nodes, key=lambda u: (u[0] + u[1], u[0]))
    # the elementary edges, at most one per direction out of each node, and
    # the fewest matched tokens before the first edit on a path from it
    adj: dict[_Node, list[tuple[_Node, _EditKey | None]]] = {}
    near: dict[_Node, float] = {}
    for i, j in reversed(cells):
        here, x, y = fwd[i][j], i + lo, j + lo
        out = adj[(x, y)] = []
        to_edit = math.inf
        if (i + 1, j + 1) in nodes:
            if s[i] == h[j]:
                out.append(((x + 1, y + 1), None))
                to_edit = near[(x + 1, y + 1)] + 1
            elif fwd[i + 1][j + 1] == here + 1:
                out.append(((x + 1, y + 1), (x, x + 1, (h[j],))))
                to_edit = 0
        if (i + 1, j) in nodes and fwd[i + 1][j] == here + 1:
            out.append(((x + 1, y), (x, x + 1, ())))
            to_edit = 0
        if (i, j + 1) in nodes and fwd[i][j + 1] == here + 1:
            out.append(((x, y + 1), (x, x, (h[j],))))
            to_edit = 0
        near[(x, y)] = to_edit

    topo = [(i + lo, j + lo) for i, j in cells]
    order = {u: k for k, u in enumerate(topo)}
    for u in topo:
        if near[u] > max_unchanged:
            continue  # no edit within budget: nothing to merge
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
            if (fwd[vi - lo][vj - lo] - fwd[ui - lo][uj - lo] < 1
                    or (vi - ui <= 1 and vj - uj <= 1)):
                continue
            adj[u].append(((vi, vj), (ui, vi, tuple(hyp[uj:vj]))))
    return topo, adj


def _best_edits(lattice, golds: Sequence[frozenset]) -> Iterator[list[_EditKey]]:
    """The cheapest path through a :func:`_build_graph` lattice against
    each gold set of ``golds``, in turn."""
    topo, adj = lattice
    number = {u: k for k, u in enumerate(topo)}
    # the edges as (start node number, end node number, edit), in topological
    # order of their start, and their weights before the gold reward
    edges = [(number[u], number[v], edit) for u in topo for v, edit in adj[u]]
    base = [0.0 if edit is None else 1.0 + _EPS * ((edit[1] - edit[0]) + len(edit[2]))
            for _, _, edit in edges]
    paths: dict[tuple[int, ...], list[_EditKey]] = {}  # by the gold edges rewarded
    for gold in golds:
        hits = tuple(k for k, (_, _, edit) in enumerate(edges) if edit in gold)
        if hits not in paths:
            weights = base.copy()
            for k in hits:
                weights[k] = base[k] - _GOLD_REWARD
            dist = [0.0] + [math.inf] * (len(topo) - 1)
            back = [0] * len(topo)  # the edge each node is reached by
            for k, (u, v, _) in enumerate(edges):
                cand = dist[u] + weights[k]
                if cand < dist[v]:
                    dist[v] = cand
                    back[v] = k
            edits = paths[hits] = []
            node = len(topo) - 1
            while node:
                node, _, edit = edges[back[node]]
                if edit is not None:
                    edits.append(edit)
            edits.reverse()
        yield paths[hits]


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

    One weighed lattice serves every annotator. An unchanged hypothesis
    builds none: its only minimal path is the all-match diagonal, which
    holds no edit, so it scores tp = fp = 0 against every annotator.
    """
    if not gold:
        raise ValidationError("at least one annotation set is required")
    systems = repeat([])
    if hypothesis != source:
        lattice = _build_graph(source.tokens, hypothesis.tokens, cfg.max_unchanged_words)
        systems = _best_edits(lattice, [keys for _, keys in gold])
    counts = []
    for (annotator, keys), system in zip(gold, systems):
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
    _check_sizes(sources=units, hypotheses=hypotheses)
    reduce = _reducer(len(units), lambda stats: m2_pool(stats, cfg), mode)
    _warn_identity(units)
    return reduce([m2_stats(u.source, hyp, u.gold, cfg) for u, hyp in zip(units, hypotheses)])

"""The banded Levenshtein table, and the cut at the unchanged ends,
against the full tables of whole sentences.

``table`` is exact on every cell of a minimal path and never below the
true distance elsewhere; the M2 lattice and the I-measure alignment read
nothing else, so they come out the same as with the full table. Both are
built only between the unchanged ends where that is exact, and over the
whole sentence where it is not; either way they equal the whole-sentence
references node for node, edge for edge and token for token.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmetric import _levenshtein, imeasure, maxmatch
from gecmetric.corpus import Sentence
from oracles import full_table, whole_sentence_align, whole_sentence_classify


def reference_build_graph(src, hyp, max_unchanged):
    """The M2 lattice built from full tables, scanning every node in
    topological order for each start node."""
    n, m = len(src), len(hyp)
    fwd = full_table(src, hyp)
    bwd = [row[::-1] for row in reversed(full_table(src[::-1], hyp[::-1]))]
    total = fwd[n][m]
    nodes = [
        (i, j)
        for i in range(n + 1)
        for j in range(m + 1)
        if fwd[i][j] + bwd[i][j] == total
    ]
    elem = {u: [] for u in nodes}
    seen = set()

    def add(u, v, edit):
        if (u, v, edit) not in seen:
            seen.add((u, v, edit))
            elem[u].append((v, edit))

    for i, j in nodes:
        base = fwd[i][j]
        if i < n and j < m:
            cost = 0 if src[i] == hyp[j] else 1
            if base + cost + bwd[i + 1][j + 1] == total:
                add((i, j), (i + 1, j + 1), None if cost == 0 else (i, i + 1, (hyp[j],)))
        if i < n and base + 1 + bwd[i + 1][j] == total:
            add((i, j), (i + 1, j), (i, i + 1, ()))
        if j < m and base + 1 + bwd[i][j + 1] == total:
            add((i, j), (i, j + 1), (i, i, (hyp[j],)))

    topo = sorted(nodes, key=lambda u: (u[0] + u[1], u[0]))
    order = {u: k for k, u in enumerate(topo)}
    adj = {u: list(edges) for u, edges in elem.items()}
    for u in nodes:
        fewest = {u: 0}
        for x in topo[order[u]:]:
            got = fewest.get(x)
            if got is None:
                continue
            for v, edit in elem[x]:
                matches = got + (1 if edit is None else 0)
                if matches <= max_unchanged and matches < fewest.get(v, matches + 1):
                    fewest[v] = matches
        for (vi, vj), matches in fewest.items():
            if fwd[vi][vj] - fwd[u[0]][u[1]] < 1:
                continue
            edit = (u[0], vi, tuple(hyp[u[1]:vj]))
            if (u, (vi, vj), edit) not in seen:
                seen.add((u, (vi, vj), edit))
                adj[u].append(((vi, vj), edit))
    return topo, adj


def with_ends(lattice, src, hyp):
    """A :func:`maxmatch._build_graph` lattice with the unchanged diagonal
    ends it leaves out put back, as the whole-sentence lattice holds them."""
    topo, adj = lattice
    (lo, _), end = topo[0], topo[-1]
    head = [(k, k) for k in range(lo)]
    tail = [(end[0] + k, end[1] + k) for k in range(1, len(src) - end[0] + 1)]
    full = {u: [((u[0] + 1, u[1] + 1), None)] for u in head}
    full.update(adj)
    for u, v in zip([end] + tail, tail):
        full[u] = full.get(u, []) + [(v, None)]
    full.update((u, []) for u in tail[-1:])
    return head + topo + tail, full


def _edited(rng, tokens, vocab, n_edits):
    out = list(tokens)
    for _ in range(n_edits):
        at = rng.randrange(len(out) + 1)
        kind = rng.randrange(3)
        if kind == 0 or not out or at == len(out):
            out.insert(at, rng.choice(vocab))
        elif kind == 1:
            del out[at]
        else:
            out[at] = rng.choice(vocab)
    return tuple(out)


def _pairs():
    rng = random.Random(3)
    words = tuple("abcdefgh")
    pairs = [
        ((), ()),
        ((), ("a",)),
        (("a", "b"), ()),
        ((), tuple("abcabc")),
        (tuple("abcd"), tuple("wxyz")),
        (tuple("abcdefg"), tuple("uvwxyz")),
        (("a",) * 9, ("a",) * 4),
        (("a", "b") * 8, ("b", "a") * 8),
        (tuple("xbcdefghy"), tuple("bcdefgh")),
        (tuple("bcdefgh"), tuple("xbcdefghy")),
        (tuple("abcdefghij"), tuple("zbcdefghiz")),
        (("w",) * 60, ("v",) * 60),
    ]
    for _ in range(300):
        vocab = words[: rng.choice((2, 3, 8))]
        a = tuple(rng.choice(vocab) for _ in range(rng.randrange(61)))
        if rng.random() < 0.5:
            b = _edited(rng, a, vocab, rng.randrange(9))
        else:
            b = tuple(rng.choice(vocab) for _ in range(rng.randrange(61)))
        pairs.append((a, b))
    return pairs


PAIRS = _pairs()


def test_banded_table_is_exact_on_every_minimal_path():
    retries = 0
    for a, b in PAIRS:
        full = full_table(a, b)
        back = [row[::-1] for row in reversed(full_table(a[::-1], b[::-1]))]
        total = full[-1][-1]
        banded = _levenshtein.table(a, b)
        assert len(banded) == len(a) + 1 and {len(row) for row in banded} == {len(b) + 1}
        for i, (row, exact, rest) in enumerate(zip(banded, full, back)):
            for j, value in enumerate(row):
                if exact[j] + rest[j] == total:
                    assert value == exact[j], (a, b, i, j)
                else:
                    assert value >= exact[j], (a, b, i, j)
        retries += total > max(abs(len(a) - len(b)), 2)
    assert retries > 10  # the cases exercise a band that is too narrow


def test_table_outside_the_band_exceeds_any_distance():
    a, b = tuple("abcdefghij"), tuple("abcdefghik")
    d = _levenshtein.table(a, b)
    assert d[10][10] == 1
    assert d[0][10] == d[10][0] == len(a) + len(b) + 1


@pytest.mark.parametrize("max_unchanged", [0, 2])
def test_lattice_equals_the_full_table_lattice(max_unchanged):
    for a, b in PAIRS:
        assert with_ends(maxmatch._build_graph(a, b, max_unchanged), a, b) == (
            reference_build_graph(a, b, max_unchanged)
        ), (a, b)


def test_alignment_equals_the_full_table_alignment(monkeypatch):
    banded = [imeasure._align(a, b) for a, b in PAIRS]
    monkeypatch.setattr(_levenshtein, "table", full_table)
    assert banded == [imeasure._align(a, b) for a, b in PAIRS]


def _assert_matches_whole_sentence(src, hyp, ref, max_unchanged):
    """The lattice, both alignments and the I-measure statistics of
    ``hyp`` (and ``ref``) against ``src`` equal the whole-sentence ones."""
    assert with_ends(maxmatch._build_graph(src, hyp, max_unchanged), src, hyp) == (
        reference_build_graph(src, hyp, max_unchanged)
    )
    for b in (hyp, ref):
        partner, gaps, (lo, hi) = imeasure._align(src, b)
        assert (partner, gaps) == whole_sentence_align(src, b)
        assert all(partner[i] == src[i] for i in range(len(src)) if not lo <= i < hi)
        assert all(not gaps[i] for i in range(len(src) + 1) if not lo <= i < hi)
    stats = imeasure.i_measure_stats(Sentence(src), Sentence(hyp), (Sentence(ref),))
    ref_alignment = whole_sentence_align(src, ref)
    system = whole_sentence_classify(src, ref_alignment, whole_sentence_align(src, hyp))
    baseline = whole_sentence_classify(src, ref_alignment, whole_sentence_align(src, src))
    assert (stats.system, stats.baseline) == (system, baseline)


@st.composite
def _edited_triples(draw):
    """A source of 0-30 tokens over a 2- or 3-token alphabet, and two
    copies of it with 1-5 random inserts, deletions and substitutions."""
    vocab = draw(st.sampled_from(("ab", "abc")))
    token = st.sampled_from(vocab)
    src = draw(st.lists(token, max_size=30))
    copies = []
    for _ in range(2):
        out = list(src)
        for _ in range(draw(st.integers(1, 5))):
            at = draw(st.integers(0, len(out)))
            kind = draw(st.sampled_from(("insert", "delete", "substitute")))
            if kind == "insert" or at == len(out):
                out.insert(at, draw(token))
            elif kind == "delete":
                del out[at]
            else:
                out[at] = draw(token)
        copies.append(tuple(out))
    return (tuple(src), *copies)


@given(_edited_triples(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_cut_equals_the_whole_sentence(triple, max_unchanged):
    _assert_matches_whole_sentence(*triple, max_unchanged)


@pytest.mark.parametrize("max_unchanged", [0, 1, 2, 3])
def test_cut_traps(max_unchanged):
    """A sliding deletion that a fixed 3-token margin would move, and a
    region whose first node has its own insert edge."""
    for src, hyp in [
        (tuple("aabbbbbaabb"), tuple("aabbbbaabbc")),
        (tuple("ab"), tuple("abb")),
    ]:
        _assert_matches_whole_sentence(src, hyp, hyp, max_unchanged)


def test_cuts_are_kept_and_refused(monkeypatch):
    """Over the pairs here, the lattice and the alignment each keep their
    cut for some pairs and fall back to the whole sentence for others."""
    lattice, backtrace = maxmatch._lattice, imeasure._backtrace
    builds, backtraces = [], []

    def counted_lattice(*args):
        builds.append(any(args[3:]))  # the margins cut off
        return lattice(*args)

    def counted_backtrace(a, b):
        backtraces.append(len(a))
        return backtrace(a, b)

    monkeypatch.setattr(maxmatch, "_lattice", counted_lattice)
    monkeypatch.setattr(imeasure, "_backtrace", counted_backtrace)
    outcomes = set()
    pairs = PAIRS + [(tuple("aabbbbbaabb"), tuple("aabbbbaabbc")), (tuple("ab"), tuple("abb"))]
    for a, b in pairs:
        builds.clear()
        maxmatch._build_graph(a, b, 2)
        if builds[0]:
            outcomes.add(("lattice", "kept" if builds == [True] else "refused"))
        backtraces.clear()
        imeasure._align(a, b)
        if _levenshtein.common_ends(a, b)[0] > 1 and backtraces:
            outcomes.add(("align", "kept" if len(backtraces) == 1 else "refused"))
    assert outcomes == {(side, way) for side in ("lattice", "align") for way in ("kept", "refused")}

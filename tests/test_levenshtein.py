"""The banded Levenshtein table against the full table it replaced.

``table`` is exact on every cell of a minimal path and never below the
true distance elsewhere; the M2 lattice and the I-measure alignment read
nothing else, so they come out the same as with the full table.
"""

import random

import pytest

from gecmetric import _levenshtein, imeasure, maxmatch


def full_table(a, b):
    """Every cell of the edit-distance table (the reference)."""
    d = [list(range(len(b) + 1))]
    for i, x in enumerate(a, 1):
        prev, row = d[-1], [i]
        for j, y in enumerate(b, 1):
            row.append(min(prev[j - 1] + (x != y), prev[j] + 1, row[j - 1] + 1))
        d.append(row)
    return d


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
        assert maxmatch._build_graph(a, b, max_unchanged) == reference_build_graph(
            a, b, max_unchanged
        ), (a, b)


def test_alignment_equals_the_full_table_alignment(monkeypatch):
    banded = [imeasure._align(a, b) for a, b in PAIRS]
    monkeypatch.setattr(_levenshtein, "table", full_table)
    assert banded == [imeasure._align(a, b) for a, b in PAIRS]

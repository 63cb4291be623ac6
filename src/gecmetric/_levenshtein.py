"""The token-level Levenshtein table shared by the edit-based metrics."""

from __future__ import annotations

from typing import Sequence


def table(a: Sequence[str], b: Sequence[str]) -> list[list[int]]:
    """``d[i][j]``: edit distance between ``a[:i]`` and ``b[:j]`` with unit
    insert, delete and substitute costs."""
    d = [list(range(len(b) + 1))]
    for i, x in enumerate(a, 1):
        prev, row = d[-1], [i]
        left = i
        for j, y in enumerate(b):
            if x == y:
                # neighbouring cells differ by at most 1, so a match is
                # never beaten by an insertion or a deletion
                left = prev[j]
            else:
                up, diag = prev[j + 1], prev[j]
                best = diag if diag < up else up
                left = (best if best < left else left) + 1
            row.append(left)
        d.append(row)
    return d

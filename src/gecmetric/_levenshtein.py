"""The token-level Levenshtein table shared by the edit-based metrics."""

from __future__ import annotations

from typing import Sequence


def table(a: Sequence[str], b: Sequence[str]) -> list[list[int]]:
    """``d[i][j]``: edit distance between ``a[:i]`` and ``b[:j]`` with unit
    insert, delete and substitute costs, exact on every cell of a minimal
    path from ``(0, 0)`` to ``(len(a), len(b))``, and never below the
    true distance elsewhere; ``d[len(a)][len(b)]`` is exact.

    Only the band ``|i - j| <= k`` is computed (Ukkonen 1985): a path
    costs at least its largest ``|i - j|``, so a minimal path lies inside
    the band once ``k`` reaches the distance. Cells outside the band hold
    ``len(a) + len(b) + 1``, more than any distance. ``k`` starts at the
    length difference (at least 2: most corrections are one or two edits)
    and doubles until the band's ``d[len(a)][len(b)]`` is at most ``k``,
    which makes it exact.
    """
    n, m = len(a), len(b)
    k = max(abs(n - m), 2)
    while True:
        d = _banded(a, b, k)
        if d[n][m] <= k or k >= max(n, m):
            return d
        k *= 2


def common_ends(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """``(p, s)``: the length of the common prefix of ``a`` and ``b``, and
    of the common suffix of what follows it, so ``p + s`` is at most
    ``min(len(a), len(b))``. Stripping equal ends keeps distances: the
    distance between ``a[:p + i]`` and ``b[:p + j]`` is that between
    ``a[p:p + i]`` and ``b[p:p + j]``, and likewise for suffixes."""
    short = min(len(a), len(b))
    p = 0
    while p < short and a[p] == b[p]:
        p += 1
    s, i, j = 0, len(a) - 1, len(b) - 1
    while s < short - p and a[i - s] == b[j - s]:
        s += 1
    return p, s


def _banded(a: Sequence[str], b: Sequence[str], k: int) -> list[list[int]]:
    """The minimal cost of reaching each cell by paths inside the band
    ``|i - j| <= k``; see :func:`table`."""
    n, m = len(a), len(b)
    far = n + m + 1
    hi = min(m, k)  # the band's last column in the current row
    row = list(range(hi + 1)) + [far] * (m - hi)
    d = [row]
    for i, x in enumerate(a, 1):
        prev, row = row, [far] * (m + 1)
        if i <= k:
            row[0] = left = i
            lo = 1
        else:
            left, lo = far, i - k
        if hi < m:
            hi += 1
        for j in range(lo, hi + 1):
            if x == b[j - 1]:
                # neighbouring cells differ by at most 1, so a match is
                # never beaten by an insertion or a deletion
                left = prev[j - 1]
            else:
                up, diag = prev[j], prev[j - 1]
                best = diag if diag < up else up
                left = (best if best < left else left) + 1
            row[j] = left
        d.append(row)
    return d

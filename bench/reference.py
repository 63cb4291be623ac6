"""A fixed pure-Python job timed next to the measured commands.

The job does the same kinds of work as gecmetric's metrics (n-gram
counting in dicts, Levenshtein tables in lists, sorting tuples) on
inputs that never change, so its time tracks how fast the machine runs
Python right now, independent of the program under test.

Run: ``python3 bench/reference.py`` prints ``{"seconds": ..., "checksum": ...}``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter


def _levenshtein(a, b) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def work() -> int:
    rng = random.Random(0)
    vocab = [f"w{i}" for i in range(3000)]
    sentences = [tuple(rng.choice(vocab) for _ in range(rng.randint(5, 40)))
                 for _ in range(1500)]
    counts: Counter = Counter()
    for s in sentences:
        for n in range(1, 5):
            for i in range(len(s) - n + 1):
                counts[s[i:i + n]] += 1
    checksum = len(counts) + sorted(counts.items())[-1][1]
    return checksum + sum(_levenshtein(a, b) for a, b in zip(sentences[:250], sentences[1:251]))


def main() -> int:
    start = time.perf_counter()
    checksum = work()
    print(json.dumps({"seconds": time.perf_counter() - start, "checksum": checksum}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

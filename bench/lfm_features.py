"""Write the LFM training table for the benchmark's set-up.

Featurizes clean references (target 1) and erroneous sources (target
1 - edits/tokens) with gecmetric's own LM and feature code, so that
``gecmetric train-lfm`` fits a model on the same feature scales it will
score. Runs as a child process so the harness never imports gecmetric.

Run: ``PYTHONPATH=src python3 bench/lfm_features.py LM WORDS SRC REF OUT``
"""

from __future__ import annotations

import sys

from gecmetric.formats import read_parallel_text
from gecmetric.grammaticality import Wordlist
from gecmetric.lfm import FEATURE_NAMES, featurize, train_lm

ROWS = 400


def main(lm_path: str, words_path: str, src_path: str, ref_path: str, out: str) -> int:
    lm = train_lm(read_parallel_text(lm_path))
    wordlist = Wordlist.from_file(words_path)
    sources = read_parallel_text(src_path)[:ROWS]
    refs = read_parallel_text(ref_path)[:ROWS]
    lines = ["\t".join(FEATURE_NAMES + ("fluency",))]
    for src, ref in zip(sources, refs):
        changed = sum(a != b for a, b in zip(src.tokens, ref.tokens))
        changed += abs(len(src) - len(ref))
        for sentence, target in ((ref, 1.0), (src, 1.0 - changed / max(1, len(src)))):
            values = featurize(sentence, lm, wordlist).as_tuple() + (target,)
            lines.append("\t".join(repr(float(v)) for v in values))
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""Correctness checks on the reports the benchmark makes the CLI write.

Each check returns a list of problems; an invocation whose list is not
empty counts as failed. The oracle check compares a seeded sample of
per-sentence values with the independent implementations in
``tests/oracles.py``, which is loaded read-only from the checkout.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
from pathlib import Path

LAMBDA_POINTS = 101
RANGES = {
    "gleu": (0.0, 1.0),
    "m2": (0.0, 1.0),
    "imeasure": (-1.0, 1.0),
    "errorcount": (0.0, 1.0),
    "lfm": (0.0, 1.0),
}
CORRELATION = (-1.0, 1.0)
# Reports carry six significant digits.
TOLERANCE = 5e-6
ORACLE_SAMPLE = 12
M2_ORACLE_MAX_TOKENS = 12


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_range(value, lo, hi) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and lo - TOLERANCE <= value <= hi + TOLERANCE)


def check_report(raw: bytes, expected_systems, metrics, n_sentences: int,
                 sweep: bool) -> tuple[list[str], dict | None]:
    """Structure and range checks; returns (problems, parsed report)."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"report is not valid JSON: {exc}"], None
    problems = []
    entries = doc.get("systems") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        return ["report has no systems list"], None
    seen = {(e.get("id"), e.get("metric")) for e in entries if isinstance(e, dict)}
    want = {(sid, metric) for sid in expected_systems for metric in metrics}
    if seen != want or len(entries) != len(want):
        problems.append(f"systems cover {sorted(seen)}, expected {sorted(want)}")
    for entry in entries:
        lo, hi = RANGES.get(entry.get("metric"), (math.nan, math.nan))
        per = entry.get("per_sentence")
        if not isinstance(per, list) or len(per) != n_sentences:
            problems.append(f"{entry.get('id')}: per_sentence does not cover "
                            f"{n_sentences} sentences")
            continue
        bad = [v for v in per if not _in_range(v, lo, hi)]
        if bad:
            problems.append(f"{entry.get('id')} {entry.get('metric')}: "
                            f"{len(bad)} values outside [{lo}, {hi}]")
        for key in ("mean_sentence_score", "corpus_score"):
            value = entry.get(key)
            if value is None and key == "corpus_score" and entry.get("metric") == "lfm":
                continue
            if not _in_range(value, lo, hi):
                problems.append(f"{entry.get('id')}: {key} {value!r} out of range")
    if sweep:
        problems.extend(_check_sweep(doc))
    return problems, doc


def _check_sweep(doc: dict) -> list[str]:
    section = doc.get("sweep")
    if not isinstance(section, dict):
        return ["report has no sweep section"]
    points = section.get("points")
    if not isinstance(points, list) or len(points) != LAMBDA_POINTS:
        return [f"sweep has {len(points) if isinstance(points, list) else 0} "
                f"points, expected {LAMBDA_POINTS}"]
    problems = []
    values = [p.get(k) for p in points for k in ("spearman", "pearson")]
    values += [section.get("oracle_spearman"), section.get("oracle_pearson")]
    for row in section.get("gaming", []):
        values += [v for k, v in row.items() if k.endswith(("mean", "drop"))]
    for point in doc.get("ablation", []):
        values += list(point.get("per_trial", [])) + [point.get("mean_oracle_spearman")]
    if not all(_in_range(v, *CORRELATION) for v in values):
        problems.append("sweep, gaming or ablation value outside [-1, 1] or not finite")
    return problems


def check_oracles(doc: dict, oracles, inputs: dict, seed: int) -> list[str]:
    """Per-sentence GLEU must lie within the per-reference oracle scores;
    per-sentence M2 must equal the F of the oracle's best annotator."""
    problems = []
    rng = random.Random(f"{seed}:bench:oracle")
    source, refs = inputs["source"], inputs["refs"]
    for entry in doc.get("systems", []):
        metric, hyps = entry["metric"], inputs["systems"].get(entry["id"])
        if metric == "gleu":
            picks = rng.sample(range(len(source)), ORACLE_SAMPLE)
            for i in picks:
                scores = [oracles.gleu_reference(source[i], hyps[i], r[i]) for r in refs]
                value = entry["per_sentence"][i]
                if not min(scores) - TOLERANCE <= value <= max(scores) + TOLERANCE:
                    problems.append(f"{entry['id']} sentence {i}: gleu {value} "
                                    f"outside oracle [{min(scores)}, {max(scores)}]")
        elif metric == "m2":
            small = [i for i in range(len(source))
                     if len(source[i]) <= M2_ORACLE_MAX_TOKENS
                     and len(hyps[i]) <= M2_ORACLE_MAX_TOKENS]
            for i in rng.sample(small, min(ORACLE_SAMPLE, len(small))):
                allowed = _m2_oracle_scores(oracles, source[i], hyps[i], inputs["gold"][i])
                value = entry["per_sentence"][i]
                if not any(abs(value - f) <= TOLERANCE for f in allowed):
                    problems.append(f"{entry['id']} sentence {i}: m2 {value} "
                                    f"not among oracle scores {sorted(allowed)}")
    return problems


def _m2_oracle_scores(oracles, source, hypothesis, gold) -> set[float]:
    """Every per-sentence F the best-annotator rule can give, over the
    oracle's tied count triples for each annotator."""
    per_annotator = [
        {oracles.f_beta_reference(*counts)
         for counts in oracles.m2_reference_count_set(
             source, hypothesis, [(s, e, repl) for s, e, repl, _ in edits])}
        for edits in gold
    ]
    return {max(combo) for combo in itertools.product(*per_annotator)}

"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each criterion states its own tolerance and, where relevant, its time
budget; the assertions enforce both.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import _synthetic
from gecmetric import analysis
from gecmetric.analysis import (
    LAMBDA_GRID,
    compare_correlations,
    fisher_z,
    gaming_check,
    gaming_permutation,
    interpolate_value,
    pearson,
    rank_systems,
    spearman,
    sweep_lambda,
)
from gecmetric.cli import main
from gecmetric.corpus import AnnotatedSource, Sentence, tokenize
from gecmetric.gleu import MEAN_OVER_ALL, GleuConfig, gleu_corpus, gleu_multi_ref, gleu_stats
from gecmetric.grammaticality import (
    BUILT_IN,
    DetectorSuite,
    RuleDetector,
    Wordlist,
    build_default_suite,
    error_count_corpus,
    error_count_score,
)
from gecmetric.imeasure import IMeasureConfig, i_measure_corpus, i_measure_sentence
from gecmetric.lfm import save_lfm_model, train_ridge
from gecmetric.maxmatch import M2Config, m2_corpus, m2_sentence
from oracles import gleu_reference, m2_reference_count_set

VOCAB = ["a", "b", "c"]


def _report(index: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {index:2d}: {'PASS' if ok else 'FAIL'}  {label}  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. n-gram metric vs the independent reimplementation


def test_criterion_01_gleu_matches_oracle():
    start = time.perf_counter()
    seqs = [()]
    for n in (1, 2, 3):
        seqs.extend(itertools.product(VOCAB, repeat=n))
    sentences = [Sentence(s) for s in seqs]
    lists = [list(s) for s in seqs]
    worst = 0.0
    cases = 0
    for i, src in enumerate(sentences):
        for j, hyp in enumerate(sentences):
            for k, ref in enumerate(sentences):
                got = gleu_stats(src, hyp, (ref,), GleuConfig()).score
                want = gleu_reference(lists[i], lists[j], lists[k])
                diff = abs(got - want)
                if diff > worst:
                    worst = diff
                cases += 1

    rng = random.Random(11)
    pool = ["a", "b", "c", "d"]
    for _ in range(10000):
        src = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        hyp = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        ref = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        refs = (Sentence(tuple(ref)),)
        got = gleu_stats(Sentence(tuple(src)), Sentence(tuple(hyp)), refs, GleuConfig()).score
        want = gleu_reference(src, hyp, ref)
        diff = abs(got - want)
        if diff > worst:
            worst = diff
        cases += 1

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _report(
        1,
        "n-gram score equals independent oracle",
        ok,
        f"max diff {worst:.2e} over {cases} cases, {elapsed:.1f}s (budget 30s)",
    )


# ---------------------------------------------------------------------------
# 2. edit-overlap counts vs the sequence-enumeration oracle


def _random_gold(rng, src):
    edits, pos = [], 0
    for _ in range(rng.randint(0, 3)):
        if pos > len(src):
            break
        start = rng.randint(pos, len(src))
        end = rng.randint(start, min(len(src), start + 2))
        repl = tuple(rng.choice(VOCAB) for _ in range(rng.randint(0, 2)))
        if tuple(src[start:end]) == repl:
            continue
        if edits and edits[-1][0] == edits[-1][1] == start == end:
            continue
        edits.append((start, end, repl))
        pos = end if end > start else (start if rng.random() < 0.5 else start + 1)
    return edits


def _noisy_hypothesis(rng, src, gold):
    out, pos = [], 0
    for start, end, replacement in gold:
        if rng.random() < 0.6:
            out.extend(src[pos:start])
            out.extend(replacement)
            pos = end
    out.extend(src[pos:])
    for _ in range(rng.randint(0, 2)):
        if out and rng.random() < 0.5:
            del out[rng.randrange(len(out))]
        else:
            out.insert(rng.randint(0, len(out)), rng.choice(VOCAB))
    return out[:6]


def test_criterion_02_edit_counts_match_oracle():
    start = time.perf_counter()
    rng = random.Random(23)
    exact = mismatches = total = 0
    while exact < 1000 and total < 1500:
        src = [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
        gold = _random_gold(rng, src)
        if rng.random() < 0.5:
            hyp = _noisy_hypothesis(rng, src, gold)
        else:
            hyp = [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
        counts, _ = m2_sentence(
            Sentence(tuple(src)),
            Sentence(tuple(hyp)),
            ((0, frozenset(gold)),),
            M2Config(),
        )
        got = (counts.tp, counts.fp, counts.fn)
        want = m2_reference_count_set(src, hyp, gold, 2)
        if got not in want:
            mismatches += 1
        elif len(want) == 1:
            exact += 1
        total += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and exact >= 1000 and elapsed < 60.0
    _report(
        2,
        "edit tp/fp/fn equal the enumeration oracle",
        ok,
        f"{exact} exact of {total} cases, {mismatches} mismatches, "
        f"{elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 3. improvement metric hand values and bounds


def test_criterion_03_improvement_metric():
    refs = (tokenize("he goes home"),)
    perfect = i_measure_sentence(tokenize("he go home"), tokenize("he goes home"), refs)
    unchanged = i_measure_sentence(tokenize("he go home"), tokenize("he go home"), refs)
    worse = i_measure_sentence(tokenize("he go home"), tokenize("he gone home"), refs)
    hand_ok = (
        abs(perfect - 1.0) <= 1e-12
        and abs(unchanged - 0.0) <= 1e-12
        and abs(worse - (-1.0 / 7.0)) <= 1e-12
    )

    rng = random.Random(31)
    pool = ["a", "b", "c", "d"]
    bounds_ok = identity_ok = True
    for _ in range(1000):
        src = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        hyp = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        row = tuple(
            Sentence(tuple(rng.choice(pool) for _ in range(rng.randint(0, 6))))
            for _ in range(rng.randint(1, 2))
        )
        score = i_measure_sentence(Sentence(src), Sentence(hyp), row)
        bounds_ok &= -1.0 <= score <= 1.0
        same = i_measure_sentence(Sentence(src), Sentence(src), row)
        identity_ok &= same == 0.0

    ok = hand_ok and bounds_ok and identity_ok
    _report(
        3,
        "improvement score: hand values, bounds, unchanged-is-zero",
        ok,
        f"perfect {perfect:.3f}, unchanged {unchanged:.3f}, "
        f"miscorrection {worse:.6f} (want {-1/7:.6f}), 1000 random triples",
    )


# ---------------------------------------------------------------------------
# 4. error-count score formula and detector-removal monotonicity


def test_criterion_04_error_count():
    wordlist = Wordlist(["the", "cat", "dog", "a", "an", "apple", "sat"])
    suite = build_default_suite(wordlist)
    rng = random.Random(17)
    pool = ["the", "The", "cat", "dog", "zq", "a", "an", "apple", ",", ".", "sat.", "cat."]

    formula_ok = monotone_ok = True
    for _ in range(300):
        tokens = tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))
        sentence = Sentence(tokens)
        errors = len(suite.run(tokens))
        want = max(0.0, 1.0 - errors / len(tokens))
        formula_ok &= error_count_score(sentence, suite) == want
        full = error_count_score(sentence, suite)
        for skip in range(len(suite.detectors)):
            reduced = DetectorSuite(
                [d for i, d in enumerate(suite.detectors) if i != skip]
            )
            monotone_ok &= error_count_score(sentence, reduced) >= full

    ok = formula_ok and monotone_ok
    _report(
        4,
        "error-count formula and detector-removal monotonicity",
        ok,
        f"formula {formula_ok}, monotone over {len(suite.detectors)} detectors "
        f"x 300 sentences {monotone_ok}",
    )


# ---------------------------------------------------------------------------
# 5. interpolation endpoints and linearity


def test_criterion_05_interpolation():
    rng = random.Random(41)
    endpoint_ok = linear_ok = True
    worst = 0.0
    for _ in range(200):
        f = rng.random()
        r = rng.random()
        endpoint_ok &= interpolate_value(f, r, 0.0) == f
        endpoint_ok &= interpolate_value(f, r, 1.0) == r
        for lam in LAMBDA_GRID:
            diff = abs(interpolate_value(f, r, lam) - (f + (r - f) * lam))
            if diff > worst:
                worst = diff
            linear_ok &= diff < 1e-15
    ok = endpoint_ok and linear_ok
    _report(
        5,
        "interpolation: bit-exact endpoints, linear on the grid",
        ok,
        f"max deviation from two-point line {worst:.2e} (tolerance 1e-15)",
    )


# ---------------------------------------------------------------------------
# 6. correlation hand values


def test_criterion_06_correlations():
    rho = spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    r = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    z = fisher_z(0.6)
    _, same_p = compare_correlations(0.7, 20, 0.7, 20)
    ok = (
        abs(rho - 0.8) <= 1e-12
        and abs(r - 0.9819805060619656) <= 1e-12
        and abs(z - math.atanh(0.6)) <= 1e-12
        and same_p == 1.0
    )
    _report(
        6,
        "correlation hand values and self-comparison",
        ok,
        f"spearman {rho:.6f} (want 0.8), pearson {r:.12f}, "
        f"fisher z {z:.6f} (want {math.atanh(0.6):.6f}), self-compare p {same_p}",
    )


# ---------------------------------------------------------------------------
# 7. ridge regression solver


def test_criterion_07_ridge():
    feats = [[1.0], [2.0], [3.0]]
    targets = [2.0, 4.0, 6.0]
    hand = train_ridge(feats, targets, alpha=1.0, feature_names=("x",), standardize=False)
    hand_ok = abs(hand.weights[0] - 4.0 / 3.0) <= 1e-12 and abs(hand.bias - 4.0) <= 1e-12

    rng = np.random.default_rng(43)
    worst_resid = 0.0
    resid_ok = True
    for _ in range(100):
        x = rng.normal(size=(30, 8))
        y = rng.normal(size=30)
        alpha = float(rng.uniform(0.01, 5.0))
        model = train_ridge(x.tolist(), y.tolist(), alpha=alpha, standardize=False)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        w = np.array(model.weights)
        resid = float(np.max(np.abs((xc.T @ xc + alpha * np.eye(8)) @ w - xc.T @ yc)))
        worst_resid = max(worst_resid, resid)
        resid_ok &= resid < 1e-8

    oracle_ok = True
    for _ in range(25):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        alpha = float(rng.uniform(0.01, 5.0))
        model = train_ridge(x.tolist(), y.tolist(), alpha=alpha, standardize=False)
        xc = x - x.mean(axis=0)
        want = np.linalg.inv(xc.T @ xc + alpha * np.eye(3)) @ (xc.T @ (y - y.mean()))
        oracle_ok &= bool(np.allclose(model.weights, want, atol=1e-10))

    shrink_ok = True
    plain = random.Random(5)
    for _ in range(20):
        fx = [[plain.uniform(-2, 2) for _ in range(4)] for _ in range(25)]
        fy = [row[0] - 2 * row[1] + plain.gauss(0, 0.1) for row in fx]
        norms = [
            math.hypot(*train_ridge(fx, fy, alpha=a).weights)
            for a in (0.0, 0.5, 1.0, 2.0, 8.0)
        ]
        shrink_ok &= all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    ok = hand_ok and resid_ok and oracle_ok and shrink_ok
    _report(
        7,
        "ridge: hand value, normal-equation residual, oracle, shrinkage",
        ok,
        f"slope {hand.weights[0]:.12f} (want {4/3:.12f}), "
        f"max residual {worst_resid:.2e} over 100 systems (tolerance 1e-8)",
    )


# ---------------------------------------------------------------------------
# 8. synthetic corpus: ranking, sweep oracle, gaming


def test_criterion_08_synthetic_corpus():
    start = time.perf_counter()
    corpus = _synthetic.build_corpus(seed=0, n_sentences=200)
    wordlist = Wordlist(corpus.words)
    suite = build_default_suite(wordlist)
    cfg = GleuConfig(multi_ref_mode=MEAN_OVER_ALL)

    sources = [Sentence(tuple(t)) for t in corpus.source]
    ref_rows = [
        (Sentence(tuple(c)), Sentence(tuple(a)))
        for c, a in zip(corpus.clean, corpus.alt_reference)
    ]

    fluency = {}
    reference = {}
    hyps_by_system = {}
    for system_id, rows in corpus.systems.items():
        hyps = [Sentence(tuple(t)) for t in rows]
        hyps_by_system[system_id] = hyps
        fluency[system_id] = [error_count_score(h, suite) for h in hyps]
        reference[system_id] = [
            gleu_multi_ref(sources[i], hyps[i], ref_rows[i], cfg, sentence_index=i)
            for i in range(len(hyps))
        ]

    means = {sid: analysis.mean_score(vals) for sid, vals in fluency.items()}
    ordered = [means[sid] for sid in _synthetic.SYSTEM_IDS]
    strictly_decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    human_values = [corpus.human[sid] for sid in _synthetic.SYSTEM_IDS]
    rho = spearman(ordered, human_values)
    ranks = rank_systems(means)
    rank_ok = [s["system"] for s in ranks] == list(_synthetic.SYSTEM_IDS)

    sweep = sweep_lambda(fluency, reference, corpus.human)
    endpoint_best = max(sweep["points"][0]["spearman"], sweep["points"][-1]["spearman"])
    sweep_ok = sweep["oracle_spearman"] >= endpoint_best

    gaming_ok = True
    worst_drop = float("inf")
    perm = gaming_permutation(len(sources), 0)
    for system_id in _synthetic.SYSTEM_IDS:
        hyps = hyps_by_system[system_id]
        shuffled = [
            gleu_multi_ref(sources[i], hyps[i], ref_rows[perm[i]], cfg, sentence_index=i)
            for i in range(len(perm))
        ]
        row = gaming_check(fluency[system_id], reference[system_id], shuffled)
        gaming_ok &= row["rbm_drop"] > 0.0
        worst_drop = min(worst_drop, row["rbm_drop"])

    elapsed = time.perf_counter() - start
    ok = (
        strictly_decreasing
        and abs(rho - 1.0) <= 1e-12
        and rank_ok
        and sweep_ok
        and gaming_ok
        and elapsed < 120.0
    )
    _report(
        8,
        "synthetic corpus: exact ranking, sweep oracle, gaming drops",
        ok,
        f"spearman {rho:.12f}, oracle {sweep['oracle_spearman']:.6f} >= "
        f"endpoints {endpoint_best:.6f}, min gaming drop {worst_drop:.4f}, "
        f"{elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# 9. aggregation modes: divergence and single-sentence agreement


def test_criterion_09_aggregation_modes(tmp_path):
    words = ["the", "cat", "sat", "on", "mat", "a", "dog", "go", "home"]
    spell = next(row for row in BUILT_IN if row[0] == "spell")
    spell_only = DetectorSuite([RuleDetector(spell, Wordlist(words))])
    clean = tokenize("The cat sat on the mat a dog go home.")
    noisy = tokenize("Zq zq.")
    corpus_level = error_count_corpus([clean, noisy], spell_only, mode="corpus")
    sentence_level = error_count_corpus([clean, noisy], spell_only, mode="sentence")
    divergence_ok = corpus_level == 1.0 - 2.0 / 12.0 and sentence_level == 0.5

    rng = random.Random(53)
    pool = ["a", "b", "c", "d"]
    single_ok = True
    for _ in range(100):
        src = Sentence(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        hyp = Sentence(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        ref = Sentence(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6))))
        single = gleu_stats(src, hyp, (ref,), GleuConfig()).score
        single_ok &= gleu_corpus([src], [hyp], [(ref,)]) == single
        row = (ref, Sentence(tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))))
        for mode in ("sentence", "corpus"):
            single_ok &= i_measure_corpus(
                [src], [hyp], [row], IMeasureConfig(), mode=mode
            ) == i_measure_sentence(src, hyp, row)
        for mode in ("sentence", "corpus"):
            single_ok &= error_count_corpus(
                [hyp], spell_only, mode=mode
            ) == error_count_score(hyp, spell_only)

    m2_ok = True
    for _ in range(50):
        src = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        gold = _random_gold(rng, src)
        hyp = _noisy_hypothesis(rng, src, gold)
        unit = AnnotatedSource(Sentence(tuple(src)), ((0, frozenset(gold)),))
        hyp_sentence = Sentence(tuple(hyp)) if hyp else Sentence(("x",))
        _, sentence_f = m2_sentence(unit.source, hyp_sentence, unit.gold)
        for mode in ("sentence", "corpus"):
            m2_ok &= m2_corpus([unit], [hyp_sentence], mode=mode) == sentence_f

    model = train_ridge([[0.0], [1.0], [2.0]], [0.0, 0.5, 1.0], alpha=1.0,
                        feature_names=("token_count",), standardize=False)
    model_path = tmp_path / "model.json"
    save_lfm_model(model_path, model)
    (tmp_path / "hyp.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "lm.txt").write_text("a b\n", encoding="utf-8")
    (tmp_path / "words.txt").write_text("a\nb\n", encoding="utf-8")
    lfm_exit = main(
        [
            "score", "--metric", "lfm", "--mode", "corpus",
            "--model", str(model_path),
            "--lm-corpus", str(tmp_path / "lm.txt"),
            "--wordlist", str(tmp_path / "words.txt"),
            "--hyp", f"h={tmp_path / 'hyp.txt'}",
        ]
    )
    lfm_ok = lfm_exit == 2

    ok = divergence_ok and single_ok and m2_ok and lfm_ok
    _report(
        9,
        "aggregation: corpus/sentence divergence and single-sentence identity",
        ok,
        f"corpus {corpus_level:.6f} (want {5/6:.6f}) vs mean {sentence_level:.2f}, "
        f"single-sentence identity {single_ok and m2_ok}, "
        f"fluency-model corpus mode exit {lfm_exit} (want 2)",
    )


# ---------------------------------------------------------------------------
# 10. seeded runs are byte-identical, in process and via the module entry


def test_criterion_10_byte_identical_runs(tmp_path, capsys):
    corpus = _synthetic.build_corpus(seed=0, n_sentences=20)
    paths = _synthetic.materialize(tmp_path, corpus)

    argv = [
        "score", "--metric", "gleu",
        "--source", str(paths["source"]),
        "--ref", str(paths["ref"]),
        "--ref", str(paths["ref_alt"]),
        "--hyp", f"mid={tmp_path / 'sys06.txt'}",
        "--hyp", f"worst={tmp_path / 'sys12.txt'}",
        "--seed", "7",
    ]

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()

    third = tmp_path / "third.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gecmetric"] + argv + ["--out", str(third)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    subprocess_ok = proc.returncode == 0

    b1 = first.read_bytes()
    b2 = second.read_bytes()
    b3 = third.read_bytes() if third.exists() else b""
    ok = subprocess_ok and b1 == b2 == b3 and len(b1) > 0
    _report(
        10,
        "same-seed runs byte-identical (in-process and module entry)",
        ok,
        f"{len(b1)} bytes, in-process repeat match {b1 == b2}, "
        f"module-entry match {b1 == b3}, exit {proc.returncode}",
    )

"""Tests for the benchmark's own code.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest bench -q``
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import spans
import stub_checker

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def shared():
    return gen.build(5, "shared")


@pytest.fixture(scope="module")
def distinct():
    return gen.build(5, "distinct")


def test_generator_is_deterministic(shared):
    again = gen.build(5, "shared")
    assert again == shared
    assert gen.build(6, "shared").source != shared.source
    assert gen.lm_corpus(5, lines=50) == gen.lm_corpus(5, lines=50)


def test_generator_shape(shared, distinct):
    for corpus in (shared, distinct):
        lengths = [len(s) for s in corpus.source]
        assert len(lengths) == gen.N_SENTENCES
        assert 20 <= statistics.mean(lengths) <= 26
        assert max(lengths) >= 3 * statistics.median(lengths)  # long tail
        assert len(corpus.refs) == gen.N_REFS
        assert all(len(r) == gen.N_SENTENCES for r in corpus.refs)
        assert sorted(corpus.systems) == list(gen.SYSTEM_IDS)
        assert all(len(h) == gen.N_SENTENCES for h in corpus.systems.values())
        assert all(len(g) == 2 for g in corpus.gold)
        assert 0.005 <= corpus.identity_share() <= 0.04
        # human ranking follows system quality, but not exactly
        order = sorted(gen.SYSTEM_IDS, key=corpus.human.get, reverse=True)
        assert order != list(gen.SYSTEM_IDS)
        ranks = [order.index(sid) for sid in gen.SYSTEM_IDS]
        assert sum(abs(rank - k) for k, rank in enumerate(ranks)) <= 24


def test_shared_corpus_repeats_outputs(shared):
    assert 0.4 <= gen.unchanged_share(shared) <= 0.6
    assert gen.duplication_share(shared) > 0.5
    assert gen.duplication_share(shared, ("sys02", "sys07")) > 0.2


def test_distinct_corpus_never_repeats(distinct):
    assert gen.duplication_share(distinct) == gen.unchanged_share(distinct) == 0.0
    for i, src in enumerate(distinct.source):
        hyps = {tuple(distinct.systems[sid][i]) for sid in gen.SYSTEM_IDS}
        assert len(hyps) == gen.N_SYSTEMS and tuple(src) not in hyps


def test_gold_edits_rebuild_the_references(shared):
    for i in range(0, gen.N_SENTENCES, 7):
        for annotator, ref in enumerate(shared.refs):
            out, cursor = [], 0
            for start, end, repl, _ in shared.gold[i][annotator]:
                out += shared.source[i][cursor:start] + list(repl)
                cursor = end
            assert out + shared.source[i][cursor:] == ref[i]


def test_m2_text_parses(shared):
    from gecmetric.formats import parse_m2

    units = parse_m2(shared.m2)
    assert len(units) == gen.N_SENTENCES
    assert [list(u.source.tokens) for u in units] == shared.source


def _exchange(proc, request: dict) -> dict:
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def test_stub_speaks_the_checker_protocol():
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "stub_checker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        long_token = "x" * stub_checker.LONG_TOKEN
        reply = _exchange(proc, {"id": 7, "tokens": ["a", long_token, "b"]})
        assert reply == {"id": 7, "errors": [{"start": 1, "end": 2, "category": "LONG"}]}
        assert _exchange(proc, {"id": 8, "tokens": []}) == {"id": 8, "errors": []}
    finally:
        proc.stdin.close()
        assert proc.wait(timeout=10) == 0


def test_gecmetric_checker_client_accepts_the_stub():
    from gecmetric.grammaticality import ExternalChecker

    command = [sys.executable, str(BENCH / "stub_checker.py")]
    with ExternalChecker(command, timeout=10) as checker:
        found = checker(["short", "y" * 20])
    assert [(s.start, s.end, s.category) for s in found] == [(1, 2, "LONG")]


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union [1, 6] is covered once
        ["a.child", 2.0, 3.0, 1],
        ["c", 9.0, 12.0, 0],     # runs past its parent: clipped to [9, 10]
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_records_nesting_and_distinct_keys():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x, key=lambda args, kwargs: args[0])
    outer = tracer.wrap("outer", lambda: [inner(1), inner(1), inner(2)])
    outer()
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 0]
    assert tracer.keys["inner"] == {1, 2}


def test_install_wraps_every_namespace_and_undoes():
    import gecmetric.cli
    import gecmetric.formats

    original = gecmetric.formats.read_parallel_text
    tracer = spans.Tracer()
    undo, missing = spans.install(tracer)
    try:
        assert missing == []
        assert gecmetric.cli.read_parallel_text is gecmetric.formats.read_parallel_text
        assert gecmetric.cli.read_parallel_text is not original
    finally:
        spans.uninstall(undo)
    assert gecmetric.cli.read_parallel_text is original


def test_install_skips_a_missing_target(monkeypatch):
    import gecmetric.gleu

    monkeypatch.delattr(gecmetric.gleu, "gleu_corpus")
    undo, missing = spans.install(spans.Tracer())
    spans.uninstall(undo)
    assert missing == ["gleu.gleu_corpus"]


def test_report_checks_flag_bad_reports():
    problems, _ = checks.check_report(b"{not json", ["s"], ["gleu"], 2, False)
    assert problems and "not valid JSON" in problems[0]
    doc = {"systems": [{"id": "s", "metric": "gleu", "per_sentence": [0.5, 1.5],
                        "mean_sentence_score": 1.0, "corpus_score": 0.5}],
           "sweep": {"points": [{"lambda": 0.0, "spearman": 1.0, "pearson": 1.0}]}}
    problems, _ = checks.check_report(json.dumps(doc).encode(), ["s"], ["gleu"], 2, True)
    assert any("outside" in p for p in problems)
    assert any("101" in p for p in problems)


def test_benchmark_json_matches_the_harness():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_normalized_wall_rescales_only_cpu_time():
    import run

    waiting = run.Invocation("c", wall_s=10.0, cpu_s=4.0, maxrss_kb=0, returncode=0, speed=0.5)
    assert waiting.norm_wall_s == pytest.approx(6.0 + 2.0)
    # both cores busy: only the wall time, all of it busy, is rescaled
    parallel = run.Invocation("c", wall_s=5.0, cpu_s=6.0, maxrss_kb=0, returncode=0, speed=2.0)
    assert parallel.norm_wall_s == pytest.approx(10.0)


def test_earlier_runs_of_the_same_code_are_compared(tmp_path, monkeypatch, shared):
    import run

    monkeypatch.setattr(run, "WORK", tmp_path)
    (tmp_path / "results").mkdir()

    def record(name, code, sha, returncode=0):
        invocation = {"command": "score-gleu", "returncode": returncode, "problems": [],
                      "report_sha256": sha}
        doc = {"meta": {"code_sha256": code}, "invocations": [invocation]}
        (tmp_path / "results" / name).write_text(json.dumps(doc), encoding="utf-8")

    record("score-ref-seed5-trace0.json", run.code_sha256(), "aa")
    record("score-ref-seed5-trace1.json", "other code", "bb")
    record("fluency-seed5-trace0.json", run.code_sha256(), "cc")
    record("score-ref-seed6-trace0.json", run.code_sha256(), "dd")
    record("score-ref-seed5-trace9.json", run.code_sha256(), "ee", returncode=1)
    earlier = run.earlier_reports("score-ref", 5)
    assert earlier == {"score-gleu": {"aa"}}

    inv = run.Invocation("score-gleu", wall_s=1.0, cpu_s=1.0, maxrss_kb=0, returncode=0,
                         report=b"{}")
    run.check_invocations(run.WORKLOADS["score-ref"], [inv], shared, 5, earlier)
    assert any("earlier run" in problem for problem in inv.problems)

"""gecmetric benchmark: three CLI workloads, timed end to end, traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload score-ref --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Set-up generates the workload's inputs from ``--seed`` (gen.py), trains
the LFM model for the ``fluency`` workload, and times a bare CLI start
several times (``setup_s``). With ``--trace 0`` the run then makes
rounds of subprocess invocations, each of the workload's commands once
per round and one invocation at a time (a closed loop with one client),
while another round still fits in ``--seconds``, and reports the
end-to-end metrics. With ``--trace 1`` it imports gecmetric in-process,
runs each command once untraced and once traced (spans.py), and reports
the per-layer metrics. Every report is checked (checks.py) and compared
byte for byte with the other reports of its command in the run and in
earlier runs of the same workload, seed and code; an invocation that
exits non-zero or fails a check counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record of the run,
including metadata that is never gated on, goes to
``.bench_work/results/``; the traced run's spans go to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import logging
import os
import platform
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, install, self_times, uninstall  # noqa: E402

SETUP_REPEATS = 3
# reference.py's time at full speed on a 2-core Intel Xeon VM (2.1 GHz,
# Python 3.11); it only scales the normalized metrics.
REFERENCE_NOMINAL_S = 0.275
INVOCATION_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Command:
    name: str                  # reported as cmd.<name>_s
    argv: tuple[str, ...]      # after ``gecmetric``, with {placeholders}
    metrics: tuple[str, ...]   # metrics each system carries in the report
    sweep: bool = False


@dataclass(frozen=True)
class Workload:
    corpus: str
    systems: tuple[str, ...]
    commands: tuple[Command, ...]


_REFS = ("--source", "{source}", "--ref", "{ref0}", "--ref", "{ref1}")
_SWEEP = ("--fluency-metric", "errorcount", "--reference-metric", "gleu") + _REFS + (
    "--wordlist", "{wordlist}", "--human", "{human}")
# Two systems per scoring invocation so that outputs shared across
# systems occur; three for the sweep, whose Spearman needs three.
_PAIR = ("sys02", "sys07")
_TRIO = ("sys01", "sys06", "sys12")

WORKLOADS = {
    "score-ref": Workload("shared", _PAIR, (
        Command("score-gleu", ("score", "--metric", "gleu") + _REFS, ("gleu",)),
        Command("score-m2", ("score", "--metric", "m2", "--m2", "{m2}"), ("m2",)),
        Command("score-imeasure", ("score", "--metric", "imeasure") + _REFS, ("imeasure",)),
    )),
    "analysis": Workload("distinct", _TRIO, (
        Command("sweep", ("sweep",) + _SWEEP + ("--gaming",), ("errorcount", "gleu"), True),
        Command("ablate", ("ablate",) + _SWEEP + ("--trials", "1", "--sizes", "1"),
                ("errorcount", "gleu"), True),
    )),
    "fluency": Workload("shared", _PAIR, (
        Command("score-errorcount", ("score", "--metric", "errorcount", "--wordlist",
                                     "{wordlist}", "--checker", "{checker}"), ("errorcount",)),
        Command("score-lfm", ("score", "--metric", "lfm", "--model", "{model}",
                              "--lm-corpus", "{lm}", "--wordlist", "{wordlist}"), ("lfm",)),
    )),
}
COMMANDS = tuple(c.name for w in WORKLOADS.values() for c in w.commands)

# Layer functions reported with calls and self time, by span name.
LAYER_SPANS = (
    "formats.read_parallel_text", "formats.read_reference_files", "formats.read_m2_file",
    "formats.read_human_ranking", "formats.build_report", "formats.render_report",
    "corpus.tokenize",
    "gleu.gleu_multi_ref", "gleu.gleu_corpus",
    "maxmatch.m2_sentence", "maxmatch.m2_corpus",
    "imeasure.i_measure_sentence", "imeasure.i_measure_corpus",
    "grammaticality.error_count_score", "grammaticality.error_count_corpus",
    "grammaticality.DetectorSuite.run",
    "lfm.train_lm", "lfm.featurize", "lfm.lfm_score",
    "analysis.sweep_lambda", "analysis.ablate_references", "analysis.gaming_check",
)
DISTINCT = {
    "gleu.distinct_ratio": "gleu.gleu_multi_ref",
    "maxmatch.distinct_ratio": "maxmatch.m2_sentence",
    "imeasure.distinct_ratio": "imeasure.i_measure_sentence",
    "grammaticality.distinct_ratio": "grammaticality.DetectorSuite.run",
}
CHECKER_SPAN = "grammaticality.ExternalChecker.call"
MAIN_SPAN = "cli.main"

END_TO_END_UNITS = {
    "norm_wall_s": "s", "norm_sent_per_s": "1/s", "norm_cpu_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"cmd.{name}_s": "s" for name in COMMANDS}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "ratio" for name in DISTINCT})
    units.update({
        f"{CHECKER_SPAN}.calls": "count", f"{CHECKER_SPAN}.wait_s": "s",
        f"{CHECKER_SPAN}.p50_ms": "ms", f"{CHECKER_SPAN}.p99_ms": "ms",
        "formats.report_bytes": "B", "cli.import_s": "s", "cli.self_s": "s",
        "trace.coverage": "ratio", "trace.overhead_s": "s",
    })
    return units


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# set-up


def cli_env(hash_seed: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GECMETRIC_SEED", None)  # default options: seed 0
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_quiet(argv: list[str], log_path: Path) -> None:
    with open(log_path, "ab") as log:
        proc = subprocess.run(argv, cwd=ROOT, env=cli_env(), stdout=log, stderr=log,
                              timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(argv[:4])} ... exited {proc.returncode}; see {log_path}")


def prepare(workload: Workload, seed: int, run_dir: Path) -> tuple[gen.Corpus, dict[str, str]]:
    """Generate and write the workload's inputs; returns the corpus and the
    placeholder values for its command lines."""
    corpus = gen.build(seed, workload.corpus)
    inputs = run_dir / "inputs"
    paths = gen.materialize(inputs, corpus, workload.systems)
    values = {key: str(path) for key, path in paths.items()}
    values["checker"] = shlex.join([sys.executable, str(BENCH / "stub_checker.py")])
    if any("{model}" in c.argv for c in workload.commands):
        lm = gen.write_lines(inputs / "lm.txt", gen.lm_corpus(seed))
        table, model, log = inputs / "lfm-train.tsv", inputs / "lfm-model.json", run_dir / "setup.log"
        run_quiet([sys.executable, str(BENCH / "lfm_features.py"), str(lm), values["wordlist"],
                   values["source"], values["ref0"], str(table)], log)
        run_quiet([sys.executable, "-m", "gecmetric", "train-lfm", "--train", str(table),
                   "--out", str(model)], log)
        values.update(lm=str(lm), model=str(model))
    return corpus, values


def command_argv(workload: Workload, command: Command, values: dict[str, str],
                 out: Path) -> list[str]:
    argv = [part.format(**values) for part in command.argv]
    for sid in workload.systems:
        argv += ["--hyp", f"{sid}={values[sid]}"]
    return argv + ["--out", str(out)]


def reference_seconds() -> float:
    """Time of the fixed reference job (reference.py) in a fresh process."""
    proc = subprocess.run([sys.executable, str(BENCH / "reference.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"reference job failed: {proc.stderr[-500:]!r}")
    return json.loads(proc.stdout)["seconds"]


def bare_start_times() -> list[float]:
    """Wall time of ``gecmetric --version``: interpreter start plus
    importing every layer, which every invocation pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gecmetric", "--version"], cwd=ROOT,
                              env=cli_env(), capture_output=True, timeout=INVOCATION_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith(b"gecmetric"):
            raise SetupError(f"gecmetric --version failed: {proc.stderr[-500:]!r}")
    return times


# ---------------------------------------------------------------------------
# invocations


@dataclass
class Invocation:
    command: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    report: bytes = b""
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0  # machine speed relative to nominal while it ran
    hash_seed: int | None = None  # PYTHONHASHSEED; None when run in-process

    @property
    def norm_wall_s(self) -> float:
        """Wall time with its CPU-busy part rescaled to nominal machine
        speed; time spent waiting (on the checker, on I/O) stays as measured.
        CPU time beyond the wall time (both cores busy) is not wall time."""
        busy = min(self.cpu_s, self.wall_s)
        return (self.wall_s - busy) + busy * self.speed

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.report).hexdigest()

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


def invoke(command: str, argv: list[str], out: Path, log_path: Path) -> Invocation:
    """Run one CLI invocation to completion; CPU time covers the CLI and
    every child it waited for (the checker stub). Each invocation gets its
    own random hash seed, so that reports compared for identity come from
    processes that differ in it."""
    out.unlink(missing_ok=True)
    hash_seed = random.SystemRandom().randrange(1, 2**32)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gecmetric"] + argv, cwd=ROOT,
                                env=cli_env(hash_seed), stdout=log, stderr=log)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    report = out.read_bytes() if out.exists() else b""
    return Invocation(command, wall, cpu, usage.ru_maxrss, proc.returncode, report,
                      hash_seed=hash_seed)


def earlier_reports(name: str, seed: int) -> dict[str, set[str]]:
    """Report sha256s per command from earlier runs of this workload and
    seed on the same code, read from the stored results."""
    found: dict[str, set[str]] = {}
    code = code_sha256()
    for path in (WORK / "results").glob(f"{name}-seed{seed}-trace*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["meta"].get("code_sha256") != code:
            continue
        for inv in record["invocations"]:
            if inv["returncode"] == 0 and not inv["problems"]:
                found.setdefault(inv["command"], set()).add(inv["report_sha256"])
    return found


def check_invocations(workload: Workload, invocations: list[Invocation],
                      corpus: gen.Corpus, seed: int, earlier: dict[str, set[str]]) -> None:
    """Full checks on each command's first report; its later reports
    must match that one byte for byte, and every report must match the
    ``earlier`` reports of the same command."""
    oracles = checks.load_oracles(ROOT)
    inputs = {"source": corpus.source, "refs": corpus.refs, "gold": corpus.gold,
              "systems": corpus.systems}
    for command in workload.commands:
        runs = [inv for inv in invocations if inv.command == command.name]
        if not runs:
            continue
        first = runs[0]
        if first.returncode == 0:
            problems, doc = checks.check_report(
                first.report, workload.systems, command.metrics, gen.N_SENTENCES,
                command.sweep)
            if doc is not None:
                problems += checks.check_oracles(doc, oracles, inputs, seed)
            first.problems += [f"{command.name}: {p}" for p in problems]
        for inv in runs:
            if inv.returncode != 0:
                inv.problems.append(f"{command.name}: exit code {inv.returncode}")
            elif inv.report != first.report:
                inv.problems.append(f"{command.name}: report bytes differ from the first")
            elif command.name in earlier and inv.sha256 not in earlier[command.name]:
                inv.problems.append(
                    f"{command.name}: report bytes differ from an earlier run of this seed")


# ---------------------------------------------------------------------------
# runs


def end_to_end_run(name: str, seed: int, seconds: float, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    corpus, values = prepare(workload, seed, run_dir)
    starts = bare_start_times()
    argvs = {c.name: command_argv(workload, c, values, run_dir / f"{c.name}.json")
             for c in workload.commands}
    references = [reference_seconds()]
    rounds: list[list[Invocation]] = []
    begin = time.perf_counter()
    while not rounds or (time.perf_counter() - begin
                         + sum(inv.wall_s for inv in rounds[-1]) <= seconds):
        rounds.append([])
        for c in workload.commands:
            inv = invoke(c.name, argvs[c.name], run_dir / f"{c.name}.json", run_dir / "cli.log")
            references.append(reference_seconds())
            # machine speed while it ran, from the reference runs on either side
            inv.speed = REFERENCE_NOMINAL_S / statistics.mean(references[-2:])
            rounds[-1].append(inv)
            if inv.returncode != 0:
                break
        if any(inv.returncode != 0 for inv in rounds[-1]):
            break
    invocations = [inv for r in rounds for inv in r]
    check_invocations(workload, invocations, corpus, seed, earlier_reports(name, seed))

    good = [r for r in rounds if len(r) == len(workload.commands) and all(i.ok for i in r)]
    timed = good or rounds
    pairs = len(workload.systems) * gen.N_SENTENCES
    metrics = {
        "norm_wall_s": statistics.median(sum(i.norm_wall_s for i in r) for r in timed),
        "norm_sent_per_s": pairs * sum(inv.ok for inv in invocations)
        / sum(inv.norm_wall_s for inv in invocations),
        "norm_cpu_s": statistics.median(sum(i.cpu_s * i.speed for i in r) for r in timed),
        "peak_rss_mb": max(inv.maxrss_kb for inv in invocations) / 1024.0,
        "setup_s": statistics.median(starts),
    }
    samples = {"norm_wall_s": len(timed), "norm_sent_per_s": len(invocations),
               "norm_cpu_s": len(timed), "peak_rss_mb": len(invocations),
               "setup_s": len(starts)}
    measured = {"wall_s": statistics.median(sum(i.wall_s for i in r) for r in timed)}
    for c in workload.commands:
        measured[f"cmd.{c.name}_s"] = statistics.median(
            i.wall_s for r in timed for i in r if i.command == c.name)
    for key, value in measured.items():
        print(f"{name:10} {key + ' (measured, not gated)':46} {value:14.6f} s      "
              f"n={len(timed)}")
    return finish(name, seed, 0, corpus, invocations, metrics, END_TO_END_UNITS, samples,
                  {"argv": argvs, "bare_starts_s": starts, "measured": measured,
                   "reference_s": references})


def traced_run(name: str, seed: int, run_dir: Path) -> dict:
    workload = WORKLOADS[name]
    corpus, values = prepare(workload, seed, run_dir)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("gecmetric.cli")
    import_s = time.perf_counter() - start

    root = logging.getLogger()
    handler = logging.FileHandler(run_dir / "cli.log", encoding="utf-8")
    root.addHandler(handler)  # main() then keeps its logs off our stderr
    root.setLevel(logging.INFO)
    os.environ.pop("GECMETRIC_SEED", None)
    tracer = Tracer()
    distinct: dict[str, int] = {}  # distinct arguments per span, summed over invocations

    def in_process(command: Command, out: Path, traced: bool) -> Invocation:
        argv = command_argv(workload, command, values, out)
        if traced:
            undo, tracer.missing = install(tracer)
            index = tracer.begin(MAIN_SPAN)
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a broken program fails this invocation, not the run
            logging.getLogger("bench").exception("%s raised", command.name)
            code = 1
        finally:
            if traced:
                tracer.end(index)
                uninstall(undo)
                for span, keys in tracer.keys.items():
                    distinct[span] = distinct.get(span, 0) + len(keys)
                tracer.keys.clear()
        wall = time.perf_counter() - begin
        return Invocation(command.name, wall, 0.0, 0, code,
                          out.read_bytes() if out.exists() else b"")

    invocations = []
    for command in workload.commands:
        invocations.append(in_process(command, run_dir / f"{command.name}-untraced.json", False))
        invocations.append(in_process(command, run_dir / f"{command.name}-traced.json", True))
    root.removeHandler(handler)
    handler.close()
    check_invocations(workload, invocations, corpus, seed, earlier_reports(name, seed))

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{name}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    plain, traced = invocations[0::2], invocations[1::2]
    metrics = {f"cmd.{c}_s": 0.0 for c in COMMANDS}
    metrics.update({f"cmd.{inv.command}_s": inv.wall_s for inv in plain})
    metrics.update(layer_metrics(tracer.spans, distinct))
    metrics["formats.report_bytes"] = sum(len(inv.report) for inv in traced)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = sum(i.wall_s for i in traced) - sum(i.wall_s for i in plain)
    units = per_layer_units()
    return finish(name, seed, 1, corpus, invocations, metrics, units, {key: 1 for key in units},
                  {"trace_file": str(trace_path.relative_to(ROOT)),
                   "missing_spans": tracer.missing})


def layer_metrics(spans: list, distinct: dict[str, int]) -> dict[str, float]:
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    coverage = []
    for (name, start, end, _), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)
        if name == MAIN_SPAN and end > start:
            coverage.append(1.0 - own / (end - start))
    metrics: dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for metric, span in DISTINCT.items():
        metrics[metric] = distinct.get(span, 0) / calls[span] if calls.get(span) else 0.0
    waits = sorted(durations.get(CHECKER_SPAN, []))
    metrics[f"{CHECKER_SPAN}.calls"] = len(waits)
    metrics[f"{CHECKER_SPAN}.wait_s"] = sum(waits)
    metrics[f"{CHECKER_SPAN}.p50_ms"] = 1000 * percentile(waits, 0.50)
    metrics[f"{CHECKER_SPAN}.p99_ms"] = 1000 * percentile(waits, 0.99)
    metrics["cli.self_s"] = self_s.get(MAIN_SPAN, 0.0)
    # the invocation whose time is least covered by named spans
    metrics["trace.coverage"] = min(coverage, default=0.0)
    return metrics


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def code_sha256() -> str:
    """Fingerprint of the program and the benchmark: stored reports are
    compared only with runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def versions() -> dict[str, str]:
    found = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            found[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            found[package] = "missing"
    return found


def finish(name, seed, trace, corpus, invocations, metrics, units, samples, extra) -> dict:
    failed = sum(not inv.ok for inv in invocations)
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {key: {"value": float(value), "unit": units[key]}
                    for key, value in metrics.items()},
    }
    workload = WORKLOADS[name]
    record = {
        "workload": name, "seed": seed, "trace": trace, "result": result,
        "samples": samples,
        "failed_ratio": failed / len(invocations),
        "meta": {
            "src_lines": src_line_count(), "code_sha256": code_sha256(), **versions(),
            "nproc": os.cpu_count(),
            "systems": list(workload.systems),
            "duplication_share": gen.duplication_share(corpus, workload.systems),
            "unchanged_share": gen.unchanged_share(corpus, workload.systems),
            "identity_gold_edit_share": corpus.identity_share(),
        },
        "invocations": [
            {"command": inv.command, "wall_s": inv.wall_s, "cpu_s": inv.cpu_s,
             "speed": inv.speed, "maxrss_kb": inv.maxrss_kb, "returncode": inv.returncode,
             "hash_seed": inv.hash_seed, "report_sha256": inv.sha256, "problems": inv.problems}
            for inv in invocations
        ],
        **extra,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    # written whole or not at all: later runs read it (earlier_reports)
    partial = results / f"{name}-seed{seed}-trace{trace}.json.tmp"
    partial.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    partial.replace(partial.with_suffix(""))
    for key, value in metrics.items():
        print(f"{name:10} {key:46} {value:14.6f} {units[key]:6} n={samples[key]}")
    print(f"{name:10} failed_ratio {record['failed_ratio']:g} ({failed}/{len(invocations)})")
    for inv in invocations:
        for problem in inv.problems:
            print(f"{name:10} FAILED: {problem}")
    return result


def run_all(args) -> int:
    """Run every workload once, each in its own process, and print them."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "gecmetric", ROOT / "tests" / "oracles.py")
               if not p.exists()]
    if missing:
        print(f"error: not a gecmetric checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, run_dir)
        else:
            result = end_to_end_run(args.workload, args.seed, args.seconds, run_dir)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(run_dir / "inputs", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

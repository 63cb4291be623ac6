"""Command-line interface.

Subcommands::

    score       score systems with one metric, write a JSON report
    rank        score systems and rank them
    correlate   score systems and correlate with a human ranking
    sweep       interpolate a fluency and a reference metric over lambda
    ablate      rerun the sweep with per-sentence reference subsets
    train-lfm   fit the ridge fluency model from a feature table
    check       run error detectors over a text file

Every metric is one entry of the ``METRICS`` table: a loader that binds
the metric's config and the run's inputs into a scorer. Every knob a
command takes is checked (``_check_options``) before any input is read, whichever
metrics run, and a command loads only the metric layers it runs. A scorer
computes the statistics of each (system, sentence) pair once; the per-sentence
scores, their mean (the ``sentence`` headline) and the pooled corpus
score (the ``corpus`` headline; lfm has none) are all read from those
statistics. The reference ablation selects each subset's statistics from
them, and the gaming check compares them with every system's scores
against the permuted reference rows, scored in the same batch.

Exit codes: 0 success; 1 usage error or unreadable file; 2 malformed or
inconsistent data, or out of memory; 3 external checker failure. Logs go
to stderr. With ``--out`` the report goes to that file and a short
summary to stdout; without it the report JSON itself goes to stdout.
Identical invocations with identical seeds produce byte-identical reports.
Large gleu, m2 and imeasure batches use every usable CPU; ``taskset -c 0`` keeps one.

The random seed comes from ``--seed``, else the ``GECMETRIC_SEED``
environment variable, else 0; the choice is logged once the command has
succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.util
import logging
import operator
import os
import pickle
import shlex
import signal
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import __version__, _config, analysis
from ._config import (CHECKER_TIMEOUT, MEAN_OVER_ALL, SAMPLED, GleuConfig, IMeasureConfig,
                      M2Config, check_alpha, check_timeout)
from .corpus import AnnotatedSource, Sentence
from .errors import DetectorError, ModelError, ParseError, ValidationError
from .formats import (_read_text, build_report, read_human_ranking, read_m2_file,
                      read_parallel_text, read_reference_files, render_report,
                      split_lines, write_report)


def _lazy(name: str):
    """Layer ``gecmetric.<name>``, in ``sys.modules`` at once for tracers;
    unless imported already, its code runs on first attribute access, which
    comes from the main thread (a lazy load is not thread-safe on 3.11)."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


gleu, grammaticality, imeasure, lfm, maxmatch = map(
    _lazy, ("gleu", "grammaticality", "imeasure", "lfm", "maxmatch"))

__all__ = ["main", "build_parser"]

log = logging.getLogger("gecmetric")

ROW_METRICS = ("gleu", "imeasure")  # reference material is per-sentence rows
MIN_SPLIT = 512  # items per process from which a reference-metric batch is split


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# the metric table


@dataclass(frozen=True)
class _Inputs:
    """Reference material given on the command line, shared by all metrics."""

    sources: list[Sentence] | None
    units: list[AnnotatedSource] | None
    rows: tuple[tuple[Sentence, ...], ...] | None

    def sources_and_rows(self, metric: str):
        if self.sources is None or self.rows is None:
            raise _UsageError(f"{metric} needs --source (or --m2) and --ref")
        return self.sources, self.rows


@dataclass(frozen=True)
class _Scorer:
    """One metric bound to a run's knobs and inputs.

    ``stats(items)`` computes the statistics of each (i, hypothesis, row)
    item, where ``row`` is sentence ``i``'s reference row (None for
    metrics without rows). ``value`` maps statistics to the sentence score
    and ``pool`` reduces a system's statistics to its corpus score (None:
    lfm). For row metrics, ``subset(stats, i, pick)`` derives the
    statistics against the references ``pick`` of sentence ``i``'s row
    from the full-row statistics.
    """

    metric: str
    stats: Callable[[list], list]
    pool: Callable[[list], float] | None
    rows: tuple[tuple[Sentence, ...], ...] | None = None
    value: Callable[[Any], float] = operator.attrgetter("score")
    subset: Callable[[Any, int, Sequence[int]], Any] | None = None


def _gleu(args, inputs: _Inputs, stack: contextlib.ExitStack, cfg: GleuConfig) -> _Scorer:
    sources, rows = inputs.sources_and_rows("gleu")
    draws = functools.cache(functools.partial(gleu.reference_draws, cfg))
    return _Scorer(
        "gleu",
        lambda items: gleu.gleu_stats_many(sources, items, cfg),
        functools.partial(gleu.gleu_pool, cfg=cfg),
        rows,
        subset=lambda stats, i, pick: gleu.gleu_subset(
            stats, pick, stats.draws if len(pick) == len(stats.counts) else draws(i, len(pick))),
    )


def _m2(args, inputs: _Inputs, stack: contextlib.ExitStack, cfg: M2Config) -> _Scorer:
    units = inputs.units
    if units is None:
        raise _UsageError("m2 needs --m2 with gold annotations")
    maxmatch._warn_identity(units)
    return _Scorer(
        "m2",
        lambda items: [maxmatch.m2_stats(units[i].source, h, units[i].gold, cfg)
                       for i, h, _ in items],
        functools.partial(maxmatch.m2_pool, cfg=cfg),
    )


def _imeasure(args, inputs: _Inputs, stack: contextlib.ExitStack, cfg: IMeasureConfig) -> _Scorer:
    sources, rows = inputs.sources_and_rows("imeasure")
    return _Scorer(
        "imeasure",
        lambda items: imeasure.i_measure_stats_many(sources, items, cfg),
        functools.partial(imeasure.i_measure_pool, cfg=cfg),
        rows,
        subset=lambda stats, i, pick: imeasure.i_measure_subset(stats, pick),
    )


def _errorcount(args, inputs: _Inputs, stack: contextlib.ExitStack, cfg: None) -> _Scorer:
    suite = _build_suite(args, stack)

    def stats(items):
        found = grammaticality.error_count_stats_many([hyp for _, hyp, _ in items], suite)
        if args.checker:  # the last detector; the stack closes it on errors
            # one batch per run: its copies end here, so that _batch may fork after it
            suite.detectors[-1].close()
        return found

    return _Scorer("errorcount", stats, grammaticality.error_count_pool)


def _lfm(args, inputs: _Inputs, stack: contextlib.ExitStack, cfg: None) -> _Scorer:
    for opt in ("model", "lm_corpus", "wordlist"):
        if not getattr(args, opt):
            raise _UsageError(f"lfm needs --{opt.replace('_', '-')}")
    model = lfm.load_lfm_model(args.model)
    # the corpus stays text until the LM reads it, once, as token numbers
    lines = split_lines(_read_text(args.lm_corpus))
    wordlist = grammaticality.Wordlist.from_file(args.wordlist)

    def stats(items):
        # one batch per run holds every hypothesis: the LM is trained for
        # them alone
        lm = lfm.train_lm(map(str.split, lines), scope=[h.tokens for _, h, _ in items])
        return lfm.featurize_many([hyp for _, hyp, _ in items], lm, wordlist)

    return _Scorer(
        "lfm",
        stats,
        None,  # a per-sentence regression has nothing to pool
        value=functools.partial(lfm.lfm_score, model),
    )


REFERENCE_METRICS = {"gleu": _gleu, "m2": _m2, "imeasure": _imeasure}
FLUENCY_METRICS = {"errorcount": _errorcount, "lfm": _lfm}
METRICS: dict[str, Callable[..., _Scorer]] = {**REFERENCE_METRICS, **FLUENCY_METRICS}


def _stats(scorer: _Scorer, systems: Mapping[str, Sequence[Sentence]], *row_tables) -> list:
    """For each of ``row_tables``, the statistics of every system's
    sentences against its rows (sentence ``i`` against ``rows[i]``; None
    for metrics without rows), by system id, all from one ``stats`` batch
    of the distinct (rows, sentence, hypothesis) triples."""
    todo: dict = {}
    for t, rows in enumerate(row_tables):
        for sid in sorted(systems):
            for i, hyp in enumerate(systems[sid]):
                row = None if rows is None else rows[i]
                todo.setdefault((t, i, hyp.tokens), (i, hyp, row))
    done = _batch(scorer, todo)
    return [
        {sid: [done[t, i, hyp.tokens] for i, hyp in enumerate(hyps)]
         for sid, hyps in systems.items()}
        for t in range(len(row_tables))
    ]


def _batch(scorer: _Scorer, todo: dict) -> dict:
    """``scorer.stats`` of each item of ``todo``, by key. A large reference-metric
    batch is cut into one run of whole sentences per usable CPU; forked children
    compute all runs but the first, or this process where a child cannot start, fails or dies."""
    n = min(_config.usable_cpus(), len(todo) // MIN_SPLIT)
    if (n < 2 or scorer.metric not in REFERENCE_METRICS or sys.platform != "linux"
            or not hasattr(os, "fork") or threading.active_count() > 1):
        return dict(zip(todo, scorer.stats(list(todo.values()))))
    top = 1 + max(i for i, _, _ in todo.values())
    parts: list[dict] = [{} for _ in range(n)]
    for key, item in todo.items():
        parts[item[0] * n // top][key] = item
    stats = lambda part: scorer.stats(list(part.values()))  # noqa: E731
    children = []  # (pid, or -1 where no process could be forked; read end of its pipe)
    gc.freeze()  # no collection here or in a child writes to the pages they share
    try:
        for part in parts[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                pid = -1
            if pid == 0:
                try:
                    with open(w, "wb") as pipe:
                        pipe.write(pickle.dumps(stats(part), pickle.HIGHEST_PROTOCOL))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, open(r, "rb")))
        done = dict(zip(parts[0], stats(parts[0])))
        for part, (pid, pipe) in zip(parts[1:], children[:]):
            with pipe:
                data = pipe.read()
            ok = pid > 0 and os.waitpid(pid, 0)[1] == 0
            del children[0]
            done.update(zip(part, pickle.loads(data) if ok else stats(part)))
        return done
    finally:  # every child is reaped and every pipe closed, on any exit
        gc.unfreeze()
        for pid, pipe in children:
            pipe.close()
            if pid > 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _system_scores(scorer: _Scorer, table: Mapping[str, list], mode="sentence") -> dict:
    """Every system's report entry under one metric, by sorted system id,
    from its statistics ``table`` (see :func:`_stats`): the per-sentence
    scores, their mean and the pooled corpus score (None: lfm)."""
    entries = {}
    for sid in sorted(table):
        stats = table[sid]
        per = [scorer.value(s) for s in stats]
        entries[sid] = {
            "id": sid,
            "metric": scorer.metric,
            "mode": mode,
            "mean_sentence_score": analysis.mean_score(per),
            "corpus_score": None if scorer.pool is None else scorer.pool(stats),
            "per_sentence": per,
        }
    return entries


def _headline(entry: Mapping[str, Any]) -> float:
    """A system's score under its entry's mode."""
    return entry["mean_sentence_score" if entry["mode"] == "sentence" else "corpus_score"]


# ---------------------------------------------------------------------------
# input loading


def _parse_hyp_spec(spec: str) -> tuple[str, str]:
    if "=" in spec:
        system_id, _, path = spec.partition("=")
        system_id = system_id.strip()
    else:
        system_id, path = Path(spec).stem, spec
    if not system_id or not path:
        raise _UsageError(f"bad --hyp value {spec!r}; use ID=PATH or PATH")
    return system_id, path


def _load_systems(args) -> dict[str, list[Sentence]]:
    pairs = [_parse_hyp_spec(spec) for spec in args.hyp]
    ids = [sid for sid, _ in pairs]
    if len(set(ids)) != len(ids):
        raise _UsageError(f"duplicate system ids in --hyp: {ids}")
    return {sid: read_parallel_text(path) for sid, path in pairs}


def _load_inputs(args) -> _Inputs:
    units = read_m2_file(args.m2) if args.m2 else None
    sources = None if units is None else [u.source for u in units]
    if args.source:
        if sources is not None:
            raise _UsageError("--source and --m2 are mutually exclusive")
        sources = read_parallel_text(args.source)
    rows = read_reference_files(args.ref) if args.ref else None
    return _Inputs(sources, units, rows)


def _check_lengths(systems: Mapping[str, list[Sentence]], inputs: _Inputs) -> None:
    lengths = {sid: len(hyps) for sid, hyps in systems.items()}
    if inputs.sources is not None:
        expected = len(inputs.sources)
    else:
        expected = next(iter(lengths.values()))
    for sid, length in lengths.items():
        if length != expected:
            raise ValidationError(
                f"system {sid!r} has {length} sentences, expected {expected}"
            )
    if inputs.rows is not None and len(inputs.rows) != expected:
        raise ValidationError(
            f"references cover {len(inputs.rows)} sentences, expected {expected}"
        )
    if expected == 0:
        raise ValidationError("empty corpus")


def _configs(args) -> dict:
    """Each metric's config, by metric; building one checks its knobs."""
    return {
        "gleu": GleuConfig(args.max_n, args.iterations, args.seed, args.gleu_mode),
        "m2": M2Config(args.beta, args.max_unchanged),
        "imeasure": IMeasureConfig(args.weight),
    }


def _check_options(args) -> None:
    """Check every option of the command that needs no input, whatever
    metrics run, so that a bad knob is reported before any input is read."""
    if args.command == "sweep" and args.gaming and args.reference_metric not in ROW_METRICS:
        raise _UsageError(f"--gaming needs a reference metric in {ROW_METRICS}")
    if args.command == "ablate" and args.reference_metric not in ROW_METRICS:
        raise _UsageError(f"ablate needs a reference metric in {ROW_METRICS}")
    if "gaming_lambda" in args:
        analysis.check_lambda(args.gaming_lambda)
    if "max_n" in args:
        _configs(args)
    if "checker_timeout" in args:
        check_timeout(args.checker_timeout)
    if "trials" in args and args.ref:  # without --ref, the metric's loader says so first
        analysis.check_ablation(len(args.ref), args.sizes, args.trials)
    if "alpha" in args:
        check_alpha(args.alpha)


@contextlib.contextmanager
def _scorers(args, metrics: Sequence[str]):
    """Load the systems and inputs once and bind each metric to them and
    its config; yields (systems, scorers) and closes external checkers
    afterwards."""
    configs = _configs(args)
    systems = _load_systems(args)
    inputs = _load_inputs(args)
    with contextlib.ExitStack() as stack:
        scorers = [
            METRICS[metric](args, inputs, stack, configs.get(metric)) for metric in metrics
        ]
        _check_lengths(systems, inputs)
        yield systems, scorers


def _build_suite(args, stack: contextlib.ExitStack) -> grammaticality.DetectorSuite:
    """The detectors the options name; ``stack`` closes the checker."""
    detectors: list = []
    if args.wordlist:
        wordlist = grammaticality.Wordlist.from_file(args.wordlist)
        detectors.extend(grammaticality.build_default_suite(wordlist).detectors)
    if args.checker:
        command = shlex.split(args.checker)
        checker = grammaticality.ExternalChecker(command, timeout=args.checker_timeout)
        stack.callback(checker.close)
        detectors.append(checker)
    if not detectors:
        raise _UsageError("need --wordlist and/or --checker")
    return grammaticality.DetectorSuite(detectors)


def _resolve_seed(flag: int | None) -> tuple[int, str]:
    """The run's seed and where it came from."""
    if flag is not None:
        return flag, "from --seed"
    raw = os.environ.get("GECMETRIC_SEED")
    if raw is not None and raw.strip():
        try:
            return int(raw), "from GECMETRIC_SEED"
        except ValueError:
            raise _UsageError(
                f"GECMETRIC_SEED must be an integer, got {raw!r}"
            ) from None
    return 0, "default"


# ---------------------------------------------------------------------------
# report assembly


def _emit(args, doc: dict, summary_lines: list[str]) -> int:
    if args.out:
        write_report(args.out, doc)
        for line in summary_lines:
            print(line)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(render_report(doc))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _scored_systems(args) -> dict[str, dict]:
    with _scorers(args, [args.metric]) as (systems, (scorer,)):
        if args.mode == "corpus" and scorer.pool is None:
            raise ValidationError(
                f"metric {args.metric!r} has no corpus-level aggregation; "
                "use --mode sentence"
            )
        return _system_scores(scorer, _stats(scorer, systems, scorer.rows)[0], args.mode)


def _summary_table(scores: Mapping[str, dict]) -> list[str]:
    width = max(len("system"), max(len(sid) for sid in scores))
    lines = [f"{'system':<{width}}  {'metric':<10}  {'mode':<8}  score"]
    for sid, s in scores.items():
        lines.append(
            f"{sid:<{width}}  {s['metric']:<10}  {s['mode']:<8}  {_headline(s):.6f}"
        )
    return lines


def _cmd_score(args) -> int:
    scores = _scored_systems(args)
    doc = build_report(systems=scores.values())
    return _emit(args, doc, _summary_table(scores))


def _cmd_rank(args) -> int:
    scores = _scored_systems(args)
    ranked = analysis.rank_systems({sid: _headline(s) for sid, s in scores.items()})
    doc = build_report(systems=scores.values(), rankings=ranked)
    lines = ["rank  system  score"] + [
        f"{r['rank']:>4g}  {r['system']}  {r['score']:.6f}" for r in ranked
    ]
    return _emit(args, doc, lines)


def _cmd_correlate(args) -> int:
    human = read_human_ranking(args.human)
    scores = _scored_systems(args)
    ids = sorted(scores)
    missing = [sid for sid in ids if sid not in human]
    if missing:
        raise ValidationError(f"human ranking is missing systems: {missing}")
    ours = [_headline(scores[sid]) for sid in ids]
    theirs = [human[sid] for sid in ids]
    rho = analysis.spearman(ours, theirs)
    r = analysis.pearson(ours, theirs)
    label = f"{args.metric}:{args.mode}"
    doc = build_report(
        systems=scores.values(),
        correlations=[
            {"label": label, "spearman": rho, "pearson": r, "n_systems": len(ids)}
        ],
    )
    lines = _summary_table(scores) + [
        f"{label}: spearman={rho:.6f} pearson={r:.6f} over {len(ids)} systems"
    ]
    return _emit(args, doc, lines)


def _per_sentence(entries: Mapping[str, dict]) -> dict[str, list[float]]:
    return {sid: entry["per_sentence"] for sid, entry in entries.items()}


def _sweep(human: Mapping[str, float], fluency, reference) -> dict:
    return analysis.sweep_lambda(_per_sentence(fluency), _per_sentence(reference), human)


def _sweep_system_entries(fluency, reference) -> list[dict]:
    return [table[sid] for sid in sorted(fluency) for table in (fluency, reference)]


def _cmd_sweep(args) -> int:
    human = read_human_ranking(args.human)
    metrics = [args.fluency_metric, args.reference_metric]
    with _scorers(args, metrics) as (systems, scorers):
        scorer, row_tables = scorers[1], [scorers[1].rows]
        if args.gaming:
            # the rows of one permutation, which depends on the seed and
            # length alone, join the reference metric's batch
            perm = analysis.gaming_permutation(len(scorer.rows), args.seed)
            row_tables.append([scorer.rows[p] for p in perm])
        fluency = _system_scores(scorers[0], _stats(scorers[0], systems, None)[0])
        table, *shuffled = _stats(scorer, systems, *row_tables)
        reference = _system_scores(scorer, table)
        section = _sweep(human, fluency, reference)
        lines = [
            f"oracle lambda={section['oracle_lambda']:.2f} "
            f"spearman={section['oracle_spearman']:.6f} "
            f"pearson={section['oracle_pearson']:.6f}"
        ]
        if args.gaming:
            gaming = []
            for sid in sorted(systems):
                row = analysis.gaming_check(
                    fluency[sid]["per_sentence"],
                    reference[sid]["per_sentence"],
                    [scorer.value(s) for s in shuffled[0][sid]],
                    lam=args.gaming_lambda,
                )
                gaming.append({"system": sid, **row})
                lines.append(
                    f"gaming {sid}: reference drop {row['rbm_drop']:+.6f}, "
                    f"interpolated drop {row['interpolated_drop']:+.6f}"
                )
            section["gaming"] = gaming
    doc = build_report(systems=_sweep_system_entries(fluency, reference), sweep=section)
    return _emit(args, doc, lines)


def _subset_table(
    scorer: _Scorer, systems, table: Mapping[str, list], memo: dict, picks
) -> dict[str, list[float]]:
    """Every system's per-sentence scores against the references
    ``picks[i]`` of each sentence ``i``, derived from its full-row
    statistics ``table`` once per distinct (sentence, hypothesis, pick)
    across all the calls that share ``memo``."""
    out = {}
    for sid, hyps in systems.items():
        scores = out[sid] = []
        for i, (hyp, stats) in enumerate(zip(hyps, table[sid])):
            key = (i, hyp.tokens, picks[i])
            value = memo.get(key)
            if value is None:
                value = memo[key] = scorer.value(scorer.subset(stats, i, picks[i]))
            scores.append(value)
    return out


def _cmd_ablate(args) -> int:
    human = read_human_ranking(args.human)
    metrics = [args.fluency_metric, args.reference_metric]
    with _scorers(args, metrics) as (systems, scorers):
        scorer = scorers[1]
        tables = [_stats(s, systems, s.rows)[0] for s in scorers]
        fluency, reference = map(_system_scores, scorers, tables)
        section = _sweep(human, fluency, reference)
        points = analysis.ablate_references(
            _per_sentence(fluency),
            functools.partial(_subset_table, scorer, systems, tables[1], {}),
            len(scorer.rows[0]),
            human,
            sizes=args.sizes,
            trials=args.trials,
            seed=args.seed,
        )
    doc = build_report(
        systems=_sweep_system_entries(fluency, reference), sweep=section, ablation=points
    )
    lines = [
        f"refs={p['size']}: oracle spearman "
        f"{p['mean_oracle_spearman']:.6f} +- {p['half_width']:.6f} "
        f"({len(p['per_trial'])} trials)"
        for p in points
    ]
    return _emit(args, doc, lines)


def _cmd_train_lfm(args) -> int:
    names, rows, targets = lfm.parse_training_tsv(_read_text(args.train))
    model = lfm.train_ridge(
        rows,
        targets,
        alpha=args.alpha,
        feature_names=names,
        standardize=not args.no_standardize,
    )
    lfm.save_lfm_model(args.out, model)
    print(
        f"trained ridge (alpha={args.alpha:g}) on {len(rows)} rows; "
        f"kept {len(model.feature_names)}/{len(names)} features -> {args.out}"
    )
    return 0


def _cmd_check(args) -> int:
    with contextlib.ExitStack() as stack:
        suite = _build_suite(args, stack)
        sentences = read_parallel_text(args.input)
        found = suite.run_many([sentence.tokens for sentence in sentences])
    detections = []
    by_category: dict[str, int] = {}
    for index, spans in enumerate(found):
        for span in spans:
            detections.append(
                {
                    "sentence": index,
                    "start": span.start,
                    "end": span.end,
                    "category": span.category,
                }
            )
            by_category[span.category] = by_category.get(span.category, 0) + 1
    doc = build_report(detections=detections)
    lines = [f"{len(detections)} errors in {len(sentences)} sentences"] + [
        f"  {cat}: {count}" for cat, count in sorted(by_category.items())
    ]
    return _emit(args, doc, lines)


# ---------------------------------------------------------------------------
# parser


def _add_io_options(p: _Parser) -> None:
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--seed", type=int, help="random seed (else GECMETRIC_SEED, else 0)")


def _add_checker_options(p: _Parser) -> None:
    p.add_argument("--wordlist", help="one known word per line")
    p.add_argument("--checker", help="external checker command line")
    p.add_argument("--checker-timeout", type=float, default=CHECKER_TIMEOUT)


def _add_input_options(p: _Parser) -> None:
    p.add_argument("--source", help="tokenized source sentences, one per line")
    p.add_argument("--m2", help="gold annotation file (source + edits)")
    p.add_argument("--ref", action="append", default=[],
                   help="reference file; repeat for multiple references")
    p.add_argument("--hyp", action="append", required=True,
                   help="system output as ID=PATH (or PATH; id = stem)")
    _add_checker_options(p)
    p.add_argument("--model", help="fluency model JSON (lfm)")
    p.add_argument("--lm-corpus", help="text corpus to build the n-gram LM (lfm)")


def _add_metric_options(p: _Parser) -> None:
    p.add_argument("--max-n", type=int, default=GleuConfig.max_n,
                   help="n-gram order (gleu)")
    p.add_argument("--iterations", type=int, default=GleuConfig.iterations,
                   help="reference draws in sampled mode (gleu)")
    p.add_argument("--gleu-mode", choices=(SAMPLED, MEAN_OVER_ALL),
                   default=GleuConfig.multi_ref_mode,
                   help="multi-reference handling (gleu)")
    p.add_argument("--beta", type=float, default=M2Config.beta, help="F weight (m2)")
    p.add_argument("--max-unchanged", type=int, default=M2Config.max_unchanged_words,
                   help="max matched tokens inside a merged edit (m2)")
    p.add_argument("--weight", type=float, default=IMeasureConfig.weight,
                   help="true-positive weight (imeasure)")


def _sizes(text: str) -> list[int]:
    try:
        return sorted({int(s) for s in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="gecmetric", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def scoring_command(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--metric", required=True, choices=METRICS)
        p.add_argument("--mode", choices=("sentence", "corpus"),
                       default="sentence", help="headline aggregation")
        _add_input_options(p)
        _add_metric_options(p)
        _add_io_options(p)
        return p

    scoring_command("score", "score systems with one metric").set_defaults(
        func=_cmd_score
    )
    scoring_command("rank", "score and rank systems").set_defaults(func=_cmd_rank)
    correlate = scoring_command("correlate", "correlate scores with human judgments")
    correlate.add_argument("--human", required=True,
                           help="tab-separated system<TAB>score file")
    correlate.set_defaults(func=_cmd_correlate)

    def sweep_command(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--fluency-metric", required=True, choices=FLUENCY_METRICS)
        p.add_argument("--reference-metric", required=True,
                       choices=REFERENCE_METRICS)
        p.add_argument("--human", required=True,
                       help="tab-separated system<TAB>score file")
        _add_input_options(p)
        _add_metric_options(p)
        _add_io_options(p)
        return p

    sweep = sweep_command("sweep", "interpolate two metrics over lambda")
    sweep.add_argument("--gaming", action="store_true",
                       help="also rescore against permuted references")
    sweep.add_argument("--gaming-lambda", type=float, default=0.5)
    sweep.set_defaults(func=_cmd_sweep)

    ablate = sweep_command("ablate", "sweep with per-sentence reference subsets")
    ablate.add_argument("--trials", type=int, default=10)
    ablate.add_argument("--sizes", type=_sizes,
                        help="comma-separated subset sizes (default all)")
    ablate.set_defaults(func=_cmd_ablate)

    train = sub.add_parser("train-lfm", help="fit the ridge fluency model")
    train.add_argument("--train", required=True,
                       help="TSV: header row, feature columns, target last")
    train.add_argument("--alpha", type=float, default=1.0)
    train.add_argument("--no-standardize", action="store_true",
                       help="center features but do not scale them")
    train.add_argument("--out", required=True, help="model JSON path")
    train.set_defaults(func=_cmd_train_lfm)

    check = sub.add_parser("check", help="run error detectors over a text file")
    check.add_argument("--input", required=True,
                       help="tokenized sentences, one per line")
    _add_checker_options(check)
    check.add_argument("--out", help="write the JSON report here")
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    seeded = "seed" in args
    try:
        if seeded:
            args.seed, origin = _resolve_seed(args.seed)
        _check_options(args)
        code = args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DetectorError as exc:
        log.error("%s", exc)
        return 3
    except (ParseError, ValidationError, ModelError) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 1
    except MemoryError:  # e.g. a knob whose buffers cannot be allocated
        log.error("out of memory")
        return 2
    if seeded:  # logged on success only, so a failure prints one line
        log.info("seed %d (%s)", args.seed, origin)
    return code


if __name__ == "__main__":
    sys.exit(main())

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
the metric's knobs and the run's inputs into a scorer. A scorer computes
the statistics of each (system, sentence) pair once; the per-sentence
scores, their mean (the ``sentence`` headline) and the pooled corpus
score (the ``corpus`` headline; lfm has none) are all read from those
statistics. The gaming check and the reference ablation rescore through
the same scorer with other reference rows.

Exit codes: 0 success; 1 usage error or unreadable file; 2 malformed or
inconsistent data; 3 external checker failure. Logs go to stderr. With
``--out`` the report goes to that file and a short summary to stdout;
without it the report JSON itself goes to stdout. Identical invocations
with identical seeds produce byte-identical reports.

The random seed comes from ``--seed``, else the ``GECMETRIC_SEED``
environment variable, else 0; the choice is logged.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import operator
import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import analysis
from .analysis import SystemScore
from .corpus import AnnotatedSource, Sentence
from .errors import DetectorError, ModelError, ParseError, ValidationError
from .formats import (
    HumanRanking,
    build_report,
    read_human_ranking,
    read_m2_file,
    read_parallel_text,
    read_reference_files,
    render_report,
    write_report,
)
from .gleu import MEAN_OVER_ALL, SAMPLED, GleuConfig, gleu_pool, gleu_stats, sample_draws
from .grammaticality import (
    DetectorSuite,
    ExternalChecker,
    Wordlist,
    build_default_suite,
    error_count_pool,
    error_count_stats_many,
)
from .imeasure import IMeasureConfig, i_measure_pool, i_measure_stats, reference_side
from .lfm import (
    featurize,
    lfm_score,
    load_lfm_model,
    parse_training_tsv,
    save_lfm_model,
    train_lm,
    train_ridge,
)
from .maxmatch import M2Config, gold_edit_keys, m2_pool, m2_stats

__all__ = ["main", "build_parser"]

log = logging.getLogger("gecmetric")

REFERENCE_METRICS = ("gleu", "m2", "imeasure")
FLUENCY_METRICS = ("errorcount", "lfm")
ROW_METRICS = ("gleu", "imeasure")  # reference material is per-sentence rows


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

    ``stats(i, hypothesis, row)`` computes the statistics of sentence
    ``i``, where ``row`` is its reference row (None for metrics without
    rows); a metric may instead give ``batch``, which computes a list of
    such (i, hypothesis, row) items in one call. ``value`` maps statistics
    to the sentence score and ``pool`` reduces a system's statistics to
    its corpus score (None: lfm). With a ``shared`` dict, a (sentence,
    hypothesis) pair that several systems output is scored once against
    the run's own rows.
    """

    metric: str
    stats: Callable[[int, Sentence, Any], Any] | None
    pool: Callable[[list], float] | None
    rows: tuple[tuple[Sentence, ...], ...] | None = None
    value: Callable[[Any], float] = operator.attrgetter("score")
    closers: tuple = ()
    shared: dict | None = None
    batch: Callable[[list], list] | None = None


def _gleu(args, inputs: _Inputs, seed: int) -> _Scorer:
    sources, rows = inputs.sources_and_rows("gleu")
    cfg = GleuConfig(
        max_n=args.max_n,
        iterations=args.iterations,
        rng_seed=seed,
        multi_ref_mode=args.gleu_mode,
    )
    sampled = cfg.multi_ref_mode == SAMPLED
    draws = functools.cache(
        lambda i, n_refs: sample_draws(n_refs, cfg.iterations, seed, i) if sampled else None
    )
    return _Scorer(
        "gleu",
        lambda i, hyp, row: gleu_stats(sources[i], hyp, row, cfg, i, draws(i, len(row))),
        functools.partial(gleu_pool, cfg=cfg),
        rows,
        shared={},
    )


def _m2(args, inputs: _Inputs, seed: int) -> _Scorer:
    units = inputs.units
    if units is None:
        raise _UsageError("m2 needs --m2 with gold annotations")
    cfg = M2Config(beta=args.beta, max_unchanged_words=args.max_unchanged)
    gold = gold_edit_keys(units)
    return _Scorer(
        "m2",
        lambda i, hyp, row: m2_stats(units[i].source, hyp, gold[i], cfg),
        functools.partial(m2_pool, cfg=cfg),
        shared={},
    )


def _imeasure(args, inputs: _Inputs, seed: int) -> _Scorer:
    sources, rows = inputs.sources_and_rows("imeasure")
    cfg = IMeasureConfig(weight=args.weight)
    side = functools.cache(lambda i, ref: reference_side(sources[i], ref))
    return _Scorer(
        "imeasure",
        lambda i, hyp, row: i_measure_stats(
            sources[i], hyp, row, cfg, [side(i, ref) for ref in row]
        ),
        functools.partial(i_measure_pool, cfg=cfg),
        rows,
        shared={},
    )


def _errorcount(args, inputs: _Inputs, seed: int) -> _Scorer:
    suite = _build_suite(args)
    return _Scorer(
        "errorcount",
        None,
        error_count_pool,
        closers=tuple(d for d in suite.detectors if isinstance(d, ExternalChecker)),
        shared={},
        batch=lambda items: error_count_stats_many([hyp for _, hyp, _ in items], suite),
    )


def _lfm(args, inputs: _Inputs, seed: int) -> _Scorer:
    for opt in ("model", "lm_corpus", "wordlist"):
        if not getattr(args, opt):
            raise _UsageError(f"lfm needs --{opt.replace('_', '-')}")
    model = load_lfm_model(args.model)
    lm = train_lm(read_parallel_text(args.lm_corpus))
    wordlist = Wordlist.from_file(args.wordlist)
    return _Scorer(
        "lfm",
        lambda i, hyp, row: featurize(hyp, lm, wordlist),
        None,  # a per-sentence regression has nothing to pool
        value=functools.partial(lfm_score, model),
        shared={},
    )


METRICS: dict[str, Callable[..., _Scorer]] = {
    "gleu": _gleu,
    "m2": _m2,
    "imeasure": _imeasure,
    "errorcount": _errorcount,
    "lfm": _lfm,
}


def _stats(scorer: _Scorer, hyps: Sequence[Sentence], rows=None) -> list:
    memo = scorer.shared if rows is None and scorer.shared is not None else {}
    rows = scorer.rows if rows is None else rows
    todo = [
        (i, hyp, None if rows is None else rows[i])
        for i, hyp in enumerate(hyps)
        if (i, hyp.tokens) not in memo
    ]
    compute = scorer.batch or (lambda items: [scorer.stats(*item) for item in items])
    memo.update(zip([(i, hyp.tokens) for i, hyp, _ in todo], compute(todo)))
    return [memo[i, hyp.tokens] for i, hyp in enumerate(hyps)]


def _sentence_scores(scorer: _Scorer, hyps: Sequence[Sentence], rows) -> list[float]:
    return [scorer.value(s) for s in _stats(scorer, hyps, rows)]


def _system_score(
    scorer: _Scorer, system_id: str, hyps: Sequence[Sentence], mode: str = "sentence"
) -> SystemScore:
    stats = _stats(scorer, hyps)
    per = tuple(scorer.value(s) for s in stats)
    return SystemScore(
        system_id=system_id,
        metric=scorer.metric,
        mode=mode,
        per_sentence=per,
        mean_sentence_score=analysis.mean_score(per),
        corpus_score=None if scorer.pool is None else scorer.pool(stats),
    )


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
    if not getattr(args, "hyp", None):
        raise _UsageError("at least one --hyp is required")
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
    rows = read_reference_files(args.ref).per_sentence if args.ref else None
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


@contextlib.contextmanager
def _scorers(args, metrics: Sequence[str], seed: int):
    """Load the systems and inputs once and bind each metric to them;
    yields (systems, scorers) and closes external checkers afterwards."""
    systems = _load_systems(args)
    inputs = _load_inputs(args)
    scorers: list[_Scorer] = []
    try:
        for metric in metrics:
            scorers.append(METRICS[metric](args, inputs, seed))
        _check_lengths(systems, inputs)
        yield systems, scorers
    finally:
        for scorer in scorers:
            for closer in scorer.closers:
                closer.close()


def _build_suite(args) -> DetectorSuite:
    detectors: list = []
    if getattr(args, "wordlist", None):
        wordlist = Wordlist.from_file(args.wordlist)
        detectors.extend(build_default_suite(wordlist).detectors)
    if getattr(args, "checker", None):
        command = shlex.split(args.checker)
        detectors.append(
            ExternalChecker(command, timeout=args.checker_timeout)
        )
    if not detectors:
        raise _UsageError("need --wordlist and/or --checker")
    return DetectorSuite(detectors)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        log.info("seed %d (from --seed)", args.seed)
        return args.seed
    raw = os.environ.get("GECMETRIC_SEED")
    if raw is not None and raw.strip():
        try:
            value = int(raw)
        except ValueError:
            raise _UsageError(
                f"GECMETRIC_SEED must be an integer, got {raw!r}"
            ) from None
        log.info("seed %d (from GECMETRIC_SEED)", value)
        return value
    log.info("seed 0 (default)")
    return 0


def _load_human(args) -> HumanRanking:
    if not getattr(args, "human", None):
        raise _UsageError("--human is required")
    return read_human_ranking(args.human)


# ---------------------------------------------------------------------------
# report assembly


def _system_entry(score: SystemScore) -> dict:
    return {
        "id": score.system_id,
        "metric": score.metric,
        "mode": score.mode,
        "mean_sentence_score": score.mean_sentence_score,
        "corpus_score": score.corpus_score,
        "per_sentence": list(score.per_sentence),
    }


def _sweep_section(result: analysis.LambdaSweepResult) -> dict:
    return {
        "points": [
            {"lambda": p.lam, "spearman": p.spearman, "pearson": p.pearson}
            for p in result.points
        ],
        "oracle_lambda": result.oracle.lam,
        "oracle_spearman": result.oracle.spearman,
        "oracle_pearson": result.oracle.pearson,
    }


def _emit(args, doc: dict, summary_lines: list[str]) -> int:
    if getattr(args, "out", None):
        write_report(args.out, doc)
        for line in summary_lines:
            print(line)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(render_report(doc))
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _scored_systems(args, seed: int) -> dict[str, SystemScore]:
    with _scorers(args, [args.metric], seed) as (systems, (scorer,)):
        if args.mode == "corpus" and scorer.pool is None:
            raise ValidationError(
                f"metric {args.metric!r} has no corpus-level aggregation; "
                "use --mode sentence"
            )
        return {
            sid: _system_score(scorer, sid, systems[sid], args.mode)
            for sid in sorted(systems)
        }


def _summary_table(scores: Mapping[str, SystemScore]) -> list[str]:
    width = max(len("system"), max(len(sid) for sid in scores))
    lines = [f"{'system':<{width}}  {'metric':<10}  {'mode':<8}  score"]
    for sid in sorted(scores):
        s = scores[sid]
        lines.append(
            f"{sid:<{width}}  {s.metric:<10}  {s.mode:<8}  {s.headline:.6f}"
        )
    return lines


def _cmd_score(args) -> int:
    seed = _resolve_seed(args)
    scores = _scored_systems(args, seed)
    doc = build_report(
        systems=[_system_entry(scores[sid]) for sid in sorted(scores)]
    )
    return _emit(args, doc, _summary_table(scores))


def _cmd_rank(args) -> int:
    seed = _resolve_seed(args)
    scores = _scored_systems(args, seed)
    ranked = analysis.rank_systems({sid: s.headline for sid, s in scores.items()})
    doc = build_report(
        systems=[_system_entry(scores[sid]) for sid in sorted(scores)],
        rankings=[
            {"system": r.system_id, "score": r.score, "rank": r.rank}
            for r in ranked
        ],
    )
    lines = ["rank  system  score"] + [
        f"{r.rank:>4g}  {r.system_id}  {r.score:.6f}" for r in ranked
    ]
    return _emit(args, doc, lines)


def _cmd_correlate(args) -> int:
    seed = _resolve_seed(args)
    human = _load_human(args)
    scores = _scored_systems(args, seed)
    ids = sorted(scores)
    missing = [sid for sid in ids if sid not in human.scores]
    if missing:
        raise ValidationError(f"human ranking is missing systems: {missing}")
    ours = [scores[sid].headline for sid in ids]
    theirs = [human.score_for(sid) for sid in ids]
    rho = analysis.spearman(ours, theirs)
    r = analysis.pearson(ours, theirs)
    label = f"{args.metric}:{args.mode}"
    doc = build_report(
        systems=[_system_entry(scores[sid]) for sid in ids],
        correlations=[
            {"label": label, "spearman": rho, "pearson": r, "n_systems": len(ids)}
        ],
    )
    lines = _summary_table(scores) + [
        f"{label}: spearman={rho:.6f} pearson={r:.6f} over {len(ids)} systems"
    ]
    return _emit(args, doc, lines)


def _score_tables(systems, scorers) -> list[dict[str, SystemScore]]:
    """Each scorer's sentence-mode score of every system."""
    return [
        {sid: _system_score(scorer, sid, systems[sid]) for sid in sorted(systems)}
        for scorer in scorers
    ]


def _sweep(human: HumanRanking, fluency, reference) -> analysis.LambdaSweepResult:
    return analysis.sweep_lambda(
        {sid: s.per_sentence for sid, s in fluency.items()},
        {sid: s.per_sentence for sid, s in reference.items()},
        human.scores,
    )


def _sweep_system_entries(fluency, reference) -> list[dict]:
    return [
        _system_entry(table[sid])
        for sid in sorted(fluency)
        for table in (fluency, reference)
    ]


def _permuted_scores(scorer: _Scorer, hyps: Sequence[Sentence], perm) -> list[float]:
    return _sentence_scores(scorer, hyps, [scorer.rows[p] for p in perm])


def _cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    human = _load_human(args)
    if args.gaming and args.reference_metric not in ROW_METRICS:
        raise _UsageError(f"--gaming needs a reference metric in {ROW_METRICS}")
    metrics = [args.fluency_metric, args.reference_metric]
    with _scorers(args, metrics, seed) as (systems, scorers):
        fluency, reference = _score_tables(systems, scorers)
        result = _sweep(human, fluency, reference)
        section = _sweep_section(result)
        lines = [
            f"oracle lambda={result.oracle.lam:.2f} "
            f"spearman={result.oracle.spearman:.6f} "
            f"pearson={result.oracle.pearson:.6f}"
        ]
        if args.gaming:
            gaming = []
            for sid in sorted(systems):
                report = analysis.gaming_check(
                    fluency[sid].per_sentence,
                    reference[sid].per_sentence,
                    functools.partial(_permuted_scores, scorers[1], systems[sid]),
                    seed=seed,
                    lam=args.gaming_lambda,
                )
                gaming.append(
                    {
                        "system": sid,
                        "lambda": report.lam,
                        "rbm_true_mean": report.rbm_true_mean,
                        "rbm_shuffled_mean": report.rbm_shuffled_mean,
                        "rbm_drop": report.rbm_drop,
                        "rbm_relative_drop": report.rbm_relative_drop,
                        "interpolated_true_mean": report.interpolated_true_mean,
                        "interpolated_shuffled_mean": report.interpolated_shuffled_mean,
                        "interpolated_drop": report.interpolated_drop,
                    }
                )
                lines.append(
                    f"gaming {sid}: reference drop {report.rbm_drop:+.6f}, "
                    f"interpolated drop {report.interpolated_drop:+.6f}"
                )
            section["gaming"] = gaming
    doc = build_report(systems=_sweep_system_entries(fluency, reference), sweep=section)
    return _emit(args, doc, lines)


def _subset_scores(scorer: _Scorer, systems, picks) -> dict[str, list[float]]:
    rows = [tuple(scorer.rows[i][j] for j in pick) for i, pick in enumerate(picks)]
    return {
        sid: _sentence_scores(scorer, systems[sid], rows) for sid in sorted(systems)
    }


def _cmd_ablate(args) -> int:
    seed = _resolve_seed(args)
    human = _load_human(args)
    if args.reference_metric not in ROW_METRICS:
        raise _UsageError(f"ablate needs a reference metric in {ROW_METRICS}")
    metrics = [args.fluency_metric, args.reference_metric]
    with _scorers(args, metrics, seed) as (systems, scorers):
        fluency, reference = _score_tables(systems, scorers)
        result = _sweep(human, fluency, reference)
        scorer = scorers[1]
        points = analysis.ablate_references(
            {sid: s.per_sentence for sid, s in fluency.items()},
            functools.partial(_subset_scores, scorer, systems),
            len(scorer.rows[0]),
            human.scores,
            sizes=args.sizes,
            trials=args.trials,
            seed=seed,
        )
    doc = build_report(
        systems=_sweep_system_entries(fluency, reference),
        sweep=_sweep_section(result),
        ablation=[
            {
                "size": p.size,
                "mean_oracle_spearman": p.mean_oracle_spearman,
                "half_width": p.half_width,
                "per_trial": list(p.per_trial),
            }
            for p in points
        ],
    )
    lines = [
        f"refs={p.size}: oracle spearman "
        f"{p.mean_oracle_spearman:.6f} +- {p.half_width:.6f} "
        f"({len(p.per_trial)} trials)"
        for p in points
    ]
    return _emit(args, doc, lines)


def _cmd_train_lfm(args) -> int:
    with open(args.train, encoding="utf-8-sig", newline="") as handle:
        names, rows, targets = parse_training_tsv(handle.read())
    model = train_ridge(
        rows,
        targets,
        alpha=args.alpha,
        feature_names=names,
        standardize=not args.no_standardize,
    )
    save_lfm_model(args.out, model)
    print(
        f"trained ridge (alpha={args.alpha:g}) on {len(rows)} rows; "
        f"kept {len(model.feature_names)}/{len(names)} features -> {args.out}"
    )
    return 0


def _cmd_check(args) -> int:
    suite = _build_suite(args)
    sentences = read_parallel_text(args.input)
    closers = [d for d in suite.detectors if isinstance(d, ExternalChecker)]
    try:
        detections = []
        by_category: dict[str, int] = {}
        found = suite.run_many([sentence.tokens for sentence in sentences])
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
    finally:
        for checker in closers:
            checker.close()
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


def _add_input_options(p: _Parser) -> None:
    p.add_argument("--source", help="tokenized source sentences, one per line")
    p.add_argument("--m2", help="gold annotation file (source + edits)")
    p.add_argument("--ref", action="append", default=[],
                   help="reference file; repeat for multiple references")
    p.add_argument("--hyp", action="append", default=[],
                   help="system output as ID=PATH (or PATH; id = stem)")
    p.add_argument("--wordlist", help="one known word per line")
    p.add_argument("--checker", help="external checker command line")
    p.add_argument("--checker-timeout", type=float, default=10.0)
    p.add_argument("--model", help="fluency model JSON (lfm)")
    p.add_argument("--lm-corpus", help="text corpus to build the n-gram LM (lfm)")


def _add_metric_options(p: _Parser) -> None:
    p.add_argument("--max-n", type=int, default=4, help="n-gram order (gleu)")
    p.add_argument("--iterations", type=int, default=500,
                   help="reference draws in sampled mode (gleu)")
    p.add_argument("--gleu-mode", choices=(SAMPLED, MEAN_OVER_ALL),
                   default=SAMPLED, help="multi-reference handling (gleu)")
    p.add_argument("--beta", type=float, default=0.5, help="F weight (m2)")
    p.add_argument("--max-unchanged", type=int, default=2,
                   help="max matched tokens inside a merged edit (m2)")
    p.add_argument("--weight", type=float, default=2.0,
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
    parser.add_argument("--version", action="version", version="%(prog)s 0.1.0")
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
    correlate.add_argument("--human", help="tab-separated system<TAB>score file")
    correlate.set_defaults(func=_cmd_correlate)

    def sweep_command(name: str, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--fluency-metric", required=True, choices=FLUENCY_METRICS)
        p.add_argument("--reference-metric", required=True,
                       choices=REFERENCE_METRICS)
        p.add_argument("--human", help="tab-separated system<TAB>score file")
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
    check.add_argument("--wordlist", help="one known word per line")
    check.add_argument("--checker", help="external checker command line")
    check.add_argument("--checker-timeout", type=float, default=10.0)
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
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())

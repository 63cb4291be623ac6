"""Interpolation of fluency and reference metrics, and meta-evaluation.

The combined score of a sentence is ``(1 - lam) * fluency + lam *
reference`` with ``lam`` in [0, 1]; both endpoints reproduce the input
scores exactly. The oracle ``lam`` is found by sweeping the 101-point
grid 0.00, 0.01, ..., 1.00 and keeping the value whose system-level
means correlate best (Spearman) with a human ranking, preferring the
smallest ``lam`` on ties. A system's mean is linear in ``lam``, so the
sweep averages each system's fluency and reference scores once and
interpolates the two means at every grid point.

Also here: rank aggregation with tie-averaged ranks, Spearman/Pearson
correlation, Fisher-z comparison of two correlations, reference
ablation (oracle correlation as a function of how many references each
sentence keeps), and a gaming check that compares a system's scores with
its scores against permuted sentence slots — a reference metric that does
not drop under that permutation is not actually using the references.

Score tables are mappings from system id to per-sentence score lists;
all table operations order systems by sorted id so results never depend
on dict insertion order. Results are the report's own sections, as plain
dicts and lists with the report's key names and order: the ``rankings``
rows, the ``sweep`` section, the ``ablation`` rows and a ``gaming`` row
without its ``system`` key.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ValidationError

__all__ = [
    "LAMBDA_GRID",
    "MAX_TRIALS",
    "mean_score",
    "check_lambda",
    "check_ablation",
    "interpolate_value",
    "rank_systems",
    "spearman",
    "pearson",
    "fisher_z",
    "compare_correlations",
    "sweep_lambda",
    "sample_reference_subset",
    "ablate_references",
    "gaming_permutation",
    "gaming_check",
]

LAMBDA_GRID = tuple(k / 100.0 for k in range(101))
MAX_TRIALS = 10_000  # ablation trials per subset size


def mean_score(values: Sequence[float]) -> float:
    """Arithmetic mean; a run of identical values returns that value exactly."""
    if not values:
        raise ValidationError("cannot average an empty score list")
    first = values[0]
    if values.count(first) == len(values):
        return first
    return math.fsum(values) / len(values)


def _check_sizes(**columns: Sequence) -> None:
    """Raise :class:`ValidationError` unless the named columns are equally long."""
    if len({len(column) for column in columns.values()}) > 1:
        sizes = ", ".join(f"{len(column)} {name}" for name, column in columns.items())
        raise ValidationError(f"size mismatch: {sizes}")


def _reducer(n: int, pool: Callable[[Sequence], float], mode: str) -> Callable:
    """The reducer of ``n`` sentences' statistics in aggregation ``mode``:
    ``pool`` in ``corpus`` mode, the mean ``score`` in ``sentence`` mode.
    Raises :class:`ValidationError` for an empty corpus or an unknown mode."""
    if not n:
        raise ValidationError("empty corpus")
    if mode not in ("sentence", "corpus"):
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    if mode == "corpus":
        return pool
    return lambda stats: mean_score([s.score for s in stats])


def check_lambda(lam: float) -> None:
    """Raise :class:`ValidationError` unless ``lam`` is in [0, 1]."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0, 1], got {lam}")


def interpolate_value(fluency: float, reference: float, lam: float) -> float:
    """(1 - lam) * fluency + lam * reference; endpoints are exact."""
    check_lambda(lam)
    return (1.0 - lam) * fluency + lam * reference


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ascending ranks with ties sharing their average position."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]] == values[order[pos]]:
            end += 1
        avg = (pos + end) / 2.0 + 1.0
        for k in range(pos, end + 1):
            ranks[order[k]] = avg
        pos = end + 1
    return ranks


def rank_systems(scores: Mapping[str, float]) -> list[dict]:
    """``{"system", "score", "rank"}`` rows, ranked descending by score
    (rank 1 is best) with tied ranks averaged, best first."""
    if not scores:
        raise ValidationError("no systems to rank")
    _check_finite(scores.values())
    ids = sorted(scores)
    ranks = _average_ranks([-scores[s] for s in ids])
    ranked = [{"system": s, "score": scores[s], "rank": r} for s, r in zip(ids, ranks)]
    ranked.sort(key=lambda row: (row["rank"], row["system"]))
    return ranked


def _check_finite(values: Iterable[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"values must be finite, got {v}")


def _check_pairs(x: Sequence[float], y: Sequence[float], least: int) -> None:
    if len(x) != len(y):
        raise ValidationError(f"size mismatch: {len(x)} vs {len(y)} values")
    if len(x) < least:
        raise ValidationError(f"need at least {least} points, got {len(x)}")
    _check_finite([*x, *y])


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    _check_pairs(x, y, 2)
    n = len(x)
    # each input times the power of two that brings its largest magnitude into
    # [0.5, 1): exact, so no sum of squared deviations overflows or underflows
    # to 0; squares are products, as pow() may round them differently per scale
    shifts = [-math.frexp(max(map(abs, s)))[1] for s in (x, y)]
    x, y = ([math.ldexp(v, k) for v in s] for s, k in zip((x, y), shifts))
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    vx = math.fsum((xi - mx) * (xi - mx) for xi in x)
    vy = math.fsum((yi - my) * (yi - my) for yi in y)
    if vx == 0.0 or vy == 0.0:
        raise ValidationError("correlation is undefined for constant inputs")
    r = cov / math.sqrt(vx * vy)
    return max(-1.0, min(1.0, r))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    _check_pairs(x, y, 3)
    return pearson(_average_ranks(x), _average_ranks(y))


def fisher_z(r: float) -> float:
    """Fisher transform atanh(r); defined only for |r| < 1."""
    if not -1.0 < r < 1.0:
        raise ValidationError(f"correlation must be strictly inside (-1, 1), got {r}")
    return math.atanh(r)


def compare_correlations(r1: float, n1: int, r2: float, n2: int) -> tuple[float, float]:
    """Two-sided z test for a difference of independent correlations:
    ``(z, p_value)``.

    Two metrics correlated with the same human ranking are dependent, so
    this is not the test for whether one beats the other (such as the
    interpolated metric against lambda 0 or 1); Williams (1959) is.
    """
    for n in (n1, n2):
        if n < 4:
            raise ValidationError(f"need at least 4 samples per correlation, got {n}")
    z = (fisher_z(r1) - fisher_z(r2)) / math.sqrt(
        1.0 / (n1 - 3) + 1.0 / (n2 - 3)
    )
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p


def _check_tables(
    fluency: Mapping[str, Sequence[float]], reference: Mapping[str, Sequence[float]]
) -> list[str]:
    systems = sorted(fluency)
    if sorted(reference) != systems:
        raise ValidationError(
            f"score tables disagree on systems: {systems} vs {sorted(reference)}"
        )
    if not systems:
        raise ValidationError("empty score table")
    lengths = {len(fluency[s]) for s in systems} | {len(reference[s]) for s in systems}
    if len(lengths) != 1:
        raise ValidationError(f"inconsistent sentence counts across tables: {lengths}")
    if lengths == {0}:
        raise ValidationError("score tables have no sentences")
    return systems


def sweep_lambda(
    fluency: Mapping[str, Sequence[float]],
    reference: Mapping[str, Sequence[float]],
    human: Mapping[str, float],
) -> dict:
    """Correlation with the human ranking at every grid value of lambda:
    ``points`` of ``{"lambda", "spearman", "pearson"}``, then the oracle's
    ``oracle_lambda``, ``oracle_spearman`` and ``oracle_pearson``."""
    systems = _check_tables(fluency, reference)
    missing = [s for s in systems if s not in human]
    if missing:
        raise ValidationError(f"human ranking is missing systems: {missing}")
    human_values = [human[s] for s in systems]
    # a system's mean of interpolated sentence scores is, up to rounding,
    # the interpolation of its two means: each grid point interpolates those
    means = [(mean_score(fluency[s]), mean_score(reference[s])) for s in systems]
    points = []
    for lam in LAMBDA_GRID:
        scores = [interpolate_value(f, r, lam) for f, r in means]
        points.append(
            {
                "lambda": lam,
                "spearman": spearman(scores, human_values),
                "pearson": pearson(scores, human_values),
            }
        )
    oracle = points[0]
    for point in points[1:]:
        if point["spearman"] > oracle["spearman"]:
            oracle = point
    return {
        "points": points,
        "oracle_lambda": oracle["lambda"],
        "oracle_spearman": oracle["spearman"],
        "oracle_pearson": oracle["pearson"],
    }


def check_ablation(n_refs: int, sizes: Sequence[int] | None, trials: int) -> None:
    """Raise :class:`ValidationError` unless there is a reference, each of
    ``sizes`` (None: every size) is in [1, ``n_refs``] and ``trials`` is
    in [1, ``MAX_TRIALS``]."""
    if n_refs < 1:
        raise ValidationError(f"n_refs must be >= 1, got {n_refs}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValidationError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    for size in sizes or ():
        if not 1 <= size <= n_refs:
            raise ValidationError(f"subset size {size} not in [1, {n_refs}]")


def sample_reference_subset(
    n_refs: int, size: int, seed: int, trial: int, sentence_index: int
) -> list[int]:
    """Deterministic without-replacement reference pick for one sentence."""
    if not 1 <= size <= n_refs:
        raise ValidationError(f"subset size {size} not in [1, {n_refs}]")
    rng = random.Random(f"{seed}:ablate:{size}:{trial}:{sentence_index}")
    return sorted(rng.sample(range(n_refs), size))


def ablate_references(
    fluency: Mapping[str, Sequence[float]],
    reference_scorer: Callable[[Sequence[Sequence[int]]], Mapping[str, Sequence[float]]],
    n_refs: int,
    human: Mapping[str, float],
    sizes: Sequence[int] | None = None,
    trials: int = 10,
    seed: int = 0,
) -> list[dict]:
    """Oracle correlation as a function of the per-sentence reference budget.

    For every subset size, each trial draws an independent reference
    subset per sentence, asks ``reference_scorer`` to rescore all systems
    with those subsets, reruns the lambda sweep, and records the oracle
    Spearman; a trial whose picks repeat an earlier trial's reuses its
    Spearman. Each size gives a ``{"size", "mean_oracle_spearman",
    "half_width", "per_trial"}`` row: the trial mean, a
    normal-approximation 95% half-width (0 when there is a single trial)
    and each trial's Spearman. The knobs are checked by
    :func:`check_ablation` before anything is scored.
    """
    check_ablation(n_refs, sizes, trials)
    if sizes is None:
        sizes = range(1, n_refs + 1)
    systems = sorted(fluency)
    if not systems:
        raise ValidationError("empty score table")
    n_sentences = len(fluency[systems[0]])
    points = []
    # oracle Spearman by pick set: a size equal to n_refs picks every
    # reference in every trial, so its sweep runs once
    oracles: dict[tuple[tuple[int, ...], ...], float] = {}
    for size in sizes:
        per_trial = []
        for trial in range(trials):
            picks = tuple(
                tuple(sample_reference_subset(n_refs, size, seed, trial, i))
                for i in range(n_sentences)
            )
            if picks not in oracles:
                table = reference_scorer(picks)
                oracles[picks] = sweep_lambda(fluency, table, human)["oracle_spearman"]
            per_trial.append(oracles[picks])
        mean = math.fsum(per_trial) / trials
        if trials > 1:
            var = math.fsum((v - mean) ** 2 for v in per_trial) / (trials - 1)
            half = 1.96 * math.sqrt(var) / math.sqrt(trials)
        else:
            half = 0.0
        points.append(
            {
                "size": size,
                "mean_oracle_spearman": mean,
                "half_width": half,
                "per_trial": per_trial,
            }
        )
    return points


def gaming_permutation(n: int, seed: int = 0) -> list[int]:
    """The gaming check's fixed-point-free permutation of ``n`` sentence
    slots, from a stream of the seed's own."""
    if n < 2:
        raise ValidationError(f"gaming check needs at least 2 sentences, got {n}")
    rng = random.Random(f"{seed}:gaming")
    for _ in range(100):
        perm = list(range(n))
        rng.shuffle(perm)
        if all(p != i for i, p in enumerate(perm)):
            return perm
    return [(i + 1) % n for i in range(n)]  # rotation: fixed-point free


def gaming_check(
    fluency: Sequence[float],
    reference: Sequence[float],
    shuffled: Sequence[float],
    lam: float = 0.5,
) -> dict:
    """Compare one system's scores with its scores against permuted
    sentence slots.

    ``shuffled`` holds the per-sentence reference scores with sentence
    ``i`` scored against the reference material of sentence ``perm[i]``,
    for a :func:`gaming_permutation` ``perm``. A metric that truly uses
    the references should drop; the row gives ``lambda`` and the
    reference-metric (``rbm_*``) and interpolated-metric
    (``interpolated_*``) means before and after, and their drops. Unequal
    lengths and ``lam`` outside [0, 1] raise :class:`ValidationError`.
    """
    _check_sizes(fluency=fluency, reference=reference, shuffled=shuffled)
    interp_true, interp_shuffled = (
        mean_score([interpolate_value(f, r, lam) for f, r in zip(fluency, scores)])
        for scores in (reference, shuffled)
    )
    rbm_true = mean_score(reference)
    rbm_shuffled = mean_score(shuffled)
    return {
        "lambda": lam,
        "rbm_true_mean": rbm_true,
        "rbm_shuffled_mean": rbm_shuffled,
        "rbm_drop": rbm_true - rbm_shuffled,
        "rbm_relative_drop": (
            (rbm_true - rbm_shuffled) / rbm_true if rbm_true != 0.0 else None
        ),
        "interpolated_true_mean": interp_true,
        "interpolated_shuffled_mean": interp_shuffled,
        "interpolated_drop": interp_true - interp_shuffled,
    }

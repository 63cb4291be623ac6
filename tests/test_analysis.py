import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gecmetric.analysis import (
    LAMBDA_GRID,
    MAX_TRIALS,
    ablate_references,
    compare_correlations,
    fisher_z,
    gaming_check,
    gaming_permutation,
    interpolate_value,
    mean_score,
    pearson,
    rank_systems,
    sample_reference_subset,
    spearman,
    sweep_lambda,
)
from gecmetric.errors import ValidationError


def test_lambda_grid_shape():
    assert len(LAMBDA_GRID) == 101
    assert LAMBDA_GRID[0] == 0.0
    assert LAMBDA_GRID[-1] == 1.0
    assert LAMBDA_GRID[50] == 0.5


def test_mean_score():
    assert mean_score([1.0, 2.0, 4.0]) == pytest.approx(7.0 / 3.0)
    assert mean_score([0.3] * 5) == 0.3  # all-equal short circuit is exact
    with pytest.raises(ValidationError):
        mean_score([])


def _scanned_mean(values):
    """mean_score with its identical-values test written as a Python scan."""
    first = values[0]
    if all(v == first for v in values):
        return first
    return math.fsum(values) / len(values)


@pytest.mark.parametrize(
    "values",
    [
        [math.nan],
        [math.nan, math.nan],
        [1.0, math.nan],
        [math.nan, 1.0],
        [0.0, -0.0],
        [-0.0, 0.0, -0.0],
        [math.inf, math.inf],
        [-math.inf],
        [math.inf, 1.0],
        [0.7],
        [0.1] * 7,
        [0.1, 0.2, 0.3],
        [0.5, 0.5, 0.25],
    ],
)
def test_mean_score_equals_the_scan(values):
    want = repr(_scanned_mean(values))  # so that nan and the sign of zero count
    assert repr(mean_score(values)) == repr(mean_score(tuple(values))) == want


@pytest.mark.parametrize(
    "values, error", [([math.inf, -math.inf], ValueError), ([1e308, 1e308, 1.0], OverflowError)]
)
def test_mean_score_fails_like_the_scan(values, error):
    with pytest.raises(error):
        _scanned_mean(values)
    with pytest.raises(error):
        mean_score(values)


def test_interpolate_endpoints_are_bit_exact():
    f, r = 0.123456789, 0.987654321
    assert interpolate_value(f, r, 0.0) == f
    assert interpolate_value(f, r, 1.0) == r


def test_interpolate_value_midpoint():
    assert interpolate_value(0.0, 1.0, 0.25) == pytest.approx(0.25, abs=1e-15)


def test_interpolate_rejects_out_of_range_lambda():
    with pytest.raises(ValidationError):
        interpolate_value(0.0, 1.0, 1.5)
    with pytest.raises(ValidationError):
        interpolate_value(0.0, 1.0, -0.01)


def test_interpolate_vectors():
    """Scores interpolate pair by pair, as the gaming check's means do; the
    gaming check rejects score lists of unequal length."""
    fluency, reference = [0.0, 1.0], [1.0, 0.0]
    out = [interpolate_value(f, r, 0.5) for f, r in zip(fluency, reference)]
    assert out == [0.5, 0.5]
    assert gaming_check(fluency, reference, reference, 0.5)["interpolated_true_mean"] == 0.5
    with pytest.raises(ValidationError):
        gaming_check([0.0], [1.0, 2.0], [1.0, 2.0], 0.5)


@given(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.integers(0, 100),
)
@settings(max_examples=300, deadline=None)
def test_interpolation_linearity_against_two_point_line(f, r, k):
    lam = LAMBDA_GRID[k]
    got = interpolate_value(f, r, lam)
    line = f + (r - f) * lam
    assert got == pytest.approx(line, abs=1e-15)
    assert min(f, r) - 1e-15 <= got <= max(f, r) + 1e-15


def test_rank_systems_average_ties():
    ranked = rank_systems({"A": 0.5, "B": 0.5, "C": 0.1})
    assert ranked == [
        {"system": "A", "score": 0.5, "rank": 1.5},
        {"system": "B", "score": 0.5, "rank": 1.5},
        {"system": "C", "score": 0.1, "rank": 3.0},
    ]


def test_rank_systems_descending():
    ranked = rank_systems({"x": 0.2, "y": 0.9, "z": 0.5})
    assert [(r["system"], r["rank"]) for r in ranked] == [
        ("y", 1.0),
        ("z", 2.0),
        ("x", 3.0),
    ]


def test_pearson_hand_value():
    got = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert got == pytest.approx(0.9819805060619656, abs=1e-12)


def test_pearson_perfect_and_inverse():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_rejects_constant_input():
    with pytest.raises(ValidationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_needs_two_points():
    with pytest.raises(ValidationError):
        pearson([1.0], [2.0])


@pytest.mark.parametrize("scale", [600, -560])
def test_pearson_of_huge_or_tiny_values(scale):
    """Squared deviations of 2**600 overflow, and those of 2**-560
    underflow to 0; scaled inputs correlate as the unscaled ones."""
    x, y = [1.0, -1.0, 0.0, 4.0], [3.0, 1.0, 2.0, 2.0]
    assert pearson([math.ldexp(v, scale) for v in x], y) == pearson(x, y)


def _unscaled_pearson(x, y):
    """pearson's sums without the power-of-two scaling."""
    n = len(x)
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    cov = math.fsum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    vx = math.fsum((xi - mx) * (xi - mx) for xi in x)
    vy = math.fsum((yi - my) * (yi - my) for yi in y)
    return max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))


def _correlation_outcome(x, y):
    try:
        return pearson(x, y)
    except ValidationError as exc:
        return str(exc)


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# magnitudes whose squared deviations neither overflow nor underflow
_MODERATE = st.just(0.0) | st.floats(1e-50, 1e50) | st.floats(-1e50, -1e-50)


@given(st.lists(st.tuples(_ANY_FINITE, _ANY_FINITE), min_size=2, max_size=8),
       st.integers(-1100, 1100))
@settings(max_examples=300, deadline=None)
def test_pearson_is_invariant_under_power_of_two_scaling(pairs, k):
    x, y = map(list, zip(*pairs))
    assume(math.frexp(max(map(abs, x)))[1] + k <= 1024)  # 2**k * x is finite
    scaled = [math.ldexp(v, k) for v in x]
    assume(all(math.ldexp(v, -k) == u for u, v in zip(x, scaled)))  # and exact
    assert _correlation_outcome(scaled, y) == _correlation_outcome(x, y)


@given(st.lists(st.tuples(_MODERATE, _MODERATE), min_size=2, max_size=8))
# pow(d, 2) of this y's deviations rounds differently once y is scaled
@example([(0.0, 0.0)] * 6 + [(0.0, -6.59301199610566e49), (27.0, 5.274207078547161e49)])
@settings(max_examples=300, deadline=None)
def test_pearson_equals_its_unscaled_sums_where_they_are_exact(pairs):
    x, y = map(list, zip(*pairs))
    outcome = _correlation_outcome(x, y)
    if isinstance(outcome, float):
        assert outcome == _unscaled_pearson(x, y)


def test_spearman_hand_value():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)


def test_spearman_is_tie_safe():
    got = spearman([1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert 0.0 < got < 1.0


def test_spearman_needs_three_points():
    with pytest.raises(ValidationError):
        spearman([1.0, 2.0], [2.0, 1.0])


def test_spearman_equals_pearson_on_preranked_data():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 1.0, 4.0, 5.0, 3.0]
    assert spearman(x, y) == pytest.approx(pearson(x, y), abs=1e-12)


@pytest.mark.parametrize(
    "call, args",
    [
        (pearson, ([math.nan, 1.0, 2.0], [1.0, 2.0, 3.0])),
        (pearson, ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0])),
        (spearman, ([1.0, 2.0, 3.0], [3.0, math.nan, 1.0])),
        (spearman, ([-math.inf, 2.0, 3.0], [3.0, 2.0, 1.0])),
        (rank_systems, ({"a": math.nan, "b": 1.0, "c": 2.0},)),
    ],
)
def test_a_non_finite_value_is_rejected_not_ranked(call, args):
    """A NaN neither clamps to a correlation of 1 nor ranks first."""
    with pytest.raises(ValidationError, match="values must be finite"):
        call(*args)


def test_fisher_z_hand_value():
    assert fisher_z(0.6) == pytest.approx(math.log(2.0), abs=1e-12)
    assert fisher_z(0.0) == 0.0
    with pytest.raises(ValidationError):
        fisher_z(1.0)


def test_compare_correlations_equal_inputs_give_p_one():
    z, p_value = compare_correlations(0.8, 30, 0.8, 30)
    assert z == 0.0
    assert p_value == pytest.approx(1.0, abs=1e-15)


def test_compare_correlations_direction():
    z, p_value = compare_correlations(0.9, 50, 0.1, 50)
    assert z > 0
    assert p_value < 0.05


def test_compare_correlations_validates():
    with pytest.raises(ValidationError):
        compare_correlations(0.5, 3, 0.5, 30)
    with pytest.raises(ValidationError):
        compare_correlations(1.0, 30, 0.5, 30)


def _tables():
    # Four systems, three sentences; fluency prefers A, reference prefers D.
    # Chosen so no grid lambda collapses every interpolated mean to the same
    # value (that would make the correlation undefined mid-sweep).
    fluency = {
        "A": [0.9, 0.9, 0.9],
        "B": [0.7, 0.7, 0.7],
        "C": [0.5, 0.5, 0.5],
        "D": [0.3, 0.3, 0.3],
    }
    reference = {
        "A": [0.1, 0.1, 0.1],
        "B": [0.4, 0.4, 0.4],
        "C": [0.6, 0.6, 0.6],
        "D": [0.9, 0.9, 0.9],
    }
    return fluency, reference


def test_sweep_lambda_endpoints_match_component_metrics():
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    result = sweep_lambda(fluency, reference, human)
    assert list(result) == ["points", "oracle_lambda", "oracle_spearman", "oracle_pearson"]
    assert len(result["points"]) == 101
    assert list(result["points"][0]) == ["lambda", "spearman", "pearson"]
    assert result["points"][0]["lambda"] == 0.0
    assert result["points"][0]["spearman"] == pytest.approx(1.0)  # fluency order
    assert result["points"][-1]["spearman"] == pytest.approx(-1.0)  # reference order


def test_sweep_lambda_oracle_maximizes_spearman():
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    result = sweep_lambda(fluency, reference, human)
    best = max(result["points"], key=lambda p: p["spearman"])  # first of ties
    assert result["oracle_spearman"] == best["spearman"]
    assert result["oracle_lambda"] == best["lambda"]
    assert result["oracle_pearson"] == best["pearson"]
    assert result["oracle_spearman"] >= max(
        result["points"][0]["spearman"], result["points"][-1]["spearman"]
    )


def test_sweep_lambda_tie_takes_smallest_lambda():
    fluency, _ = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    result = sweep_lambda(fluency, fluency, human)  # flat sweep
    assert result["oracle_lambda"] == 0.0


def _swept_means(monkeypatch, fluency, reference, human):
    """The system means sweep_lambda ranks at each grid point, by system."""
    from gecmetric import analysis

    seen = []
    original = analysis.spearman
    monkeypatch.setattr(
        analysis, "spearman", lambda x, y: seen.append(list(x)) or original(x, y)
    )
    sweep_lambda(fluency, reference, human)
    assert len(seen) == len(LAMBDA_GRID)
    return [dict(zip(sorted(fluency), means)) for means in seen]


@pytest.mark.parametrize("low", [0.0, -1.0])
def test_sweep_means_are_the_interpolated_sentence_means(monkeypatch, low):
    """Interpolating each system's two means agrees with the mean of its
    interpolated sentence scores to within 4 ulps at every grid point. With
    scores of both signs (as I-measure's) the sentence terms can cancel,
    and the ulps are those of the largest score."""
    rng = random.Random(f"two-means:{low}")
    for _ in range(30):
        systems = [f"s{k}" for k in range(rng.randint(3, 12))]
        n = rng.randint(1, 400)

        def table():
            return {s: [rng.uniform(low, 1.0) for _ in range(n)] for s in systems}

        fluency, reference = table(), table()
        human = {s: rng.random() for s in systems}
        swept = _swept_means(monkeypatch, fluency, reference, human)
        for lam, means in zip(LAMBDA_GRID, swept):
            for s in systems:
                want = mean_score(
                    [interpolate_value(f, r, lam) for f, r in zip(fluency[s], reference[s])]
                )
                scale = want if low == 0.0 else max(map(abs, fluency[s] + reference[s]))
                assert abs(means[s] - want) <= 4 * math.ulp(scale), (lam, s)


def test_sweep_identical_systems_tie_at_every_lambda(monkeypatch):
    """Systems with the same scores, in the same or another sentence
    order, get equal means at every grid point."""
    rng = random.Random(3)
    f, r = [rng.random() for _ in range(50)], [rng.random() for _ in range(50)]
    order = rng.sample(range(50), 50)
    fluency = {"A": f, "B": list(f), "C": [f[i] for i in order], "D": [0.5] * 50}
    reference = {"A": r, "B": list(r), "C": [r[i] for i in order], "D": [0.5] * 50}
    human = {"A": 1.0, "B": 2.0, "C": 3.0, "D": 4.0}
    for means in _swept_means(monkeypatch, fluency, reference, human):
        assert means["A"] == means["B"] == means["C"]


def test_sweep_lambda_missing_system_raises():
    fluency, reference = _tables()
    human = {"A": 1.0, "B": 2.0, "C": 3.0}  # D missing
    with pytest.raises(ValidationError):
        sweep_lambda(fluency, reference, human)


def test_sweep_lambda_ragged_tables_raise():
    fluency, reference = _tables()
    reference["B"] = [0.4, 0.4]
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    with pytest.raises(ValidationError):
        sweep_lambda(fluency, reference, human)


def test_sample_reference_subset_is_deterministic_and_sorted():
    first = sample_reference_subset(5, 3, seed=0, trial=2, sentence_index=7)
    second = sample_reference_subset(5, 3, seed=0, trial=2, sentence_index=7)
    assert first == second
    assert list(first) == sorted(first)
    assert len(set(first)) == 3
    assert all(0 <= i < 5 for i in first)


def test_sample_reference_subset_varies_by_slot():
    draws = {
        tuple(sample_reference_subset(6, 2, seed=0, trial=t, sentence_index=i))
        for t in range(4)
        for i in range(4)
    }
    assert len(draws) > 1


def test_sample_reference_subset_validates():
    with pytest.raises(ValidationError):
        sample_reference_subset(3, 4, 0, 0, 0)
    with pytest.raises(ValidationError):
        sample_reference_subset(3, 0, 0, 0, 0)


def test_ablate_references_shapes_and_determinism():
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}

    def scorer(picks):
        assert len(picks) == 3  # one subset per sentence
        # pretend fewer references dampen the scores slightly
        factor = sum(len(p) for p in picks) / (2 * len(picks))
        return {
            sid: [v * factor for v in rows] for sid, rows in reference.items()
        }

    points = ablate_references(fluency, scorer, n_refs=2, human=human, trials=3)
    assert [p["size"] for p in points] == [1, 2]
    assert all(
        list(p) == ["size", "mean_oracle_spearman", "half_width", "per_trial"]
        for p in points
    )
    again = ablate_references(fluency, scorer, n_refs=2, human=human, trials=3)
    assert points == again
    assert all(len(p["per_trial"]) == 3 for p in points)
    assert all(p["half_width"] >= 0.0 for p in points)


def test_ablation_sweeps_each_distinct_pick_set_once(monkeypatch):
    """Size 2 of 2 references picks both in every trial, so its trials
    share one sweep; each size-1 pick set is swept once. ``per_trial``
    still holds every trial's Spearman, as sweeping each trial gives."""
    from gecmetric import analysis

    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}

    def scorer(picks):
        return {
            sid: [v * (1 + 0.1 * sum(p)) * len(p) for v, p in zip(rows, picks)]
            for sid, rows in reference.items()
        }

    sweep = analysis.sweep_lambda
    calls = []
    monkeypatch.setattr(
        analysis, "sweep_lambda", lambda *args: calls.append(args) or sweep(*args)
    )
    points = ablate_references(fluency, scorer, n_refs=2, human=human, trials=10)
    size_one = {
        tuple(tuple(sample_reference_subset(2, 1, 0, t, i)) for i in range(3))
        for t in range(10)
    }
    assert 1 < len(size_one) < 10
    assert len(calls) == len(size_one) + 1
    for point in points:
        assert point["per_trial"] == [
            sweep(fluency, scorer(picks), human)["oracle_spearman"]
            for picks in (
                [sample_reference_subset(2, point["size"], 0, t, i) for i in range(3)]
                for t in range(10)
            )
        ]


def test_ablate_single_trial_has_zero_half_width():
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    points = ablate_references(
        fluency, lambda picks: reference, n_refs=2, human=human, trials=1
    )
    assert all(p["half_width"] == 0.0 for p in points)


def test_ablate_rejects_trials_outside_the_cap_before_any_pick(monkeypatch):
    from gecmetric import analysis

    def drawn(*args):
        raise AssertionError("no pick may be drawn")

    monkeypatch.setattr(analysis, "sample_reference_subset", drawn)
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    for trials in (0, MAX_TRIALS + 1, 10**20):
        with pytest.raises(ValidationError, match=rf"trials must be in \[1, {MAX_TRIALS}\]"):
            ablate_references(fluency, drawn, n_refs=2, human=human, trials=trials)


def test_gaming_check_penalizes_reference_use():
    rng = random.Random(4)
    fluency = [rng.uniform(0.5, 1.0) for _ in range(50)]
    reference = [rng.uniform(0.8, 1.0) for _ in range(50)]
    # scoring against the wrong sentence's reference tanks the score
    row = gaming_check(fluency, reference, [0.1] * 50)
    assert list(row) == [
        "lambda",
        "rbm_true_mean",
        "rbm_shuffled_mean",
        "rbm_drop",
        "rbm_relative_drop",
        "interpolated_true_mean",
        "interpolated_shuffled_mean",
        "interpolated_drop",
    ]
    assert row["lambda"] == 0.5
    assert row["rbm_drop"] > 0
    assert row["interpolated_drop"] > 0
    assert row["rbm_relative_drop"] is not None
    assert row["rbm_shuffled_mean"] == 0.1
    assert row["interpolated_shuffled_mean"] == pytest.approx(
        mean_score([interpolate_value(f, 0.1, 0.5) for f in fluency])
    )


def test_gaming_permutation_has_no_fixed_point():
    for n in range(2, 40):
        perm = gaming_permutation(n, seed=n)
        assert sorted(perm) == list(range(n))
        assert all(p != i for i, p in enumerate(perm))


def test_gaming_permutation_is_seed_deterministic():
    assert gaming_permutation(9, seed=5) == gaming_permutation(9, seed=5)
    assert len({tuple(gaming_permutation(9, seed)) for seed in range(10)}) > 1


def test_gaming_check_validates():
    for n in (0, 1):
        with pytest.raises(ValidationError, match="at least 2 sentences"):
            gaming_permutation(n, seed=0)
    for fluency, reference, shuffled in (
        ([0.5], [0.5, 0.5], [0.0, 0.0]),
        ([0.5, 0.5], [0.5], [0.0, 0.0]),
        ([0.5, 0.5], [0.5, 0.5], [0.0]),
    ):
        with pytest.raises(ValidationError, match="size mismatch"):
            gaming_check(fluency, reference, shuffled)
    for lam in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValidationError, match="lambda"):
            gaming_check([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], lam=lam)

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmetric.analysis import (
    LAMBDA_GRID,
    ablate_references,
    compare_correlations,
    fisher_z,
    gaming_check,
    gaming_permutation,
    interpolate,
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
    out = interpolate([0.0, 1.0], [1.0, 0.0], 0.5)
    assert out == [0.5, 0.5]
    with pytest.raises(ValidationError):
        interpolate([0.0], [1.0, 2.0], 0.5)


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
    by_id = {r.system_id: r.rank for r in ranked}
    assert by_id == {"A": 1.5, "B": 1.5, "C": 3.0}
    assert [r.system_id for r in ranked] == ["A", "B", "C"]


def test_rank_systems_descending():
    ranked = rank_systems({"x": 0.2, "y": 0.9, "z": 0.5})
    assert [(r.system_id, r.rank) for r in ranked] == [
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


def test_fisher_z_hand_value():
    assert fisher_z(0.6) == pytest.approx(math.log(2.0), abs=1e-12)
    assert fisher_z(0.0) == 0.0
    with pytest.raises(ValidationError):
        fisher_z(1.0)


def test_compare_correlations_equal_inputs_give_p_one():
    entry = compare_correlations(0.8, 30, 0.8, 30)
    assert entry.z == 0.0
    assert entry.p_value == pytest.approx(1.0, abs=1e-15)


def test_compare_correlations_direction():
    entry = compare_correlations(0.9, 50, 0.1, 50)
    assert entry.z > 0
    assert entry.p_value < 0.05


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
    assert len(result.points) == 101
    assert result.points[0].lam == 0.0
    assert result.points[0].spearman == pytest.approx(1.0)  # fluency order
    assert result.points[-1].spearman == pytest.approx(-1.0)  # reference order


def test_sweep_lambda_oracle_maximizes_spearman():
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    result = sweep_lambda(fluency, reference, human)
    best = max(p.spearman for p in result.points)
    assert result.oracle.spearman == best
    assert result.oracle.spearman >= max(
        result.points[0].spearman, result.points[-1].spearman
    )


def test_sweep_lambda_tie_takes_smallest_lambda():
    fluency, _ = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    result = sweep_lambda(fluency, fluency, human)  # flat sweep
    assert result.oracle_lambda == 0.0


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
    assert [p.size for p in points] == [1, 2]
    again = ablate_references(fluency, scorer, n_refs=2, human=human, trials=3)
    assert points == again
    assert all(len(p.per_trial) == 3 for p in points)
    assert all(p.half_width >= 0.0 for p in points)


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
        assert point.per_trial == tuple(
            sweep(fluency, scorer(picks), human).oracle.spearman
            for picks in (
                [sample_reference_subset(2, point.size, 0, t, i) for i in range(3)]
                for t in range(10)
            )
        )


def test_ablate_single_trial_has_zero_half_width():
    fluency, reference = _tables()
    human = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0}
    points = ablate_references(
        fluency, lambda picks: reference, n_refs=2, human=human, trials=1
    )
    assert all(p.half_width == 0.0 for p in points)


def test_gaming_check_penalizes_reference_use():
    rng = random.Random(4)
    fluency = [rng.uniform(0.5, 1.0) for _ in range(50)]
    reference = [rng.uniform(0.8, 1.0) for _ in range(50)]
    # scoring against the wrong sentence's reference tanks the score
    report = gaming_check(fluency, reference, [0.1] * 50)
    assert report.rbm_drop > 0
    assert report.interpolated_drop > 0
    assert report.rbm_relative_drop is not None
    assert report.rbm_shuffled_mean == 0.1
    assert report.interpolated_shuffled_mean == pytest.approx(
        mean_score(interpolate(fluency, [0.1] * 50, 0.5))
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

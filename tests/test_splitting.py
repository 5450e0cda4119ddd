import numpy as np
import pytest

from obliquetree import (
    Dataset,
    Direction,
    NoValidSplitError,
    SearchStrategy,
    axis_direction,
    best_threshold,
    estimate_suboptimality,
    node_stats,
    root_index_set,
    search_axis_aligned,
    search_exhaustive_oblique,
    search_hill_climb,
    search_random_projection,
    sse_decrease,
)

from conftest import random_dataset


def naive_decrease(dataset, node, direction, threshold):
    """Independent evaluation of the split gain from its definition."""
    idx = np.asarray(node)
    values = dataset.features[idx] @ direction.as_array()
    y = dataset.response[idx]
    left = y[values <= threshold]
    right = y[values > threshold]
    if left.size == 0 or right.size == 0:
        return None
    sse = lambda v: float(np.sum((v - v.mean()) ** 2))
    return (sse(y) - sse(left) - sse(right)) / dataset.n


def brute_best_threshold(dataset, node, direction):
    """Oracle: evaluate naive_decrease at every midpoint of consecutive
    distinct sorted projections, smallest threshold wins ties."""
    idx = np.asarray(node)
    values = np.sort(dataset.features[idx] @ direction.as_array())
    best = None
    for a, b in zip(values[:-1], values[1:]):
        if a == b:
            continue
        mid = (a + b) / 2
        gain = naive_decrease(dataset, node, direction, mid)
        if gain is not None and (best is None or gain > best[0] + 1e-12):
            best = (gain, mid)
    return best


def brute_dichotomy_oracle(dataset, node):
    """Best decrease over a dense sweep of 721 planar directions.

    Independent of the pair-perpendicular enumeration; anything it finds
    the exhaustive search must match or beat.  Tiny 2-D nodes only."""
    idx = np.asarray(node)
    best = 0.0
    angles = np.linspace(0.0, np.pi, 721, endpoint=False)
    for theta in angles:
        d = Direction.canonical([np.cos(theta), np.sin(theta)])
        res = brute_best_threshold(dataset, idx, d)
        if res is not None:
            best = max(best, res[0])
    return best


def test_sse_decrease_hand_values(d1):
    root = root_index_set(d1)
    e1 = axis_direction(1, 0)
    assert sse_decrease(d1, root, e1, 2.5) == pytest.approx(0.25, rel=1e-12)
    assert sse_decrease(d1, root, e1, 1.5) == pytest.approx(1.0 / 12.0, rel=1e-12)
    const = Dataset(d1.features, np.full(4, 3.3))
    assert sse_decrease(const, root, e1, 2.5) == pytest.approx(0.0, abs=1e-15)


def test_sse_decrease_identity_and_range():
    for seed in range(8):
        data = random_dataset(seed, 40, 2, y_scale=2.0)
        root = root_index_set(data)
        rng = np.random.default_rng(100 + seed)
        direction = Direction.canonical(rng.standard_normal(2))
        values = data.features @ direction.as_array()
        threshold = float(np.median(values)) + 1e-9
        got = sse_decrease(data, root, direction, threshold)
        # Between-groups form of the same quantity.
        left = values <= threshold
        n_l, n_r = left.sum(), (~left).sum()
        diff = data.response[left].mean() - data.response[~left].mean()
        expected = (n_l * n_r / data.n) * diff**2 / data.n
        assert got == pytest.approx(expected, rel=1e-10)
        assert 0.0 <= got <= node_stats(data, root)[1] / data.n + 1e-15


def test_sse_decrease_rejects_empty_side(d1):
    with pytest.raises(NoValidSplitError):
        sse_decrease(d1, root_index_set(d1), axis_direction(1, 0), 0.0)


def test_best_threshold_d1_matches_midpoint_bruteforce(d1):
    root = root_index_set(d1)
    split = best_threshold(d1, root, axis_direction(1, 0))
    oracle = brute_best_threshold(d1, root, axis_direction(1, 0))
    assert split.threshold == oracle[1] == 2.5
    assert split.decrease == pytest.approx(oracle[0], rel=1e-12)
    assert (split.left_count, split.right_count) == (2, 2)


def test_best_threshold_symmetric_response():
    data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 0.0, 0.0, 1.0]))
    root = root_index_set(data)
    split = best_threshold(data, root, axis_direction(1, 0))
    oracle = brute_best_threshold(data, root, axis_direction(1, 0))
    assert split.decrease == pytest.approx(oracle[0], rel=1e-12)


def test_best_threshold_identical_points_rejected():
    data = Dataset(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
    with pytest.raises(NoValidSplitError):
        best_threshold(data, root_index_set(data), axis_direction(1, 0))


def test_sweep_matches_naive_on_random_data():
    # Spec invariant: prefix-sum sweep agrees with per-midpoint
    # recomputation within 1e-9 relative up to n = 500.
    data = random_dataset(5, 500, 3, y_scale=3.0)
    root = root_index_set(data)
    rng = np.random.default_rng(55)
    for _ in range(3):
        direction = Direction.canonical(rng.standard_normal(3))
        split = best_threshold(data, root, direction)
        oracle = brute_best_threshold(data, root, direction)
        assert split.decrease == pytest.approx(oracle[0], rel=1e-9)


def test_split_decrease_matches_reevaluation():
    for seed in range(6):
        data = random_dataset(seed + 30, 30, 2)
        root = root_index_set(data)
        for search in (
            lambda: search_axis_aligned(data, root),
            lambda: search_exhaustive_oblique(data, root, 2),
            lambda: search_hill_climb(
                data, root, SearchStrategy(kind="hill_climb", restarts=2, max_iterations=2, seed=seed)
            ),
            lambda: search_random_projection(
                data, root, SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=25, seed=seed)
            ),
        ):
            split = search()
            again = sse_decrease(data, root, split.direction, split.threshold)
            assert abs(split.decrease - again) <= 1e-12


def test_search_axis_aligned_d2(d2):
    split = search_axis_aligned(d2, root_index_set(d2))
    assert split.decrease == pytest.approx(0.25, rel=1e-12)
    assert split.direction.support_size == 1


def test_search_axis_aligned_p1_reduces_to_best_threshold(d1):
    root = root_index_set(d1)
    assert search_axis_aligned(d1, root) == best_threshold(d1, root, axis_direction(1, 0))


def test_search_axis_aligned_constant_response():
    data = Dataset(np.array([[0.0], [1.0]]), np.array([2.0, 2.0]))
    split = search_axis_aligned(data, root_index_set(data))
    assert split.decrease == pytest.approx(0.0, abs=1e-15)


def test_exhaustive_d2_beats_axis(d2):
    root = root_index_set(d2)
    split = search_exhaustive_oblique(d2, root, 2)
    assert split.decrease == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert split.direction.coefficients == pytest.approx(
        (1 / np.sqrt(2), 1 / np.sqrt(2)), rel=1e-12
    )


def test_exhaustive_p1_equals_axis(d1):
    root = root_index_set(d1)
    assert search_exhaustive_oblique(d1, root, 1) == search_axis_aligned(d1, root)


def test_exhaustive_dominates_axis_and_monotone_in_d():
    for seed in range(10):
        data = random_dataset(seed + 60, 16, 3, y_scale=2.0)
        root = root_index_set(data)
        axis = search_axis_aligned(data, root).decrease
        d1_ = search_exhaustive_oblique(data, root, 1).decrease
        d2_ = search_exhaustive_oblique(data, root, 2).decrease
        d3_ = search_exhaustive_oblique(data, root, 3).decrease
        assert d1_ >= axis - 1e-12
        assert d2_ >= d1_ - 1e-12
        assert d3_ >= d2_ - 1e-12


def test_exhaustive_beats_dense_angle_sweep():
    # Completeness check: a dense sweep of 2-D directions never finds a
    # better split than the pair-perpendicular enumeration.
    for seed in range(5):
        data = random_dataset(seed + 90, 12, 2, y_scale=2.0)
        root = root_index_set(data)
        oracle = search_exhaustive_oblique(data, root, 2).decrease
        swept = brute_dichotomy_oracle(data, root)
        assert oracle >= swept - 1e-9


def test_exhaustive_sparsity3_beats_random_directions():
    # Same dual-route idea in 3-D: thousands of random dense directions
    # never beat the subset-normal plus pair-cross enumeration.
    for seed in range(3):
        data = random_dataset(seed + 130, 10, 3, y_scale=2.0)
        root = root_index_set(data)
        oracle = search_exhaustive_oblique(data, root, 3).decrease
        rng = np.random.default_rng(seed)
        for vec in rng.standard_normal((4000, 3)):
            res = brute_best_threshold(data, root, Direction.canonical(vec))
            if res is not None:
                assert oracle >= res[0] - 1e-9


def test_exhaustive_cap_and_sparsity_validation(d2):
    root = root_index_set(d2)
    with pytest.raises(ValueError, match="cap"):
        search_exhaustive_oblique(d2, root, 2, node_cap=2)
    with pytest.raises(ValueError, match="sparsity"):
        search_exhaustive_oblique(d2, root, 4)


def test_hill_climb_bounds_and_determinism(d2):
    root = root_index_set(d2)
    strategy = SearchStrategy(kind="hill_climb", restarts=4, max_iterations=8, seed=3)
    split = search_hill_climb(d2, root, strategy)
    assert 0.25 - 1e-12 <= split.decrease <= 1.0 / 3.0 + 1e-12
    again = search_hill_climb(d2, root, strategy)
    assert split == again


def test_hill_climb_zero_iterations_is_axis(d2):
    root = root_index_set(d2)
    strategy = SearchStrategy(kind="hill_climb", restarts=3, max_iterations=0, seed=1)
    assert search_hill_climb(d2, root, strategy) == search_axis_aligned(d2, root)


def test_random_projection_zero_candidates_is_axis(d2):
    root = root_index_set(d2)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=0, seed=0)
    assert search_random_projection(d2, root, strategy) == search_axis_aligned(d2, root)


def test_random_projection_finds_diagonal_and_is_deterministic(d2):
    root = root_index_set(d2)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=200, seed=0)
    split = search_random_projection(d2, root, strategy)
    assert split.decrease == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert split == search_random_projection(d2, root, strategy)
    assert split.decrease >= 0.25 - 1e-12


def test_label_invariance_shift_and_scale():
    for seed in range(4):
        base = random_dataset(seed + 200, 24, 2)
        root = root_index_set(base)
        shifted = Dataset(base.features, base.response + 17.0)
        scaled = Dataset(base.features, base.response * 3.0)
        s0 = search_exhaustive_oblique(base, root, 2)
        s_shift = search_exhaustive_oblique(shifted, root, 2)
        s_scale = search_exhaustive_oblique(scaled, root, 2)
        assert s_shift.direction == s0.direction
        assert s_shift.threshold == s0.threshold
        assert s_shift.decrease == pytest.approx(s0.decrease, rel=1e-9, abs=1e-12)
        assert s_scale.direction == s0.direction
        assert s_scale.threshold == s0.threshold
        assert s_scale.decrease == pytest.approx(9.0 * s0.decrease, rel=1e-9)


def test_estimate_suboptimality_d2(d2):
    root = root_index_set(d2)
    axis = SearchStrategy(kind="axis_aligned")
    # Hand ratio: 0.25 / (1/3) = 0.75.
    assert estimate_suboptimality(d2, root, axis, 0.7, 3).success_fraction == 1.0
    assert estimate_suboptimality(d2, root, axis, 0.8, 3).success_fraction == 0.0
    exhaustive = SearchStrategy(kind="exhaustive_oblique", sparsity_d=2)
    report = estimate_suboptimality(d2, root, exhaustive, 1.0, 2)
    assert report.success_fraction == 1.0
    assert report.oracle_decrease == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert len(report.per_trial_decreases) == 2


def test_estimate_suboptimality_validation(d2):
    root = root_index_set(d2)
    axis = SearchStrategy(kind="axis_aligned")
    with pytest.raises(ValueError):
        estimate_suboptimality(d2, root, axis, 0.0, 3)
    with pytest.raises(ValueError):
        estimate_suboptimality(d2, root, axis, 0.5, 0)


def test_strategy_validation():
    with pytest.raises(ValueError):
        SearchStrategy(kind="simulated_annealing")
    with pytest.raises(ValueError):
        SearchStrategy(kind="axis_aligned", sparsity_d=0)
    # A wrong-typed value, e.g. from a JSON file, names its field.
    for field, value in [("sparsity_d", "2"), ("num_candidates", 10.0), ("seed", True), ("node_cap", None)]:
        with pytest.raises(ValueError, match=field):
            SearchStrategy.from_dict({"kind": "axis_aligned", field: value})

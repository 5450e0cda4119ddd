import itertools
import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    Direction,
    NoValidSplitError,
    SearchStrategy,
    axis_direction,
    best_threshold,
    estimate_suboptimality,
    grow,
    node_rows,
    node_stats,
    root_index_set,
    search_axis_aligned,
    search_exhaustive_oblique,
    search_hill_climb,
    sse_decrease,
    training_error,
)
from obliquetree import splitting
from obliquetree.dataset import canonical_rows, projections
from obliquetree.splitting import (
    DECREASE_TOL,
    STRATEGY_KINDS,
    Split,
    _Node,
    _best_thresholds,
    _coefficient_move,
    _canonical_rows,
    _random_sparse_directions,
    _stable_order,
    _sweep_gains,
    _winner,
    run_search,
)

from conftest import (
    random_dataset,
    reference_projections,
    reference_random_sparse_directions,
    snap_border_rows,
)


def naive_decrease(dataset, node, direction, threshold):
    """Independent evaluation of the split gain from its definition."""
    idx = np.asarray(node)
    values = reference_projections(dataset.features[idx], direction.coefficients)
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
    values = np.sort(reference_projections(dataset.features[idx], direction.coefficients))
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
        values = reference_projections(data.features, direction.coefficients)
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
            lambda: run_search(
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
    # sparsity_d is a cap: above p it means p ...
    assert search_exhaustive_oblique(d2, root, 4) == search_exhaustive_oblique(d2, root, 2)
    # ... and the enumeration stops at supports of size 3, with the one
    # message users see, through either entry point.
    oracle = SearchStrategy(kind="exhaustive_oblique", sparsity_d=4)
    for wide in (random_dataset(7, 8, 4), random_dataset(7, 8, 5)):
        root = root_index_set(wide)
        for search in (lambda: search_exhaustive_oblique(wide, root, 4), lambda: run_search(wide, root, oracle)):
            with pytest.raises(ValueError, match=r"^exhaustive search supports sparsity_d <= 3$"):
                search()


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


def test_hill_climb_reaches_the_oblique_split_at_sparsity_2(d2):
    # From the first axis alone (restarts=1), moving the second
    # coefficient past every crossing point gives (1, 1)/sqrt(2); at
    # sparsity 1 the climb stays on the axes.
    root = root_index_set(d2)
    for restarts in (1, 3):
        strategy = SearchStrategy(kind="hill_climb", sparsity_d=2, restarts=restarts, max_iterations=3)
        split = search_hill_climb(d2, root, strategy)
        assert split.decrease == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert split.direction.support_size == 2
    strategy = SearchStrategy(kind="hill_climb", restarts=3, max_iterations=3)
    split = search_hill_climb(d2, root, strategy)
    assert split.direction.support_size == 1
    assert split.decrease == pytest.approx(0.25, rel=1e-12)


def test_random_projection_zero_candidates_is_axis(d2):
    root = root_index_set(d2)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=0, seed=0)
    assert run_search(d2, root, strategy) == search_axis_aligned(d2, root)


def test_random_projection_finds_diagonal_and_is_deterministic(d2):
    root = root_index_set(d2)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=200, seed=0)
    split = run_search(d2, root, strategy)
    assert split.decrease == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert split == run_search(d2, root, strategy)
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


# References: a per-candidate re-solve of the bulk sweep's near-ties and
# an np.unique-based dedup, with every sweep on the node's centred
# responses, every winner picked by the set rule and every projection a
# per-point Python sum (conftest.point_projection).  The properties below
# check that the one blocked sweep of _best_thresholds gives the same
# Split bytes.


def reference_sweep_gains(values, y, n_full):
    """The prefix-sum gain sweep, on 1-D or 2-D columns; the total stays
    an array, so it is squared as the batch squares it."""
    m = values.shape[0]
    csum = np.cumsum(y, axis=0)
    total = csum[-1:]
    n_left = np.arange(1, m, dtype=np.float64).reshape((-1,) + (1,) * (y.ndim - 1))
    sum_left = csum[:-1]
    gains = (
        sum_left**2 / n_left + (total - sum_left) ** 2 / (m - n_left) - total**2 / m
    ) / n_full
    thresholds = 0.5 * (values[:-1] + values[1:])
    valid = (values[:-1] < thresholds) & (thresholds < values[1:])
    return gains, thresholds, valid


def node_mean(dataset, node):
    """The mean every sweep centres on: the node's responses in index order."""
    return dataset.response[np.asarray(node)].mean()


def reference_winner(splits):
    """The set rule from its definition: among the splits within
    DECREASE_TOL of the largest decrease, the smallest (support size,
    coefficients, threshold)."""
    splits = [s for s in splits if s is not None]
    if not splits:
        return None
    top = max(s.decrease for s in splits)
    near = [s for s in splits if s.decrease >= top - DECREASE_TOL]
    return min(near, key=lambda s: (s.direction.support_size, s.direction.coefficients, s.threshold))


def reference_split(X, y, direction, n_full):
    """A direction's split on a node's rows X, y (index order) from the
    definitions, or None: per-point projections, the stable sort, the
    centred prefix-sum sweep, the first boundary within DECREASE_TOL of
    the best gain, and the two-pass decrease of its left set."""
    values = reference_projections(X, direction.coefficients)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    if sorted_values.shape[0] < 2 or sorted_values[0] == sorted_values[-1]:
        return None
    gains, thresholds, valid = reference_sweep_gains(sorted_values, (y - y.mean())[order], n_full)
    if not np.any(valid):
        return None
    gains = np.where(valid, gains, -np.inf)
    boundary = int(np.nonzero(gains >= float(np.max(gains)) - DECREASE_TOL)[0][0])
    threshold = float(thresholds[boundary])
    left = values <= threshold
    sse = lambda v: float(np.sum((v - v.mean()) ** 2))
    return Split(
        direction=direction,
        threshold=threshold,
        decrease=(sse(y) - sse(y[left]) - sse(y[~left])) / n_full,
        left_count=boundary + 1,
        right_count=values.shape[0] - boundary - 1,
    )


def reference_best_threshold(dataset, node, direction):
    idx = np.asarray(node)
    split = reference_split(dataset.features[idx], dataset.response[idx], direction, dataset.n)
    if split is None:
        raise NoValidSplitError("no valid split: projections not separable")
    return split


def reference_canonical_rows(matrix):
    """Direction.canonical of each nonzero row, each distinct row once."""
    arr = np.asarray(matrix, dtype=np.float64)
    rows = [Direction.canonical(row).coefficients for row in arr if row.any()]
    return np.unique(np.array(rows, dtype=np.float64).reshape(-1, arr.shape[1]), axis=0)


def reference_near_ties(dataset, node, directions, chunk=4096):
    """Rows whose best bulk gain is within DECREASE_TOL of the best gain
    of any row, swept chunk by chunk."""
    X = dataset.features[np.asarray(node)]
    y = dataset.response[np.asarray(node)] - node_mean(dataset, node)
    best = []
    for lo in range(0, directions.shape[0], chunk):
        proj = np.array([reference_projections(X, w) for w in directions[lo : lo + chunk]]).T
        order = np.argsort(proj, axis=0, kind="stable")
        vals = np.take_along_axis(proj, order, axis=0)
        gains, _, valid = reference_sweep_gains(vals, y[order], dataset.n)
        best.extend(np.max(np.where(valid, gains, -np.inf), axis=0))
    best = np.array(best)
    if best.size == 0 or np.max(best) == -np.inf:
        return []
    return [directions[i] for i in np.flatnonzero(best >= np.max(best) - DECREASE_TOL)]


def reference_best_over_directions(dataset, node, directions, chunk=4096):
    if np.asarray(node).size < 2 or directions.shape[0] == 0:
        return None
    splits = []
    for vec in reference_near_ties(dataset, node, directions, chunk):
        try:
            splits.append(reference_best_threshold(dataset, node, Direction.canonical(vec)))
        except NoValidSplitError:
            continue
    return reference_winner(splits)


def reference_search_axis_aligned(dataset, node):
    splits = []
    for j in range(dataset.p):
        try:
            splits.append(reference_best_threshold(dataset, node, axis_direction(dataset.p, j)))
        except NoValidSplitError:
            continue
    if not splits:
        raise NoValidSplitError("no coordinate admits a valid split")
    top = max(s.decrease for s in splits)
    return next(s for s in splits if s.decrease >= top - DECREASE_TOL)


def reference_candidate_directions(points, support, p, size):
    """The exhaustive search's former candidates on one support, embedded
    in R^p: the axis; perpendiculars of all point-pair differences; or
    every cross product of two pair differences, which gives about m^4/8
    rows on m points.  Such crosses lie at the vertices of each
    dichotomy's cell of directions, where two pairs tie, and the sweep
    splits each tie by rounding."""
    if size == 1:
        local = np.ones((1, 1))
    elif size == 2:
        iu = np.triu_indices(points.shape[0], k=1)
        d = (points[:, None, :] - points[None, :, :])[iu]
        d = d[np.any(d != 0.0, axis=1)]
        local = np.stack([-d[:, 1], d[:, 0]], axis=1) if d.shape[0] else np.zeros((0, 2))
    else:
        iu = np.triu_indices(points.shape[0], k=1)
        diffs = points[iu[0]] - points[iu[1]]
        diffs = diffs[np.any(diffs != 0.0, axis=1)]
        if diffs.shape[0] >= 2:
            a, b = np.triu_indices(diffs.shape[0], k=1)
            local = np.cross(diffs[a], diffs[b])
        else:
            local = np.zeros((0, 3))
    out = np.zeros((local.shape[0], p))
    out[:, list(support)] = local
    return out


def reference_search_exhaustive_oblique(dataset, node, sparsity_d):
    """The best split over the former candidates (reference_candidate_directions)."""
    X = dataset.features[np.asarray(node)]
    d = min(sparsity_d, dataset.p)
    blocks = []
    for size in range(1, d + 1):
        for support in itertools.combinations(range(dataset.p), size):
            pts = X[:, list(support)]
            blocks.append(reference_candidate_directions(pts, support, dataset.p, size))
    directions = reference_canonical_rows(np.concatenate(blocks, axis=0))
    best = reference_best_over_directions(dataset, node, directions)
    if best is None:
        raise NoValidSplitError("no valid split on this node")
    return best


def reference_search_random_projection(dataset, node, strategy):
    best = reference_search_axis_aligned(dataset, node)
    if strategy.num_candidates == 0:
        return best
    raw = reference_random_sparse_directions(
        strategy.seed, dataset.p, strategy.sparsity_d, strategy.num_candidates
    )
    challenger = reference_best_over_directions(dataset, node, reference_canonical_rows(raw))
    return reference_winner([best, challenger])


def split_bytes(split):
    """Every field of a Split, floats by their exact bits (sign of zero included)."""
    if split is None:
        return None
    return (
        tuple(c.hex() for c in split.direction.coefficients),
        split.threshold.hex(),
        split.decrease.hex(),
        split.left_count,
        split.right_count,
    )


def outcome(search, *args):
    try:
        return split_bytes(search(*args))
    except NoValidSplitError:
        return "no valid split"


def node_best_thresholds(X, y, W, n_full):
    """_best_thresholds on one node whose rows of features and responses
    are X and y."""
    (near,) = _best_thresholds(X, [(_Node(y, np.arange(y.size)), W)], n_full)
    return near


def best_over_directions(dataset, node, directions):
    """The winner among a node's near-best splits over canonical
    direction rows, as the exhaustive search picks it, or None."""
    near = node_best_thresholds(dataset.features[node], dataset.response[node], directions, dataset.n)
    return min(near, key=splitting._tie_key, default=None)


@st.composite
def grid_nodes(draw, max_m=16, max_p=3):
    """Small integer-grid datasets with duplicate points, constant
    columns and integer responses, so that gains tie and sides empty;
    the node is the root or a random subset of at most max_m rows."""
    # Sizes come from the seed, uniformly: hypothesis would favour tiny nodes.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = int(rng.integers(1, max_p + 1))
    n = int(rng.integers(2, max_m + 5))
    X = rng.integers(-2, 3, size=(n, p)).astype(float)
    if draw(st.booleans()):
        X[:, rng.integers(p)] = float(rng.integers(-2, 3))
    if draw(st.booleans()):
        X[rng.integers(n, size=n // 2)] = X[0]
    y = rng.integers(0, draw(st.integers(1, 4)), size=n).astype(float)
    data = Dataset(X, y)
    m = min(n, max_m) if rng.random() < 0.5 else int(rng.integers(1, min(n, max_m) + 1))
    node = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    return data, node


def candidate_rows(data, node, max_support):
    """The deduplicated former exhaustive candidates on supports up to
    max_support (reference_candidate_directions)."""
    X = data.features[node]
    blocks = [
        reference_candidate_directions(X[:, list(s)], s, data.p, len(s))
        for size in range(1, min(data.p, max_support) + 1)
        for s in itertools.combinations(range(data.p), size)
    ]
    return _canonical_rows(np.concatenate(blocks, axis=0))


def simplex_feasible(A, b):
    """Whether A z = b has a solution z >= 0 (every b_i >= 0): phase 1 of
    the simplex method with Bland's rule, in exact rational arithmetic."""
    rows, cols = len(A), len(A[0])
    T = [list(A[i]) + [Fraction(int(i == j)) for j in range(rows)] + [b[i]] for i in range(rows)]
    basis = [cols + i for i in range(rows)]
    cost = [-sum(T[i][j] for i in range(rows)) for j in range(cols)] + [Fraction(0)] * rows
    cost.append(-sum(b))
    while True:
        enter = next((j for j in range(cols + rows) if cost[j] < 0), None)
        if enter is None:
            return cost[-1] == 0
        leave = None
        for i in range(rows):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if leave is None or (ratio, basis[i]) < (leave[0], basis[leave[1]]):
                    leave = (ratio, i)
        i = leave[1]
        T[i] = [v / T[i][enter] for v in T[i]]
        for r in range(rows):
            if r != i and T[r][enter] != 0:
                T[r] = [a - T[r][enter] * c for a, c in zip(T[r], T[i])]
        cost = [a - cost[enter] * c for a, c in zip(cost, T[i])]
        basis[i] = enter


def strictly_separable(left, right):
    """Whether a hyperplane strictly separates two finite sets of exact
    points: whether no convex combination of one equals one of the other
    (an exact linear feasibility problem)."""
    if set(left) & set(right):
        return False
    s = len(left[0])
    A = [[x[c] for x in left] + [-x[c] for x in right] for c in range(s)]
    A.append([Fraction(1)] * len(left) + [Fraction(0)] * len(right))
    A.append([Fraction(0)] * len(left) + [Fraction(1)] * len(right))
    return not simplex_feasible(A, [Fraction(0)] * s + [Fraction(1), Fraction(1)])


def exact_best_decrease(X, y, n_full, sparsity):
    """The largest exact SSE decrease / n_full over the dichotomies of the
    rows of X that a hyperplane with at most `sparsity` nonzero
    coefficients strictly separates, as a Fraction, or None.  Dichotomies
    are visited by decreasing decrease, and the first separable one on
    some support of min(sparsity, p) coordinates is the answer."""
    m, p = X.shape
    points = [[Fraction(float(v)) for v in row] for row in X]
    ys = [Fraction(float(v)) for v in y]

    def sse(values):
        return sum(v * v for v in values) - sum(values) ** 2 / len(values) if values else 0

    dichotomies = []
    for mask in range(1, 2 ** (m - 1)):  # row 0 always right: each dichotomy once
        left = [i for i in range(1, m) if mask >> (i - 1) & 1]
        right = [i for i in range(m) if i not in left]
        decrease = (sse(ys) - sse([ys[i] for i in left]) - sse([ys[i] for i in right])) / n_full
        dichotomies.append((decrease, left, right))
    dichotomies.sort(key=lambda item: -item[0])
    supports = list(itertools.combinations(range(p), min(sparsity, p)))
    for decrease, left, right in dichotomies:
        for support in supports:
            if strictly_separable(
                [tuple(points[i][c] for c in support) for i in left],
                [tuple(points[i][c] for c in support) for i in right],
            ):
                return decrease
    return None


def test_exact_reference_on_hand_cases():
    # Four corners of a square: the diagonals cross, so neither pair is
    # separable from the other, while one corner is.  Collinear points
    # separate only as prefixes.
    corners = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert not strictly_separable(corners[:2], corners[2:])
    assert strictly_separable(corners[:1], corners[1:])
    line = [(Fraction(i),) for i in range(4)]
    assert strictly_separable(line[:2], line[2:])
    assert not strictly_separable([line[0], line[2]], [line[1], line[3]])
    X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    # y = 1 on one diagonal: splitting the diagonals would explain it all.
    assert exact_best_decrease(X, np.array([1.0, 1.0, 0.0, 0.0]), 4, 2) == Fraction(1, 12)


@settings(max_examples=60, deadline=None)
@given(case=grid_nodes(max_m=10), sparsity=st.integers(1, 3))
def test_exhaustive_matches_exact_reference(case, sparsity):
    # Integer grids with duplicate points, constant columns and many
    # coplanar and collinear points: the oracle's decrease is the best
    # strictly separable dichotomy's, so it neither misses one nor
    # reports one that no hyperplane realizes.
    data, node = case
    want = exact_best_decrease(data.features[node], data.response[node], data.n, sparsity)
    try:
        got = search_exhaustive_oblique(data, node, sparsity).decrease
    except NoValidSplitError:
        got = None
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - float(want)) <= DECREASE_TOL


def test_exhaustive_returns_a_realizable_dichotomy_on_coplanar_crossing_rows():
    # Rows 1, 2, 4 and 5 lie on the plane (6, -9, -1) . x = 0, and the
    # segments 2-4 and 1-5 cross there.  Along that normal the former
    # enumerator split them by rounding, 2 and 4 left, and reported a
    # decrease no hyperplane achieves; the best realizable one is 50/81.
    rng = np.random.default_rng(5)
    X = rng.integers(0, 7, size=(9, 3)).astype(float)
    y = rng.integers(0, 4, size=9).astype(float)
    data, root = Dataset(X, y), np.arange(9)
    assert exact_best_decrease(X, y, 9, 3) == Fraction(50, 81)
    assert search_exhaustive_oblique(data, root, 3).decrease == pytest.approx(50 / 81, abs=1e-12)
    assert reference_search_exhaustive_oblique(data, root, 3).decrease == pytest.approx(0.9030, abs=1e-4)


def exact_sides(X, split):
    """Whether each row of X lies at or below the split's threshold, in
    exact rational arithmetic on the stored direction and threshold."""
    w = [Fraction(c) for c in split.direction.coefficients]
    t = Fraction(split.threshold)
    return np.array([sum(a * Fraction(float(v)) for a, v in zip(w, row)) <= t for row in X])


@settings(max_examples=80, deadline=None)
@given(case=grid_nodes(max_m=16), sparsity=st.integers(1, 3), depth=st.integers(1, 3))
def test_oracle_splits_route_as_exact_arithmetic_does(case, sparsity, depth):
    # Every split of an oracle tree on an integer grid sends each of its
    # node's rows to the side its left set says, in exact arithmetic on
    # the stored (direction, threshold), not only in floating point.
    data, node = case
    sample = Dataset(data.features[node], data.response[node])
    grown = grow(sample, SearchStrategy(kind="exhaustive_oblique", sparsity_d=sparsity), depth)
    rows = node_rows(grown, sample)
    for nid, tree_node in grown.nodes.items():
        if not tree_node.is_leaf:
            sides = exact_sides(sample.features[rows[nid]], tree_node.split)
            assert np.array_equal(rows[nid][sides], rows[tree_node.left_child])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 20), p=st.integers(1, 4), sparsity=st.integers(1, 3))
def test_exhaustive_matches_pair_difference_enumerator_on_continuous_inputs(seed, m, p, sparsity):
    # In general position both candidate sets realize every separable
    # dichotomy, so the decreases agree.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, p))
    y = rng.standard_normal(m) if seed % 2 else np.sin(3.0 * X @ rng.standard_normal(p))
    data, root = Dataset(X, y), np.arange(m)
    got = search_exhaustive_oblique(data, root, sparsity).decrease
    want = reference_search_exhaustive_oblique(data, root, sparsity).decrease
    assert abs(got - want) <= DECREASE_TOL


def test_oracle_sweeps_pair_perpendiculars_and_axes_and_rotates_about_point_pairs():
    # In general position every pair of a 2-coordinate support gives one
    # sweep row.  A node of _PENCIL_ROWS rows or more turns a plane about
    # every pair of a 3-coordinate support, C(m, 2) pencils of m - 2
    # crossings, in place of the C(m, 3) triple normals of m levels each
    # that a smaller node sweeps (and the ~m^4/8 crosses of pair
    # differences before them).  A pair of equal points gives neither.
    rng = np.random.default_rng(4)
    assert splitting._PENCIL_ROWS == 16
    for m, p, d in ((12, 3, 3), (20, 4, 3), (9, 5, 2), (7, 2, 3), (16, 3, 3), (15, 4, 3)):
        X = rng.uniform(-1.0, 1.0, size=(m, p))
        k, pencils = min(d, p), min(d, p) == 3 and m >= 16
        for equal in (0, 1):
            X[1] = X[0] if equal else X[1]
            vertices = splitting._Vertices(X, d)
            pairs = math.comb(m, 2) - equal
            triples = 0 if pencils else math.comb(m, 3) - equal * (m - 2)
            assert len(vertices) == p + (k >= 2) * math.comb(p, 2) * pairs + (k >= 3) * math.comb(p, 3) * triples
            assert len(vertices.pencils) == pencils * math.comb(p, 3) * pairs
            former = sum(
                reference_candidate_directions(X[:, list(s)], s, p, size).shape[0]
                for size in range(1, k + 1) for s in itertools.combinations(range(p), size)
            )
            assert k < 3 or former > 4 * len(vertices)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 18),
    p=st.integers(1, 4),
    sparsity=st.integers(1, 3),
    exponent=st.sampled_from([0, 300, -300]),
)
def test_oracle_levels_are_the_projection_kernels_values(seed, m, p, sparsity, exponent):
    # The oracle has no projection kernel of its own: a sweep row's levels
    # are dataset.projections of its support's points (rescaled into the
    # exponent band first) onto its normal, compared with ==, except that
    # its tie group, on points in general position exactly its defining
    # points, holds the first one's value.  An axis row's levels are its
    # support's points as they are.  A range of rows gets the same values
    # as the whole.  The first point is the origin written -0.0, whose
    # sign an axis row keeps.  A pencil's triple i < j < k is the row of
    # the cross product (x_j - x_i) x (x_k - x_i) of its rescaled points,
    # oriented as canonical_rows orients it, as a small node's triple row
    # is.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, p)) * 2.0**exponent
    X[0] = -0.0
    vertices = splitting._Vertices(X, sparsity)
    values, below, tied, size = vertices.levels(0, len(vertices))
    for r in range(len(vertices)):
        _, points, normal, defining, _ = vertices._row(r)
        assert 2.0**-200 <= np.max(np.abs(points)) <= 2.0**200
        (want,) = projections(points, normal[None])
        if size[r] == 1:
            assert (below[r], tied[r]) == (0, 0)
            assert values[r].tobytes() == points[:, 0].tobytes()
            assert np.array_equal(values[r], want)
            continue
        group = np.zeros(m, dtype=bool)
        group[defining] = True
        pivot = want[defining[0]]
        assert tied[r] == size[r] == defining.size
        assert below[r] == np.count_nonzero(want[~group] < pivot)
        assert np.array_equal(values[r], np.where(group, pivot, want))
    lo = int(rng.integers(0, len(vertices)))
    hi = int(rng.integers(lo + 1, len(vertices) + 1))
    for part, whole in zip(vertices.levels(lo, hi), (values, below, tied, size)):
        assert np.array_equal(part, whole[lo:hi])
    for t, i, j in vertices.pencils[:: max(1, len(vertices.pencils) // 5)].tolist():
        for k in range(m):
            if k in (i, j):
                continue
            triple = sorted((i, j, k))
            row = len(vertices) + ((t * m + triple[0]) * m + triple[1]) * m + triple[2]
            support, points, normal, defining, _ = vertices._row(row)
            assert support == list(itertools.combinations(range(p), 3))[t]
            assert defining.tolist() == triple
            x = points[triple]
            cross = np.stack(splitting._cross(x[1] - x[0], x[2] - x[0]))
            assert np.array_equal(np.abs(normal), np.abs(cross))
            assert canonical_rows(normal[None]).tobytes() == canonical_rows(cross[None]).tobytes()


def triple_normal_dichotomies(X, sparsity):
    """The dichotomies the former oracle scored on the rows of X, before
    it rotated planes about point pairs: along each axis, each pair
    perpendicular of a 2-coordinate support and each point-triple normal
    (x_j - x_i) x (x_k - x_i) of a 3-coordinate support that rounding
    cannot have made collinear, every boundary between distinct levels
    with the row's tie group (its defining points and every point within
    _TIE_SLACK u ||N||_1 R of their level) kept whole, plus the points
    below the group with each proper part of the group that a line or
    plane moved off the group separates (every part of a group of exactly
    its defining points).  As a set of _dichotomy bytes."""
    m, p = X.shape
    u = splitting._UNIT_ROUNDOFF
    found = set()
    for size in range(1, min(sparsity, p) + 1):
        for support in itertools.combinations(range(p), size):
            points = splitting._rescaled(X[:, list(support)][None])[0]
            reach = np.max(np.abs(points))
            rows = [(np.ones(1), np.zeros(0, dtype=int), 0.0)] if size == 1 else []
            for defining in itertools.combinations(range(m), size) if size > 1 else ():
                a = points[defining[1]] - points[defining[0]]
                if size == 2:
                    normal, bound = np.array([-a[1], a[0]]), np.abs([-a[1], a[0]])
                    if not a.any():
                        continue
                else:
                    b = points[defining[2]] - points[defining[0]]
                    normal = np.stack(splitting._cross(a, b))
                    bound = np.stack(splitting._cross(np.abs(a), np.abs(b), np.add))
                    if not np.any(np.abs(normal) > 8.0 * u * bound):
                        continue
                tolerance = splitting._TIE_SLACK * u * float(np.sum(bound)) * reach
                rows.append((normal, np.array(defining), tolerance))
            for normal, defining, tolerance in rows:
                (values,) = projections(points, normal[None])
                group = np.zeros(m, dtype=bool)
                if defining.size:
                    pivot = values[defining[0]]
                    group = np.abs(values - pivot) <= tolerance
                    group[defining] = True
                    values = np.where(group, pivot, values)
                levels = np.unique(values)
                for low in levels[:-1]:
                    found.add(splitting._dichotomy(values <= low))
                if not defining.size:
                    continue
                members = np.flatnonzero(group)
                if members.size == size:
                    parts = [np.array(mask, dtype=bool) for mask in itertools.product((0, 1), repeat=size)][1:-1]
                else:
                    parts = [inside for inside, _ in splitting._separations(points[members], normal)]
                for part in parts:
                    if part.any() and not part.all():
                        left = values < pivot
                        left[members[part]] = True
                        found.add(splitting._dichotomy(left))
    return found


def pencil_dichotomies(X):
    """The left sets of every cell of every pencil of X's 3-coordinate
    supports (_cells), with every cut of their lines' points, as a set of
    _dichotomy bytes; at any node size."""
    m = X.shape[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_PENCIL_ROWS", 2)
        vertices, node = splitting._Vertices(X, 3), _Node(np.zeros(m), np.arange(m))
    if not len(vertices.pencils):
        return set()
    block, which = [(0, 0, len(vertices.pencils))], np.zeros(len(vertices.pencils), dtype=np.intp)
    cells = splitting._cells([(node, vertices)], block, which)
    gains = splitting._cell_gains(cells, 0, cells.cut_sums.shape[1], m)
    k, t, c = np.nonzero(gains > -np.inf)
    every = splitting._cell_candidates([(node, vertices)], block, which, cells, k, t, c, gains[k, t, c])
    return {splitting._dichotomy(left) for left in every.lefts[:, :m]}


def near_best_dichotomies(X, y, dichotomies):
    """The largest exact decrease over a set of dichotomies of X's rows,
    and the dichotomies within DECREASE_TOL of it."""
    sse = splitting._sse(y)
    decreases = {
        key: splitting._split_decrease(y, np.frombuffer(key, dtype=bool), y.size, sse) for key in dichotomies
    }
    top = max(decreases.values(), default=None)
    return top, {key for key, value in decreases.items() if value >= top - DECREASE_TOL}


def assert_oracle_matches_triple_normal_enumerator(X, y, sparsity):
    # The former rows and the sweep rows with the pencils score the same
    # near-best dichotomies, and the search returns the best decrease and
    # only near-best dichotomies.  Sweep rows take their first near-best
    # boundary only, so the search need not return every one.
    top, want = near_best_dichotomies(X, y, triple_normal_dichotomies(X, sparsity))
    scored = triple_normal_dichotomies(X, min(sparsity, 2))
    if min(sparsity, X.shape[1]) == 3:
        scored |= pencil_dichotomies(X)
    assert near_best_dichotomies(X, y, scored) == (top, want)
    for cut in (splitting._PENCIL_ROWS, 2):  # pencils from the default node size, and at every size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(splitting, "_PENCIL_ROWS", cut)
            (near,) = _best_thresholds(X, [(_Node(y, np.arange(y.size)), splitting._Vertices(X, sparsity))], y.size)
        if top is None:
            assert near == []
            continue
        assert abs(max(split.decrease for split in near) - top) <= DECREASE_TOL
        assert {splitting._dichotomy(split.left) for split in near} <= want


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 24), p=st.integers(1, 3), sparsity=st.integers(1, 3))
def test_oracle_matches_the_triple_normal_enumerator_on_continuous_inputs(seed, m, p, sparsity):
    # The pencils score every dichotomy the former triple-normal rows
    # scored, and no other: the same best decrease and the same near-best
    # dichotomies, stored by fewer candidates.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, p))
    y = rng.standard_normal(m) if seed % 2 else np.sin(3.0 * X @ rng.standard_normal(p))
    assert_oracle_matches_triple_normal_enumerator(X, y, sparsity)


@settings(max_examples=60, deadline=None)
@given(case=grid_nodes(max_m=10), sparsity=st.integers(1, 3))
def test_oracle_matches_the_triple_normal_enumerator_on_integer_grids(case, sparsity):
    # Coplanar and collinear points, duplicates and tied responses: the
    # crossing groups of the pencils are the former tie groups.
    data, node = case
    assert_oracle_matches_triple_normal_enumerator(data.features[node], data.response[node], sparsity)


@settings(max_examples=40, deadline=None)
@given(case=grid_nodes(max_m=10), depth=st.integers(1, 3))
def test_pencils_reach_the_exact_reference_and_route_exactly(case, depth):
    # The exact-reference and routing properties with pencils at every
    # node size, not only from _PENCIL_ROWS rows: on integer grids the
    # decrease is the best strictly separable dichotomy's, and every
    # stored split routes its rows in exact arithmetic.
    data, node = case
    want = exact_best_decrease(data.features[node], data.response[node], data.n, 3)
    sample = Dataset(data.features[node], data.response[node])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_PENCIL_ROWS", 2)
        try:
            got = search_exhaustive_oblique(data, node, 3).decrease
        except NoValidSplitError:
            got = None
        grown = grow(sample, SearchStrategy(kind="exhaustive_oblique", sparsity_d=3), depth)
    assert (got is None) == (want is None)
    if want is not None:
        assert abs(got - float(want)) <= DECREASE_TOL
    rows = node_rows(grown, sample)
    for nid, tree_node in grown.nodes.items():
        if not tree_node.is_leaf:
            sides = exact_sides(sample.features[rows[nid]], tree_node.split)
            assert np.array_equal(rows[nid][sides], rows[tree_node.left_child])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 7), coplanar=st.booleans())
def test_pencil_cells_are_the_strictly_separable_dichotomies(seed, m, coplanar):
    # On small integer points that do not all lie on one line, the cells
    # of all pencils (_cells) with their cuts of the line's points are
    # exactly the dichotomies that a plane strictly separates, decided in
    # exact arithmetic: duplicates, collinear and coplanar points included.
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(m, 3)).astype(float)
    if coplanar:
        X[:, 2] = X[:, 0] - X[:, 1]
    if rng.random() < 0.3:
        X[rng.integers(m)] = X[0]
    if np.linalg.matrix_rank(X[1:] - X[0]) < 2:
        return
    got = pencil_dichotomies(X)
    points = [tuple(Fraction(v) for v in row) for row in X.tolist()]
    want = set()
    for mask in range(1, 2 ** (m - 1)):
        left = np.array([i > 0 and mask >> (i - 1) & 1 for i in range(m)], dtype=bool)
        if strictly_separable([points[i] for i in np.flatnonzero(left)], [points[i] for i in np.flatnonzero(~left)]):
            want.add(splitting._dichotomy(left))
    assert got == want


def anisotropic_sample(exponent):
    """ROADMAP item 14's input: 40 points whose column 1 is scaled by
    2^exponent, where stored oblique directions lose that column to
    canonical_rows' snap and no longer realize their left sets."""
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.0, 1.0, size=(40, 3))
    y = np.sin(X @ np.array([1.0, 1.5, -0.5])) + 0.1 * rng.standard_normal(40)
    X[:, 1] *= 2.0**exponent
    return Dataset(X, y)


def test_a_failed_storage_does_not_empty_the_node():
    # Every first contender stores nothing here; screened again without
    # them, the next-best candidates, the axes among them, split the node,
    # never below the axis scan and never below a smaller sparsity.
    data = anisotropic_sample(45)
    root = root_index_set(data)
    axis = search_axis_aligned(data, root)
    decreases = [search_exhaustive_oblique(data, root, d).decrease for d in (1, 2, 3)]
    assert decreases[0] == axis.decrease
    assert decreases[0] <= decreases[1] + DECREASE_TOL and decreases[1] <= decreases[2] + DECREASE_TOL
    tree = grow(data, SearchStrategy(kind="exhaustive_oblique", sparsity_d=3), 3)
    assert len(tree.nodes) > 1
    assert tree.nodes[0].split.decrease >= axis.decrease - DECREASE_TOL
    climb = search_hill_climb(data, root, SearchStrategy(kind="hill_climb", sparsity_d=3, restarts=2, seed=1))
    assert climb.direction.support_size <= 3
    assert climb.decrease >= axis.decrease - DECREASE_TOL


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 12),
    exponents=st.lists(st.integers(-600, 600), min_size=3, max_size=3),
)
def test_oracle_decrease_grows_with_sparsity_under_column_scales(seed, m, exponents):
    # Per-column scales 2^k: the oracle at sparsity d never does worse
    # than at d - 1, nor than the axis scan.
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(m, 3)) * 2.0 ** np.array(exponents, dtype=float)
    data = Dataset(X, np.sin(rng.uniform(-1.0, 1.0, size=m) + rng.standard_normal(m)))
    root = root_index_set(data)
    want = search_axis_aligned(data, root).decrease
    for d in (1, 2, 3):
        got = search_exhaustive_oblique(data, root, d).decrease
        assert got >= want - DECREASE_TOL
        want = got


@settings(max_examples=60, deadline=None)
@given(
    case=grid_nodes(),
    sparsity=st.integers(1, 3),
    count=st.integers(0, 30),
    seed=st.integers(0, 1000),
)
def test_random_projection_matches_per_candidate_reference(case, sparsity, count, seed):
    data, node = case
    strategy = SearchStrategy(
        kind="random_projection",
        sparsity_d=min(sparsity, data.p),
        num_candidates=count,
        seed=seed,
    )
    assert outcome(run_search, data, node, strategy) == outcome(
        reference_search_random_projection, data, node, strategy
    )


@settings(max_examples=60, deadline=None)
@given(case=grid_nodes(max_m=12), chunk=st.sampled_from([1, 2, 5, 64]))
def test_near_tie_order_matches_reference_across_chunks(case, chunk):
    data, node = case
    directions = candidate_rows(data, node, 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_BLOCK_DIRECTIONS", chunk)
        got = best_over_directions(data, node, directions)
    want = reference_best_over_directions(data, node, directions, chunk=chunk)
    assert split_bytes(got) == split_bytes(want)


@settings(max_examples=100, deadline=None)
@given(case=grid_nodes(max_m=40), seed=st.integers(0, 1000), axis=st.booleans())
def test_best_threshold_matches_reference(case, seed, axis):
    data, node = case
    rng = np.random.default_rng(seed)
    if axis:
        direction = axis_direction(data.p, int(rng.integers(data.p)))
    else:
        direction = Direction.canonical(rng.standard_normal(data.p) + 1e-3)
    assert outcome(best_threshold, data, node, direction) == outcome(
        reference_best_threshold, data, node, direction
    )


@settings(max_examples=100, deadline=None)
@given(case=grid_nodes(max_m=40), seed=st.integers(0, 1000), float_y=st.booleans())
def test_batch_matches_per_direction_reference(case, seed, float_y):
    # Directions that share a boundary index but not a left set, and
    # repeated dichotomies, in one batch.
    data, node = case
    rng = np.random.default_rng(seed)
    if float_y:
        data = Dataset(data.features, 1e3 * rng.standard_normal(data.n))
    directions = [axis_direction(data.p, j) for j in range(data.p)] + [
        Direction.canonical(v) for v in rng.standard_normal((8, data.p)) + 1e-3
    ]
    # The batch returns only the near-best splits, so each one must be the
    # reference's split for its direction, and together they must be the
    # reference's near-best set, in direction order.
    W = np.array([d.coefficients for d in directions])
    got = node_best_thresholds(data.features[node], data.response[node], W, data.n)
    solved = [outcome(reference_best_threshold, data, node, d) for d in directions]
    for split in got:
        assert split_bytes(split) == solved[directions.index(split.direction)]
    exact = [s for s in solved if s != "no valid split"]
    top = max((float.fromhex(s[2]) for s in exact), default=None)
    want = [s for s in exact if float.fromhex(s[2]) >= top - DECREASE_TOL]
    assert [split_bytes(s) for s in got] == want


def test_sweep_gains_match_reference_bit_for_bit():
    rng = np.random.default_rng(0)
    values = np.sort(rng.standard_normal((8, 2000)), axis=0)
    y = 1e3 * rng.standard_normal((8, 2000))
    y -= y.mean(axis=0)
    bulk, _, _ = _sweep_gains(values.T, y.T, 8, 50)
    assert bulk.tobytes() == reference_sweep_gains(values, y, 50)[0].T.copy().tobytes()
    # One column swept alone gives the same bits.
    for j in range(0, 2000, 97):
        column, _, _ = reference_sweep_gains(values[:, j], y[:, j], 50)
        assert column.tobytes() == bulk[j].tobytes()
    # So does a column padded after its rows with +inf values and 0.0
    # responses, swept beside columns of other lengths; and no boundary
    # next to the padding is valid.
    sizes = rng.integers(2, 9, size=2000)
    padded = np.where(np.arange(8) < sizes[:, None], values.T, np.inf)
    centred = np.where(np.arange(8) < sizes[:, None], y.T, 0.0)
    gains, _, valid = _sweep_gains(padded, centred, sizes[:, None], 50)
    for j in range(0, 2000, 97):
        m = sizes[j]
        want, _, _ = reference_sweep_gains(padded[j, :m], centred[j, :m], 50)
        assert gains[j, : m - 1].tobytes() == want.tobytes()
        assert not valid[j, m - 1 :].any()


def test_best_threshold_matches_reference_on_float_columns():
    # Continuous responses, where near-equal gains come from rounding.
    for seed in range(40):
        data = random_dataset(seed + 400, 60, 3, y_scale=5.0)
        root = root_index_set(data)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            direction = Direction.canonical(rng.standard_normal(3))
            assert split_bytes(best_threshold(data, root, direction)) == split_bytes(
                reference_best_threshold(data, root, direction)
            )


@st.composite
def direction_rows(draw):
    k = draw(st.integers(0, 40))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(-2, 3, size=(k, p)).astype(float)
    if k and draw(st.booleans()):
        rows[rng.integers(k, size=k // 2)] = rows[0]
    if draw(st.booleans()):
        rows = rows * rng.uniform(0.1, 10.0, size=(k, 1))
    if draw(st.booleans()):
        rows[rows == 0.0] = -0.0
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=direction_rows())
def test_canonical_rows_matches_np_unique(rows):
    # The same set of rows, each once, in any order.
    got = _canonical_rows(rows)
    want = reference_canonical_rows(rows)
    assert got.shape == want.shape
    assert {r.tobytes() for r in got} == {r.tobytes() for r in want}


@st.composite
def extreme_and_unit_rows(draw):
    """k x p direction rows with zeros among their coefficients, whose
    norms lie near 2^-600 or 2^600 (outside the safe range), near its
    ends 2^-500 and 2^500, or within rounding of 1: rows already divided
    by their norm, and the +-1/sqrt(d) rows of random projection."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p = draw(st.integers(1, 20)), draw(st.integers(1, 6))
    rows = rng.standard_normal((k, p))
    rows[rng.random((k, p)) < 0.3] = 0.0
    rows[~rows.any(axis=1), 0] = -1.0
    kind = draw(st.sampled_from(["scaled", "unit", "random_projection"]))
    if kind == "unit":
        return rows / np.sqrt(np.add.reduce(rows * rows, axis=1))[:, None]
    if kind == "random_projection":
        d = int(rng.integers(1, p + 1))
        return _random_sparse_directions(int(rng.integers(2**32)), p, d, k)
    scale = draw(st.sampled_from([2.0**-600, 2.0**-500, 2.0**500, 2.0**600]))
    return rows * scale * rng.uniform(0.5, 2.0, size=(k, 1))


def row_bits(row):
    return tuple(float(c).hex() for c in row)


@settings(max_examples=300, deadline=None)
@given(rows=st.one_of(direction_rows(), snap_border_rows(), extreme_and_unit_rows()))
def test_canonical_rows_equal_direction_canonical_row_by_row(rows):
    # One formula: a row's canonical bits do not depend on the batch it
    # is canonicalized in.  _best_thresholds stores each swept row as its
    # Split's direction, and tree.from_dict checks stored directions in
    # one bulk call, so a bulk row must be exactly Direction.canonical of
    # the row that went in, at the snap border, at norms whose squares
    # underflow or overflow and at norms already within rounding of 1;
    # it must be a fixpoint; and only zero rows and duplicates are
    # dropped.
    nonzero = rows[np.any(rows != 0.0, axis=1)]
    want = [row_bits(Direction.canonical(row).coefficients) for row in nonzero]
    bulk = canonical_rows(nonzero)
    assert [row_bits(row) for row in bulk] == want
    for row in bulk:
        assert row_bits(Direction.canonical(row).coefficients) == row_bits(row)
    assert sorted(row_bits(row) for row in _canonical_rows(rows)) == sorted(set(want))


def test_exhaustive_resolves_near_ties_in_one_batch(monkeypatch):
    # Noiseless data tie many directions; none of them is re-solved
    # through best_threshold, and each dichotomy's decrease is computed
    # once.
    X = np.array([[x1, x2, x3] for x1 in range(3) for x2 in range(3) for x3 in range(2)], float)
    data = Dataset(X, (X[:, 0] + X[:, 1] > 2).astype(float))
    root = root_index_set(data)
    want = search_exhaustive_oblique(data, root, 3)
    masks = []
    original = splitting._split_decrease

    def counted(y, left, n_full, sse_node):
        masks.append(left.tobytes())
        return original(y, left, n_full, sse_node)

    def forbidden(*args):
        raise AssertionError("per-candidate re-solve")

    monkeypatch.setattr(splitting, "_split_decrease", counted)
    monkeypatch.setattr(splitting, "best_threshold", forbidden)
    monkeypatch.setattr(splitting, "sse_decrease", forbidden)
    assert split_bytes(search_exhaustive_oblique(data, root, 3)) == split_bytes(want)
    assert masks and len(masks) == len(set(masks))


# The winner rule: a function of the candidate set.


def test_winner_is_the_same_in_every_order():
    # Decreases 0, 0.8e-12 and 1.6e-12 with rising tie keys.  A pairwise
    # fold with the tolerance returns C in the order A, B, C and A in the
    # order C, B, A; the set rule keeps B and C, and B has the smaller key.
    direction = axis_direction(2, 0)
    a, b, c = (
        Split(direction, threshold, decrease, 1, 1)
        for threshold, decrease in ((1.0, 0.0), (2.0, 0.8e-12), (3.0, 1.6e-12))
    )
    for order in itertools.permutations([a, b, c]):
        assert _winner(list(order)) is b
    assert _winner([c, None, b, a, c, b]) is b
    assert _winner([None]) is None


def test_axis_winner_is_the_lowest_index_near_best(monkeypatch):
    # The same three decreases on axes 0, 1 and 2: axes 1 and 2 are within
    # DECREASE_TOL of the largest, and the lower index wins.
    data = random_dataset(3, 10, 3)
    decreases = [0.0, 0.8e-12, 1.6e-12]

    def fixed(X, problems, n_full, keep=False):
        # _best_thresholds returns the near-best splits in row order.
        return [
            splitting._near_best(
                [Split(Direction(tuple(w)), 0.5, dec, 5, 5) for w, dec in zip(W.tolist(), decreases)]
            )
            for _, W in problems
        ]

    monkeypatch.setattr(splitting, "_best_thresholds", fixed)
    assert search_axis_aligned(data, root_index_set(data)).direction == axis_direction(3, 1)
    decreases = [1.6e-12, 0.8e-12, 0.0]
    assert search_axis_aligned(data, root_index_set(data)).direction == axis_direction(3, 0)


def test_axis_winner_on_exactly_tied_integer_axes():
    # y = x1 + x2 on the grid {0, 1, 2}^3: axes 1 and 2 tie exactly, axis 0
    # explains nothing, and both thresholds of each axis tie too.
    X = np.array(list(itertools.product(range(3), repeat=3)), dtype=float)
    data = Dataset(X, X[:, 1] + X[:, 2])
    split = search_axis_aligned(data, root_index_set(data))
    assert split.direction == axis_direction(3, 1)
    assert (split.threshold, split.left_count, split.right_count) == (0.5, 9, 18)
    swapped = Dataset(X[:, ::-1], data.response)
    assert search_axis_aligned(swapped, root_index_set(swapped)).direction == axis_direction(3, 0)


@settings(max_examples=80, deadline=None)
@given(case=grid_nodes(max_m=30), copies=st.integers(2, 3))
def test_axis_winner_on_duplicated_columns(case, copies):
    # Every column repeated: the first copy of the best column wins, at
    # the threshold and counts of the undoubled node.
    data, node = case
    wide = Dataset(np.tile(data.features, copies), data.response)
    want = outcome(search_axis_aligned, data, node)
    got = outcome(search_axis_aligned, wide, node)
    if want == "no valid split":
        assert got == want
        return
    coefficients, *rest = got
    assert coefficients[: data.p] == want[0]
    assert tuple(rest) == want[1:]


def shuffled_with_repeats(rows, rng):
    if rows.shape[0] == 0:
        return rows
    extra = rows[rng.integers(rows.shape[0], size=rows.shape[0] // 2 + 1)]
    stacked = np.concatenate([rows, extra])
    return stacked[rng.permutation(stacked.shape[0])]


@settings(max_examples=60, deadline=None)
@given(
    case=grid_nodes(max_m=12),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 2, 5, 64, 4096]),
)
def test_best_over_directions_depends_only_on_the_row_set(case, seed, chunk):
    data, node = case
    directions = candidate_rows(data, node, 2)
    want = split_bytes(best_over_directions(data, node, directions))
    rng = np.random.default_rng(seed)
    shuffled = directions[rng.permutation(directions.shape[0])]
    repeated = shuffled_with_repeats(directions, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_BLOCK_DIRECTIONS", chunk)
        for rows in (directions, shuffled, repeated):
            assert split_bytes(best_over_directions(data, node, rows)) == want


@settings(max_examples=40, deadline=None)
@given(
    case=grid_nodes(max_m=12),
    sparsity=st.integers(1, 3),
    count=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 2, 5, 64, 4096]),
)
def test_searches_depend_only_on_their_candidate_sets(case, sparsity, count, seed, chunk):
    # Shuffle and repeat the deduplicated candidates, and sweep them at
    # another chunk size: the exhaustive and random-projection splits
    # keep every bit.
    data, node = case
    strategy = SearchStrategy(
        kind="random_projection",
        sparsity_d=min(sparsity, data.p),
        num_candidates=count,
        seed=seed % 1000,
    )
    searches = [(search_exhaustive_oblique, sparsity), (run_search, strategy)]
    want = [outcome(search, data, node, arg) for search, arg in searches]
    rng = np.random.default_rng(seed)
    canonical = splitting._canonical_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            splitting, "_canonical_rows", lambda m: shuffled_with_repeats(canonical(m), rng)
        )
        patch.setattr(splitting, "_BLOCK_DIRECTIONS", chunk)
        got = [outcome(search, data, node, arg) for search, arg in searches]
    assert got == want


def placement(search, dataset, node, *args):
    """Direction, threshold and counts of a search's split, or None."""
    try:
        split = search(dataset, node, *args)
    except NoValidSplitError:
        return None
    return split.direction, split.threshold, split.left_count, split.right_count


@settings(max_examples=60, deadline=None)
@given(
    case=grid_nodes(max_m=14),
    continuous=st.booleans(),
    sparsity=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_split_is_unchanged_by_a_response_offset(case, continuous, sparsity, seed):
    # Integer grids tie exactly; continuous nodes tie only within a
    # dichotomy.  (Not under y -> 2^k y: DECREASE_TOL is absolute.)
    data, node = case
    if continuous:
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(-1.0, 1.0, size=data.features.shape), rng.standard_normal(data.n))
    strategy = SearchStrategy(
        kind="random_projection", sparsity_d=min(sparsity, data.p), num_candidates=20, seed=seed
    )
    searches = [
        (search_axis_aligned,),
        (search_exhaustive_oblique, sparsity),
        (run_search, strategy),
    ]
    want = [placement(search, data, node, *args) for search, *args in searches]
    for offset in (1e6, 1e8, 1e9):
        shifted = Dataset(data.features, data.response + offset)
        assert [placement(search, shifted, node, *args) for search, *args in searches] == want


@pytest.mark.parametrize("offset", [1e8, 1e9])
def test_step_survives_a_large_response_offset(offset):
    # A step at x2 = 0.37 over 400 uniform points.  Sweeping uncentred
    # responses lost it at these offsets: the axis search moved its
    # threshold to the edge, and random projection took (1, 0, 1)/sqrt(2).
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(400, 3))
    step = X[:, 2] > 0.37
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=50, seed=0)
    data = Dataset(X, step + offset)
    root = root_index_set(data)
    for split in (search_axis_aligned(data, root), run_search(data, root, strategy)):
        assert split.direction == axis_direction(3, 2)
        assert np.max(X[~step, 2]) < split.threshold < np.min(X[step, 2])
        assert split.left_count == np.count_nonzero(~step)


# The screen: exact decreases only for the contenders of a sweep.  Every
# search must return what it returns when every direction is solved
# exactly (reference_split) before _near_best and _winner pick.


def unscreened_vertex_splits(node, W, n_full):
    """The stored splits of an oracle problem (a _Vertices) with no
    screen: on every sweep row, the first valid boundary within
    DECREASE_TOL of its best exact decrease, and every tie split of its
    group, and every cell of every pencil (_cells), each solved exactly,
    go to the stored-split rule (_vertex_splits)."""
    m, found = node.y.size, []

    def dichotomy_decrease(left):
        return splitting._split_decrease(node.y, ~left if left[0] else left, n_full, node.sse)

    for r in range(len(W)):
        (values,), (below,), (tied,), (size,) = W.levels(r, r + 1)
        order = np.argsort(values, kind="stable")
        v = values[order]
        plain = []
        for b in range(m - 1):
            if v[b] < (v[b] + v[b + 1]) * 0.5 < v[b + 1]:
                left = np.zeros(m, dtype=bool)
                left[order[: b + 1]] = True
                plain.append((splitting._split_decrease(node.y, left, n_full, node.sse), left))
        if plain:
            top = max(decrease for decrease, _ in plain)
            left = next(left for decrease, left in plain if decrease >= top - DECREASE_TOL)
            found.append((dichotomy_decrease(left), r, left, False))
        if tied >= 2:
            members = order[below : below + tied]
            parts = (
                splitting._GROUP_SPLITS[tied] if tied == size
                else [inside for inside, _ in W.parts(r, members).values()]
            )
            for part in parts:
                left = np.zeros(m, dtype=bool)
                left[order[:below]] = True
                left[members[part]] = True
                found.append((dichotomy_decrease(left), r, left, True))
    if len(W.pencils):
        block, which = [(0, 0, len(W.pencils))], np.zeros(len(W.pencils), dtype=np.intp)
        cells = splitting._cells([(node, W)], block, which)
        gains = splitting._cell_gains(cells, 0, cells.cut_sums.shape[1], n_full)
        k, t, c = np.nonzero(gains > -np.inf)
        every = splitting._cell_candidates([(node, W)], block, which, cells, k, t, c, gains[k, t, c])
        for row, left, moved in zip(every.rows.tolist(), every.lefts[:, :m], every.moved.tolist()):
            found.append((dichotomy_decrease(left), row, left, moved))
    return splitting._vertex_splits((node, W), 0, found, n_full, {})


def unscreened_best_thresholds(X, problems, n_full, keep=False):
    """_best_thresholds with no screen: every row of every problem solved
    exactly.  It keeps no orders, whatever keep says."""
    return [
        splitting._near_best(
            unscreened_vertex_splits(node, W, n_full) if isinstance(W, splitting._Vertices)
            else [reference_split(node.features(X), node.y, Direction(tuple(w)), n_full) for w in W.tolist()]
        )
        for node, W in problems
    ]


@st.composite
def screen_cases(draw):
    """Nodes of 2 to 3,000 rows: integer-grid features (tied gains) or
    continuous ones, every column duplicated at times; integer or
    continuous responses at scale 1e-6 (gains of the order of
    DECREASE_TOL), 1 or 1e3, plus an offset of 0, 1e6 or 1e9; the root
    or a subset of a larger sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(2, 41)) if draw(st.integers(0, 3)) else int(rng.integers(41, 3001))
    p = int(rng.integers(1, 4))
    if draw(st.booleans()):
        X = rng.integers(-2, 3, size=(m, p)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(m, p))
    if draw(st.booleans()):
        X = np.repeat(X, 2, axis=1)
    if draw(st.booleans()):
        y = rng.integers(0, draw(st.integers(1, 4)), size=m).astype(float)
    else:
        y = rng.standard_normal(m)
    y = y * draw(st.sampled_from([1e-6, 1.0, 1e3])) + draw(st.sampled_from([0.0, 1e6, 1e9]))
    extra = int(rng.integers(0, m + 1)) if draw(st.booleans()) else 0
    n = m + extra
    X = np.concatenate([X, rng.uniform(-1.0, 1.0, size=(extra, X.shape[1]))])
    y = np.concatenate([y, np.full(extra, y[0])])
    node = np.sort(rng.permutation(n)[:m]) if extra else np.arange(n)
    return Dataset(X, y), node


@settings(max_examples=80, deadline=None)
@given(case=screen_cases(), seed=st.integers(0, 2**32 - 1))
def test_screened_batch_is_the_exact_near_best_set(case, seed):
    data, node = case
    rng = np.random.default_rng(seed)
    # On integer grids, small integer directions and each axis tilted by
    # 1e-3 towards the next one cut the same dichotomies as others, but
    # sweep the rows in another order, so their gains differ in the last
    # bits while their exact decreases are equal.
    eye = np.eye(data.p)
    rows = np.concatenate([eye, eye + 1e-3 * np.roll(eye, 1, axis=1), rng.integers(-2, 3, size=(12, data.p))])
    W = np.array([Direction.canonical(v).coefficients for v in rows if v.any()])
    X, y = data.features[node], data.response[node]
    got = node_best_thresholds(X, y, W, data.n)
    (want,) = unscreened_best_thresholds(X, [(_Node(y, np.arange(y.size)), W)], data.n)
    assert [split_bytes(s) for s in got] == [split_bytes(s) for s in want]


@settings(max_examples=60, deadline=None)
@given(
    case=screen_cases(),
    sparsity=st.integers(1, 3),
    count=st.integers(0, 30),
    restarts=st.integers(1, 2),
    seed=st.integers(0, 1000),
)
def test_searches_equal_their_unscreened_reference(case, sparsity, count, restarts, seed):
    data, node = case
    searches = [
        (search_axis_aligned,),
        (
            run_search,
            SearchStrategy(kind="random_projection", sparsity_d=sparsity, num_candidates=count, seed=seed),
        ),
        (
            search_hill_climb,
            SearchStrategy(kind="hill_climb", sparsity_d=sparsity, restarts=restarts, max_iterations=3, seed=seed),
        ),
    ]
    if node.size <= 12:
        searches.append((search_exhaustive_oblique, sparsity))
    for cut in (splitting._PENCIL_ROWS, 2):  # pencils from the default node size, and at every size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(splitting, "_PENCIL_ROWS", cut)
            got = [outcome(search, data, node, *args) for search, *args in searches]
            patch.setattr(splitting, "_best_thresholds", unscreened_best_thresholds)
            want = [outcome(search, data, node, *args) for search, *args in searches]
        assert got == want


def test_screen_keeps_a_tie_whose_sweep_gains_differ_in_the_last_bit():
    # Axis 1, (1, -1) and (1, 2) all cut point 3 from the rest: one
    # dichotomy, one exact decrease.  The sweeps add the responses in
    # different orders, and (1, -1)'s gain is one ulp (about 6e-11) above
    # the others.  All three are near-best, and the winner has the
    # smallest support: axis 1.  A screen without B keeps only (1, -1).
    X = np.array([[2, -2], [2, 0], [0, 1], [-1, 2], [-2, -1], [-1, 0], [0, -2]], dtype=float)
    y = np.array([748.7, 1634.8, 272.8, -1233.3, -958.3, 1600.0, 202.9])
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 2.0], [2.0, 1.0]])
    W = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    near = node_best_thresholds(X, y, W, 7)
    assert [s.direction.coefficients for s in near] == [tuple(W[i]) for i in (1, 3, 4)]
    assert len({s.decrease for s in near}) == 1
    data = Dataset(X, y)
    best = best_over_directions(data, root_index_set(data), W)
    assert best.direction == axis_direction(2, 1)


def test_a_direction_below_the_final_floor_is_not_solved(monkeypatch):
    # One direction per block.  In the order (axis 0, axis 1), axis 0 is
    # the best of the first block, so it passes that block's floor, but
    # axis 1's far larger gain raises the floor past it.  In the order
    # (axis 1, axis 0), the floor must not fall back for the second block.
    # Either way only axis 1 gets an exact decrease and a Split.
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, size=(40, 2))
    y = (X[:, 1] > 0.0).astype(float)
    weak, strong = (reference_split(X, y, axis_direction(2, j), 40) for j in (0, 1))
    assert weak is not None and weak.decrease < 0.5 * strong.decrease
    calls = []
    real = splitting._split_decrease
    monkeypatch.setattr(splitting, "_split_decrease", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(splitting, "_BLOCK_DIRECTIONS", 1)
    for W in (np.eye(2), np.eye(2)[::-1]):
        calls.clear()
        assert [split_bytes(s) for s in node_best_thresholds(X, y, W, 40)] == [split_bytes(strong)]
        assert len(calls) == 1


@pytest.mark.parametrize("scale", [2.0**-560, 2.0**530])
def test_exhaustive_keeps_oblique_candidates_whose_squares_underflow_or_overflow(scale):
    # Pair differences of these points have squares below the smallest
    # subnormal or above the largest double.  Their perpendiculars must
    # still be swept: the oblique split beats every axis split.
    rng = np.random.default_rng(11)
    X = rng.uniform(-1.0, 1.0, size=(12, 2))
    data = Dataset(X, (X[:, 0] + X[:, 1] > 0.1).astype(float))
    root = root_index_set(data)
    want = search_exhaustive_oblique(data, root, 2)
    assert want.direction.support_size == 2
    assert want.decrease > search_axis_aligned(data, root).decrease + 0.01
    scaled = Dataset(X * scale, data.response)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = search_exhaustive_oblique(scaled, root, 2)
    assert got.decrease == want.decrease
    assert (got.left_count, got.right_count) == (want.left_count, want.right_count)
    assert got.direction.coefficients == pytest.approx(want.direction.coefficients, rel=1e-12)


def test_every_candidate_row_is_projected_and_sorted_once():
    # One sweep per candidate direction: the rows handed to the
    # projection kernel and to the sort equal the candidate rows, the
    # axes of random projection's baseline included.  Random projection
    # also sorts its draw's keys, one row per candidate, once.
    data = random_dataset(13, 24, 3)
    root = root_index_set(data)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=40, seed=2)
    raw = _random_sparse_directions(2, 3, 2, 40)
    cases = [
        (lambda: run_search(data, root, strategy), 3 + _canonical_rows(raw).shape[0], 40),
    ]
    for search, candidates, keys in cases:
        projected, sorted_rows = [], []
        with pytest.MonkeyPatch.context() as patch:
            project, order = splitting.projections, splitting._stable_order
            patch.setattr(splitting, "projections", lambda X, W, *a: projected.append(len(W)) or project(X, W, *a))
            patch.setattr(splitting, "_stable_order", lambda V, *a: sorted_rows.append(len(V)) or order(V, *a))
            search()
        assert sum(projected) == sum(sorted_rows) - keys == candidates
    # The oracle's sweep rows are levelled (projected onto their normals)
    # and sorted once each, and each pencil sorts its crossing angles and
    # its line's points once; its few contenders are projected again only
    # to store their splits.
    levelled, sorted_rows = [], []
    with pytest.MonkeyPatch.context() as patch:
        level, order = splitting._Vertices.levels, splitting._stable_order
        patch.setattr(splitting._Vertices, "levels", lambda self, lo, hi: levelled.append(hi - lo) or level(self, lo, hi))
        patch.setattr(splitting, "_stable_order", lambda V, *a: sorted_rows.append(len(V)) or order(V, *a))
        search_exhaustive_oblique(data, root, 3)
    vertices = splitting._Vertices(data.features, 3)
    assert sum(levelled) == len(vertices)
    assert sum(sorted_rows) == len(vertices) + 2 * len(vertices.pencils)


# The OC1 hill climb: the exact coefficient move against a scan of its
# candidate values, and what SearchStrategy promises of every split.


def brute_coefficient_move(X, y, w, j, threshold, n_full):
    """[(c, decrease)] for every candidate value c of coefficient j, from
    the definitions: the midpoints of the sorted crossing points U_i =
    (threshold - w . x_i) / x_ij, and one point past either end, half the
    spread of U beyond it (or |U|, or 1, if all U are equal).  A row is
    left if x_ij > 0 and c < U_i, if x_ij < 0 and c > U_i, or if x_ij = 0
    and w . x_i <= threshold.  Values that empty a side are left out."""
    rest = reference_projections(X, w)
    x = X[:, j]
    U = sorted((threshold - r) / xi for r, xi in zip(rest, x) if xi != 0.0)
    if not U:
        return []
    pad = (U[-1] - U[0]) or abs(U[0]) or 1.0
    points = [U[0] - pad, *U, U[-1] + pad]
    sse = lambda v: float(np.sum((v - v.mean()) ** 2))
    out = []
    for a, b in zip(points[:-1], points[1:]):
        c = 0.5 * (a + b)
        if not a < c < b:
            continue
        left = np.array(
            [(c < (threshold - r) / xi) == (xi > 0) if xi != 0.0 else r <= threshold
             for r, xi in zip(rest, x)]
        )
        if 0 < np.count_nonzero(left) < left.size:
            out.append((c, (sse(y) - sse(y[left]) - sse(y[~left])) / n_full))
    return out


@settings(max_examples=150, deadline=None)
@given(case=grid_nodes(max_m=20, max_p=4), continuous=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_coefficient_move_matches_a_scan_of_its_candidates(case, continuous, seed):
    data, node = case
    rng = np.random.default_rng(seed)
    X, y = data.features[node], data.response[node]
    if continuous:
        X, y = rng.uniform(-1.0, 1.0, size=X.shape), rng.standard_normal(y.size)
    j = int(rng.integers(data.p))
    w = rng.standard_normal(data.p) * (rng.random(data.p) < 0.7)
    w[j] = 0.0
    threshold = float(rng.choice(reference_projections(X, w))) + float(rng.choice([0.0, 0.5, -0.5]))
    got = _coefficient_move(np.asfortranarray(X), y - y.mean(), w, j, threshold, data.n)
    scan = brute_coefficient_move(X, y, w, j, threshold, data.n)
    if not scan:
        assert got is None
        return
    best = max(gain for _, gain in scan)
    c, gain = got
    assert gain == pytest.approx(best, rel=1e-9, abs=1e-15)
    assert c == min(value for value, g in scan if g >= best - DECREASE_TOL)


@settings(max_examples=60, deadline=None)
@given(
    case=grid_nodes(max_m=30, max_p=5),
    continuous=st.booleans(),
    sparsity=st.integers(1, 5),
    restarts=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_hill_climb_keeps_the_support_cap_and_the_axis_decrease(
    case, continuous, sparsity, restarts, seed
):
    data, node = case
    if continuous:
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(-1.0, 1.0, size=data.features.shape), rng.standard_normal(data.n))
    strategy = SearchStrategy(
        kind="hill_climb", sparsity_d=sparsity, restarts=restarts, max_iterations=4, seed=seed
    )
    try:
        axis = search_axis_aligned(data, node)
    except NoValidSplitError:
        with pytest.raises(NoValidSplitError):
            search_hill_climb(data, node, strategy)
        return
    split = search_hill_climb(data, node, strategy)
    assert split.direction.support_size <= min(sparsity, data.p)
    assert split.decrease >= axis.decrease - DECREASE_TOL
    assert abs(split.decrease - sse_decrease(data, node, split.direction, split.threshold)) <= 1e-12
    assert split_bytes(search_hill_climb(data, node, strategy)) == split_bytes(split)


def test_hill_climb_swaps_out_the_smallest_coefficient(monkeypatch):
    # y steps on x0 + 0.3 x1: the first pass from e_0 moves x1 in, which
    # fills the sparsity-2 support, so x2 may enter only in place of x1.
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(200, 3))
    data = Dataset(X, (X[:, 0] + 0.3 * X[:, 1] > 0.0).astype(float))
    calls = []
    real = splitting._coefficient_move

    def spy(X, centred, w, j, *rest):
        calls.append((j, w.copy()))
        return real(X, centred, w, j, *rest)

    monkeypatch.setattr(splitting, "_coefficient_move", spy)
    strategy = SearchStrategy(kind="hill_climb", sparsity_d=2, max_iterations=1)
    split = search_hill_climb(data, root_index_set(data), strategy)
    assert split.direction.support_size == 2
    w = next(w for j, w in calls if j == 2)
    assert w[0] != 0.0 and w[1] == 0.0 and w[2] == 0.0


# _stable_order: numpy's unstable SIMD argsort plus a repair of tied
# runs must give exactly the stable argsort, values bit for bit.


@st.composite
def sort_blocks(draw):
    """k x m blocks whose rows are integer grids (many ties), continuous
    (none), or constant, with -0.0 next to +0.0, +-inf and NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([1, 2, 3, 7, 20]))
    m = draw(st.sampled_from([1, 2, 3, 5, 16, 33, 100, 300, 1000]))
    V = rng.standard_normal((k, m))
    grid = rng.random(k) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    V[grid] = rng.integers(-3, 4, size=(int(grid.sum()), m))
    if draw(st.booleans()):
        V[rng.integers(k)] = V[rng.integers(k), 0]
    if draw(st.booleans()):
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        hit = rng.random((k, m)) < draw(st.sampled_from([0.05, 0.3, 1.0]))
        V[hit] = rng.choice(specials, size=int(hit.sum()))
    return V


def assert_stable_order(V):
    order, values = _stable_order(V)
    want = np.argsort(V, axis=1, kind="stable")
    assert order.dtype == want.dtype
    assert np.array_equal(order, want)
    assert values.tobytes() == np.take_along_axis(V, want, axis=1).tobytes()


@settings(max_examples=300, deadline=None)
@given(V=sort_blocks())
def test_stable_order_matches_stable_argsort(V):
    assert_stable_order(V)


def reversed_ties(real_argsort):
    """An unstable argsort that orders equal values by descending index."""

    def argsort(a, axis=-1, kind=None, **kwargs):
        if kind is not None:
            return real_argsort(a, axis=axis, kind=kind, **kwargs)
        assert axis == 1 and a.ndim == 2
        return a.shape[1] - 1 - real_argsort(a[:, ::-1], axis=1, kind="stable")

    return argsort


@settings(max_examples=150, deadline=None)
@given(V=sort_blocks())
@example(V=np.array([[1.0, 0.0, 1.0, -0.0, 0.0, np.nan, -np.nan, 2.0], [3.0, 1.0, 2.0, 0.5, 4, 5, 6, 7]]))
def test_stable_order_repairs_reversed_ties(V):
    # Whatever order the local SIMD sort leaves ties in, the repair
    # must restore the stable one, sign of zero and NaN bits included.
    calls = []
    fake = reversed_ties(np.argsort)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", lambda *a, **kw: calls.append(kw.get("kind")) or fake(*a, **kw))
        assert_stable_order(V)
    assert None in calls


@settings(max_examples=150, deadline=None)
@given(V=sort_blocks(), seed=st.integers(0, 2**32 - 1), reverse=st.booleans())
def test_stable_order_keeps_each_row_ahead_of_its_padding(V, seed, reverse):
    # Rows of several lengths m, padded with +inf after their values (no
    # NaN: split search never projects one): the first m sorted positions
    # of a row are the stable sort of its own values, its own +infs
    # included, whatever order the SIMD sort leaves ties in.
    V = np.where(np.isnan(V), np.inf, V)
    k, M = V.shape
    m = np.random.default_rng(seed).integers(1, M + 1, size=(k, 1))
    padded = np.where(np.arange(M) < m, V, np.inf)
    with pytest.MonkeyPatch.context() as patch:
        if reverse:
            patch.setattr(np, "argsort", reversed_ties(np.argsort))
        order, values = _stable_order(padded, m)
    for row, (size,) in enumerate(m.tolist()):
        want = np.argsort(V[row, :size], kind="stable")
        assert np.array_equal(order[row, :size], want)
        assert values[row, :size].tobytes() == V[row, want].tobytes()
        assert np.all(values[row, size:] == np.inf)


def test_splitting_sorts_only_through_stable_order():
    # One sort kernel: no stable argsort is called during split search.
    real = np.argsort

    def unstable_only(a, axis=-1, kind=None, **kwargs):
        assert kind is None, "split search sorted outside _stable_order"
        return real(a, axis=axis, **kwargs)

    data = random_dataset(7, 60, 3)
    root = root_index_set(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", unstable_only)
        search_axis_aligned(data, root)
        search_exhaustive_oblique(data, root[:20], 3)
        search_hill_climb(data, root, SearchStrategy(kind="hill_climb", max_iterations=1))
        search_hill_climb(
            data, root, SearchStrategy(kind="hill_climb", sparsity_d=2, restarts=2, max_iterations=2)
        )
        run_search(
            data, root, SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=10)
        )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    p=st.integers(1, 12),
    sparsity=st.integers(1, 14),
    count=st.integers(0, 40),
)
def test_random_sparse_directions_match_the_raw_word_loop(seed, p, sparsity, count):
    got = _random_sparse_directions(seed, p, sparsity, count)
    want = reference_random_sparse_directions(seed, p, sparsity, count)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 30),
    sparsity=st.integers(1, 32),
    count=st.integers(0, 300),
)
def test_random_sparse_directions_are_signed_sparse_unit_rows(seed, p, sparsity, count):
    d = min(sparsity, p)
    rows = _random_sparse_directions(seed, p, sparsity, count)
    assert rows.shape == (count, p)
    assert (np.count_nonzero(rows, axis=1) == d).all()
    assert set(np.abs(rows[rows != 0.0]).tolist()) <= {1.0 / np.sqrt(d)}


@pytest.mark.parametrize("scale", [2.0**520, 2.0**1000])
def test_exhaustive_cross_products_do_not_overflow(scale):
    # The size-3 candidates are cross products of point differences,
    # which square the data's scale.  Rescaled by a power of two first,
    # they give the directions of the unscaled points, bit for bit.
    rng = np.random.default_rng(31)
    X = rng.uniform(-1.0, 1.0, size=(10, 3))
    y = (X[:, 0] + 0.7 * X[:, 1] - 1.3 * X[:, 2] > 0.1).astype(float)
    root = np.arange(10)
    want = search_exhaustive_oblique(Dataset(X, y), root, 3)
    assert want.direction.support_size == 3
    assert want.decrease == pytest.approx(0.21, abs=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = search_exhaustive_oblique(Dataset(X * scale, y), root, 3)
    assert got.decrease == want.decrease
    assert [c.hex() for c in got.direction.coefficients] == [c.hex() for c in want.direction.coefficients]
    assert (got.left_count, got.right_count) == (want.left_count, want.right_count)


# One search call per job: estimate_suboptimality hands its trials to one
# _search_level call, and the hill climb continues from its level's axis
# split and solves its restarts in one _best_thresholds call.  The loops
# they replaced are the references.


UNIT_SQUARE = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.0, 1.0, 1.0, 2.0]))


def reference_estimate_suboptimality(dataset, node, strategy, kappa, trials):
    """The report's dict from one run_search per trial, a trial without a
    valid split counting as 0.0."""
    oracle = search_exhaustive_oblique(dataset, node, dataset.p, strategy.node_cap)
    decreases = []
    for trial in range(trials):
        try:
            decreases.append(run_search(dataset, node, replace(strategy, seed=strategy.seed + trial)).decrease)
        except NoValidSplitError:
            decreases.append(0.0)
    successes = sum(achieved >= kappa * oracle.decrease - DECREASE_TOL for achieved in decreases)
    return {
        "kappa": kappa,
        "trials": trials,
        "success_fraction": successes / trials,
        "oracle_decrease": oracle.decrease,
        "per_trial_decreases": decreases,
    }


def reference_climb(X, node, base, strategy, seed, n_full):
    """The climb that re-solves its axis start, and each restart, with a
    _best_thresholds call of its own."""
    if strategy.max_iterations == 0:
        return base
    p = X.shape[1]
    d = min(strategy.sparsity_d, p)
    rows = _random_sparse_directions(seed, p, d, strategy.restarts - 1)
    local = node.features(X)
    ends = [base]
    for start in [base.direction] + [Direction.canonical(row) for row in rows]:
        (near,) = _best_thresholds(X, [(node, start.as_array()[None])], n_full)
        if not near:
            continue
        current = near[0]
        for _ in range(strategy.max_iterations):
            before = current
            for j in range(p):
                w = current.direction.as_array().copy()
                if w[j] == 0.0 and current.direction.support_size >= d:
                    w[np.argmin(np.where(w == 0.0, np.inf, np.abs(w)))] = 0.0
                w[j] = 0.0
                move = _coefficient_move(local, node.centred, w, j, current.threshold, n_full)
                if move is None or move[1] <= current.decrease + DECREASE_TOL:
                    continue
                w[j] = move[0]
                (near,) = _best_thresholds(X, [(node, Direction.canonical(w).as_array()[None])], n_full)
                if near and near[0].decrease > current.decrease + DECREASE_TOL:
                    current = near[0]
            if current is before:
                break
        ends.append(current)
    return _winner(ends)


def report_or_error(run, *args):
    """run(*args) as JSON with every float exact, or its error."""
    try:
        return json.dumps(run(*args), sort_keys=True)
    except (NoValidSplitError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=100, deadline=None)
@given(
    case=grid_nodes(max_m=14),
    continuous=st.booleans(),
    kind=st.sampled_from(STRATEGY_KINDS),
    sparsity=st.integers(1, 3),
    trials=st.integers(1, 5),
    seed=st.integers(0, 1000),
    kappa=st.sampled_from([0.5, 0.9, 1.0]),
    num_candidates=st.sampled_from([0, 1, 8]),
    restarts=st.sampled_from([1, 2]),
)
# On the unit square with y = x1 + x2 the oblique split beats both axes,
# and a single random direction is (1, 1) or (1, -1) depending on the seed.
@example(case=(UNIT_SQUARE, np.arange(4)), continuous=False, kind="exhaustive_oblique",
         sparsity=1, trials=2, seed=0, kappa=1.0, num_candidates=0, restarts=1)
@example(case=(UNIT_SQUARE, np.arange(4)), continuous=False, kind="random_projection",
         sparsity=2, trials=5, seed=0, kappa=1.0, num_candidates=1, restarts=1)
def test_estimate_suboptimality_matches_one_search_per_trial(
    case, continuous, kind, sparsity, trials, seed, kappa, num_candidates, restarts
):
    data, node = case
    if continuous:
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(-1.0, 1.0, size=data.features.shape), rng.standard_normal(data.n))
    strategy = SearchStrategy(
        kind=kind, sparsity_d=sparsity, num_candidates=num_candidates, restarts=restarts,
        max_iterations=3, seed=seed,
    )
    got = report_or_error(lambda: estimate_suboptimality(data, node, strategy, kappa, trials).to_dict())
    want = report_or_error(reference_estimate_suboptimality, data, node, strategy, kappa, trials)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    case=grid_nodes(max_m=40, max_p=4),
    continuous=st.booleans(),
    sparsity=st.integers(1, 4),
    restarts=st.integers(1, 4),
    iterations=st.integers(0, 5),
    seed=st.integers(0, 1000),
)
def test_hill_climb_matches_the_climb_that_re_solves_its_starts(
    case, continuous, sparsity, restarts, iterations, seed
):
    data, node = case
    if continuous:
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(-1.0, 1.0, size=data.features.shape), rng.standard_normal(data.n))
    strategy = SearchStrategy(
        kind="hill_climb", sparsity_d=sparsity, restarts=restarts, max_iterations=iterations, seed=seed
    )
    try:
        base = search_axis_aligned(data, node)
    except NoValidSplitError:
        want = "no valid split"
    else:
        sample = _Node.of(data, node)
        want = split_bytes(reference_climb(data.features, sample, base, strategy, seed, data.n))
    assert outcome(run_search, data, node, strategy) == want


def test_hill_climb_is_warning_free_on_columns_scaled_near_the_float_limits():
    # Column 0 at 1e300 and column 1 at 1e-300: a crossing point of a
    # coefficient of column 1 overflows, and such a row keeps its side at
    # every finite coefficient.  No overflow or invalid value may be
    # raised (pytest fails on a RuntimeWarning), and every split still
    # carries the exact decrease of the split it stores.
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(200, 3))
    y = np.sin(X @ np.array([1.0, 1.5, -0.5])) + 0.1 * rng.standard_normal(200)
    X[:, 0] *= 1e300
    X[:, 1] *= 1e-300
    data = Dataset(X, y)
    strategy = SearchStrategy(kind="hill_climb", sparsity_d=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grown = grow(data, strategy, 4)
    rows = node_rows(grown, data)
    root = grown.nodes[grown.root_id]
    assert root.split.decrease >= search_axis_aligned(data, rows[grown.root_id]).decrease - DECREASE_TOL
    for nid, node in grown.nodes.items():
        if not node.is_leaf:
            split = node.split
            assert split.direction.support_size <= 3
            assert split.decrease == sse_decrease(data, rows[nid], split.direction, split.threshold)
    assert training_error(grown, data) < node_stats(data, rows[grown.root_id])[1] / data.n

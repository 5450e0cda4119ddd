import itertools
import warnings

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
    node_stats,
    root_index_set,
    search_axis_aligned,
    search_exhaustive_oblique,
    search_hill_climb,
    search_random_projection,
    sse_decrease,
)
from obliquetree import splitting
from obliquetree.splitting import (
    DECREASE_TOL,
    Split,
    _Node,
    _best_thresholds,
    _candidate_directions,
    _coefficient_move,
    _canonical_rows,
    _random_sparse_directions,
    _stable_order,
    _sweep_gains,
    _winner,
)

from conftest import random_dataset, reference_projections, snap_border_rows


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
    # sparsity_d is a cap: above p it means p ...
    assert search_exhaustive_oblique(d2, root, 4) == search_exhaustive_oblique(d2, root, 2)
    # ... and the enumeration stops at supports of size 3.
    wide = random_dataset(7, 8, 4)
    with pytest.raises(ValueError, match="sparsity"):
        search_exhaustive_oblique(wide, root_index_set(wide), 4)


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
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[-1] if arr.ndim == 2 else 0)
    peak = np.max(np.abs(arr), axis=1, keepdims=True)
    keep = peak[:, 0] > 0.0
    arr = arr[keep]
    peak = peak[keep]
    if arr.shape[0] == 0:
        return arr
    arr = np.where(np.abs(arr) <= 1e-12 * peak, 0.0, arr)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    keep = norms[:, 0] > 0.0
    arr = arr[keep] / norms[keep]
    if arr.shape[0] == 0:
        return arr
    first_nz = np.argmax(arr != 0.0, axis=1)
    signs = np.sign(arr[np.arange(arr.shape[0]), first_nz])
    arr = arr * signs[:, None]
    return np.unique(arr, axis=0)


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


def reference_search_exhaustive_oblique(dataset, node, sparsity_d):
    X = dataset.features[np.asarray(node)]
    d = min(sparsity_d, dataset.p)
    blocks = []
    for size in range(1, d + 1):
        for support in itertools.combinations(range(dataset.p), size):
            pts = X[:, list(support)]
            blocks.append(_candidate_directions(pts, support, dataset.p, size))
    directions = reference_canonical_rows(np.concatenate(blocks, axis=0))
    best = reference_best_over_directions(dataset, node, directions)
    if best is None:
        raise NoValidSplitError("no valid split on this node")
    return best


def reference_search_random_projection(dataset, node, strategy):
    best = reference_search_axis_aligned(dataset, node)
    if strategy.num_candidates == 0:
        return best
    rng = np.random.default_rng(strategy.seed)
    raw = reference_random_sparse_directions(rng, dataset.p, strategy.sparsity_d, strategy.num_candidates)
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
    """The deduplicated exhaustive candidates on supports up to max_support."""
    X = data.features[node]
    blocks = [
        _candidate_directions(X[:, list(s)], s, data.p, len(s))
        for size in range(1, min(data.p, max_support) + 1)
        for s in itertools.combinations(range(data.p), size)
    ]
    return _canonical_rows(np.concatenate(blocks, axis=0))


@settings(max_examples=80, deadline=None)
@given(case=grid_nodes(), sparsity=st.integers(1, 3))
def test_exhaustive_matches_per_candidate_reference(case, sparsity):
    data, node = case
    assert outcome(search_exhaustive_oblique, data, node, sparsity) == outcome(
        reference_search_exhaustive_oblique, data, node, sparsity
    )


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
    assert outcome(search_random_projection, data, node, strategy) == outcome(
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
    assert {tuple(r) for r in got.tolist()} == {tuple(r) for r in want.tolist()}


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(direction_rows(), snap_border_rows()))
def test_canonical_rows_are_fixpoints_of_direction_canonical(rows):
    # _best_thresholds stores each swept row as its Split's direction, so
    # a row must be exactly the direction Direction.canonical makes of it,
    # at the snap border and at scales whose squares underflow or
    # overflow too; and only zero rows are dropped.  (The bulk form
    # computes norms row-wise, so it may differ from Direction.canonical
    # of the input row in the last bits, but not in a snapped coefficient
    # or a sign.)
    got = _canonical_rows(rows)
    for row in got:
        assert [c.hex() for c in Direction.canonical(row).coefficients] == [c.hex() for c in row]
    for row in rows[np.any(rows != 0.0, axis=1)]:
        want = Direction.canonical(row).as_array()
        assert np.min(np.max(np.abs(got - want), axis=1)) <= 2e-12


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

    def fixed(X, problems, n_full):
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
    searches = [(search_exhaustive_oblique, sparsity), (search_random_projection, strategy)]
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
        (search_random_projection, strategy),
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
    for split in (search_axis_aligned(data, root), search_random_projection(data, root, strategy)):
        assert split.direction == axis_direction(3, 2)
        assert np.max(X[~step, 2]) < split.threshold < np.min(X[step, 2])
        assert split.left_count == np.count_nonzero(~step)


# The screen: exact decreases only for the contenders of a sweep.  Every
# search must return what it returns when every direction is solved
# exactly (reference_split) before _near_best and _winner pick.


def unscreened_best_thresholds(X, problems, n_full):
    """_best_thresholds with no screen: every row of every problem solved
    exactly."""
    return [
        splitting._near_best(
            [reference_split(node.features(X), node.y, Direction(tuple(w)), n_full) for w in W.tolist()]
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
            search_random_projection,
            SearchStrategy(kind="random_projection", sparsity_d=sparsity, num_candidates=count, seed=seed),
        ),
        (
            search_hill_climb,
            SearchStrategy(kind="hill_climb", sparsity_d=sparsity, restarts=restarts, max_iterations=3, seed=seed),
        ),
    ]
    if node.size <= 12:
        searches.append((search_exhaustive_oblique, min(sparsity, 2)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_best_thresholds", unscreened_best_thresholds)
        want = [outcome(search, data, node, *args) for search, *args in searches]
    assert [outcome(search, data, node, *args) for search, *args in searches] == want


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
    # axes of random projection's baseline included.
    data = random_dataset(13, 24, 3)
    root = root_index_set(data)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=40, seed=2)
    raw = _random_sparse_directions(2, 3, 2, 40)
    cases = [
        (lambda: search_exhaustive_oblique(data, root, 3), candidate_rows(data, root, 3).shape[0]),
        (lambda: search_random_projection(data, root, strategy), 3 + _canonical_rows(raw).shape[0]),
    ]
    for search, candidates in cases:
        projected, sorted_rows = [], []
        with pytest.MonkeyPatch.context() as patch:
            project, order = splitting.projections, splitting._stable_order
            patch.setattr(splitting, "projections", lambda X, W, *a: projected.append(len(W)) or project(X, W, *a))
            patch.setattr(splitting, "_stable_order", lambda V, *a: sorted_rows.append(len(V)) or order(V, *a))
            search()
        assert sum(projected) == sum(sorted_rows) == candidates


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
        search_exhaustive_oblique(data, root[:20], 2)
        search_hill_climb(data, root, SearchStrategy(kind="hill_climb", max_iterations=1))
        search_hill_climb(
            data, root, SearchStrategy(kind="hill_climb", sparsity_d=2, restarts=2, max_iterations=2)
        )
        search_random_projection(
            data, root, SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=10)
        )


def reference_random_sparse_directions(rng, p, sparsity_d, count):
    """The candidate draw as it was first written, one rng.choice per sign vector."""
    out = np.zeros((count, p))
    for i in range(count):
        support = rng.choice(p, size=sparsity_d, replace=False)
        out[i, support] = rng.choice([-1.0, 1.0], size=sparsity_d)
    return out / np.sqrt(sparsity_d)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 12), count=st.integers(0, 40), data=st.data())
def test_random_sparse_directions_match_reference(seed, p, count, data):
    d = data.draw(st.integers(1, p))
    got = _random_sparse_directions(seed, p, d, count)
    want = reference_random_sparse_directions(np.random.default_rng(seed), p, d, count)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p, d", [(10, 2), (5, 2), (5, 5), (3, 3), (10, 1), (7, 4), (10, 10)])
def test_bulk_random_draw_is_the_per_candidate_stream(p, d):
    # The bulk draw replays numpy's choice and integers streams; numpy
    # does not promise them across versions, so they are pinned here.
    for seed in range(200):
        got = _random_sparse_directions(seed, p, d, 30)
        want = reference_random_sparse_directions(np.random.default_rng(seed), p, d, 30)
        assert got.tobytes() == want.tobytes(), seed


def test_bulk_random_draw_falls_back_on_a_redraw():
    # Seed 83478's stream redraws one bounded draw (candidate 1153's
    # shuffle step from [0, 9]), which shifts every later candidate; the
    # bulk draw must notice and give the loop's directions.
    got = _random_sparse_directions(83478, 10, 10, 2000)
    want = reference_random_sparse_directions(np.random.default_rng(83478), 10, 10, 2000)
    assert got.tobytes() == want.tobytes()


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

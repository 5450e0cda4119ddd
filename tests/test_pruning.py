import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    PruneSequence,
    PruneStep,
    SearchStrategy,
    default_lambda_grid,
    grow,
    holdout_lambda,
    predict_batch,
    select_subtree,
    subset,
    training_error,
    weakest_link_sequence,
)
from obliquetree.pruning import _OBJECTIVE_TOL

from conftest import random_dataset, reference_permutation

AXIS = SearchStrategy(kind="axis_aligned")


def enumerate_pruned_subtrees(tree):
    """Oracle: every pruned subtree as a frozenset of retained internal
    node ids, built recursively (keep a node's split only if the node is
    retained as internal)."""

    def rec(nid):
        node = tree.nodes[nid]
        if node.is_leaf:
            return [frozenset()]
        options = [frozenset()]  # collapse here
        for left in rec(node.left_child):
            for right in rec(node.right_child):
                options.append(frozenset({nid}) | left | right)
        return options

    return rec(tree.root_id)


def subtree_metrics(tree, retained):
    """(train error, leaf count) of the subtree keeping `retained` internal."""
    leaves = []
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf or nid not in retained:
            leaves.append(nid)
        else:
            stack.extend((node.left_child, node.right_child))
    err = sum(tree.nodes[nid].sse for nid in leaves) / tree.n
    return err, len(leaves)


def brute_force_best(tree, lam):
    """Minimum objective subtree; ties resolved to the fewest leaves."""
    best = None
    for retained in enumerate_pruned_subtrees(tree):
        err, leaves = subtree_metrics(tree, retained)
        objective = err + lam * leaves
        key = (objective, leaves)
        if best is None or objective < best[0][0] - 1e-12:
            best = (key, retained)
        elif abs(objective - best[0][0]) <= 1e-12 and leaves < best[0][1]:
            best = ((min(objective, best[0][0]), leaves), retained)
    return best


def _subtree_leaf_stats(tree, collapsed):
    """Per-node (leaf count, summed leaf SSE) treating `collapsed` as leaves."""
    stats = {}
    order = sorted(tree.nodes.values(), key=lambda nd: nd.depth, reverse=True)
    for node in order:
        if node.is_leaf or node.node_id in collapsed:
            stats[node.node_id] = (1, node.sse)
        else:
            lc, ls = stats[node.left_child]
            rc, rs = stats[node.right_child]
            stats[node.node_id] = (lc + rc, ls + rs)
    return stats


def _live_internal_ids(tree, collapsed):
    """Internal nodes still expanded, i.e. not under or at a collapse."""
    live = []
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf or nid in collapsed:
            continue
        live.append(nid)
        stack.extend((node.left_child, node.right_child))
    return sorted(live)


def reference_weakest_link_sequence(tree, dataset):
    """Reference: the quadratic weakest-link path, which rebuilds every
    node's stats and the live set from scratch after each collapse."""
    assert dataset.n == tree.n
    collapsed = set()
    steps = []
    stats = _subtree_leaf_stats(tree, collapsed)
    initial_leaves = stats[tree.root_id][0]
    error = sum(tree.nodes[nid].sse for nid in tree.leaf_ids()) / tree.n
    initial_error = error
    while True:
        live = _live_internal_ids(tree, collapsed)
        if not live:
            break
        best_alpha = None
        best_nid = None
        for nid in live:
            node = tree.nodes[nid]
            leaves, leaf_sse = stats[nid]
            alpha = (node.sse - leaf_sse) / tree.n / (leaves - 1)
            if best_alpha is None or alpha < best_alpha - _OBJECTIVE_TOL:
                best_alpha = alpha
                best_nid = nid
            elif abs(alpha - best_alpha) <= _OBJECTIVE_TOL and nid < best_nid:
                best_nid = nid
                best_alpha = min(best_alpha, alpha)
        node = tree.nodes[best_nid]
        leaves, leaf_sse = stats[best_nid]
        error += (node.sse - leaf_sse) / tree.n
        collapsed.add(best_nid)
        stats = _subtree_leaf_stats(tree, collapsed)
        steps.append(
            PruneStep(
                critical_alpha=best_alpha,
                collapsed_node_id=best_nid,
                leaf_count_after=stats[tree.root_id][0],
                train_error_after=error,
            )
        )
    return PruneSequence(
        steps=tuple(steps),
        initial_leaf_count=initial_leaves,
        initial_train_error=initial_error,
    )


@st.composite
def axis_datasets(draw, max_n=48):
    """Small datasets whose features and responses may be integer-valued;
    integer responses give many exactly tied critical alphas."""
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 6, size=(n, p)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, p))
    if draw(st.booleans()):
        y = rng.integers(0, draw(st.integers(2, 4)), size=n).astype(float)
    else:
        y = 2.0 * rng.standard_normal(n)
    return Dataset(X, y)


@settings(max_examples=150, deadline=None)
@given(data=axis_datasets(), depth=st.integers(0, 7), min_node_size=st.integers(1, 3))
def test_sequence_matches_quadratic_reference(data, depth, min_node_size):
    tree = grow(data, AXIS, depth, min_node_size)
    fast = weakest_link_sequence(tree, data).to_json()
    assert fast == reference_weakest_link_sequence(tree, data).to_json()


@settings(max_examples=150, deadline=None)
@given(data=axis_datasets(), depth=st.integers(0, 7), min_node_size=st.integers(1, 3))
def test_no_step_collapses_a_node_under_an_earlier_one(data, depth, min_node_size):
    # The holdout scores overwrite each collapsed node's rows in step
    # order, which is exact only if a node's collapsed descendants come
    # before it; a node collapsed twice would be under itself.
    tree = grow(data, AXIS, depth, min_node_size)
    collapsed = set()
    for step in weakest_link_sequence(tree, data).steps:
        assert not _under(tree, step.collapsed_node_id, collapsed)
        collapsed.add(step.collapsed_node_id)


PROJECTION = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=8, seed=3)


@settings(max_examples=80, deadline=None)
@given(
    data=axis_datasets(max_n=40),
    strategy=st.sampled_from([AXIS, PROJECTION]),
    depth=st.integers(1, 5),
    min_node_size=st.integers(1, 3),
    fraction=st.sampled_from([0.2, 0.3, 0.5]),
    seed=st.integers(0, 1000),
    scales=st.lists(st.floats(0.0, 2.0), max_size=4),
)
def test_holdout_errors_match_per_lambda_selection(
    data, strategy, depth, min_node_size, fraction, seed, scales
):
    base = default_lambda_grid(data, size=6)
    # A repeated value, near neighbours of grid values and 0 make several
    # lambdas select the same subtree.
    grid = base + [base[2], 0.0] + [v * (1 + 1e-9) for v in base[:3]] + [v * base[-1] for v in scales]
    lam_star, errors = holdout_lambda(data, strategy, depth, grid, fraction, seed, min_node_size)
    # The same split as holdout_lambda, then one full selection per lambda.
    perm = reference_permutation(seed, data.n)
    n_hold = min(max(int(round(fraction * data.n)), 1), data.n - 1)
    hold_rows = np.sort(perm[:n_hold])
    train = subset(data, np.sort(perm[n_hold:]))
    tree = grow(train, strategy, depth, min_node_size)
    expected = [
        float(np.mean(
            (data.response[hold_rows]
             - predict_batch(select_subtree(tree, train, lam), data.features[hold_rows])) ** 2
        ))
        for lam in grid
    ]
    assert errors == expected
    assert lam_star in grid
    prefixes = [weakest_link_sequence(tree, train).prefix(lam) for lam in grid]
    assert len(set(prefixes)) < len(grid)


def reference_prefix(sequence, lam):
    """PruneSequence.prefix as a walk: keep the last step whose objective
    is within tolerance of the best objective before it."""
    best_obj = sequence.initial_train_error + lam * sequence.initial_leaf_count
    best_prefix = 0
    for k, step in enumerate(sequence.steps, start=1):
        objective = step.train_error_after + lam * step.leaf_count_after
        scale = max(1.0, abs(best_obj))
        if objective <= best_obj + _OBJECTIVE_TOL * scale:
            best_obj = min(best_obj, objective)
            best_prefix = k
    return best_prefix


@st.composite
def near_tie_sequences(draw):
    """(sequence, lambda) whose objectives are a few base values, each
    nudged by a multiple of _OBJECTIVE_TOL, so that many steps tie with
    the best objective before them within, at or just past tolerance."""
    lam = draw(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0, 3.0]))
    bases = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 1e6]), min_size=1, max_size=3))
    nudges = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-3, 2.0, -1.0, -0.5])
    size = draw(st.integers(0, 30))
    errors = []
    for k in range(size + 1):
        target = draw(st.sampled_from(bases))
        objective = target + draw(nudges) * _OBJECTIVE_TOL * max(1.0, target)
        errors.append(objective - lam * (size + 1 - k))
    steps = tuple(
        PruneStep(critical_alpha=0.0, collapsed_node_id=k, leaf_count_after=size + 1 - k,
                  train_error_after=errors[k])
        for k in range(1, size + 1)
    )
    return PruneSequence(steps, size + 1, errors[0]), lam


@settings(max_examples=300, deadline=None)
@given(case=near_tie_sequences())
@example(case=(PruneSequence((), 1, 0.5), 1.0))
@example(case=(PruneSequence((PruneStep(0.0, 0, 1, 1.0 + _OBJECTIVE_TOL),), 2, 0.0), 1.0))
def test_prefix_matches_the_objective_walk(case):
    sequence, lam = case
    assert sequence.prefix(lam) == reference_prefix(sequence, lam)


def retained_internals(tree):
    return frozenset(
        nid for nid, node in tree.nodes.items() if not node.is_leaf
    )


def test_weakest_link_d1(d1):
    tree = grow(d1, AXIS, max_depth=1)
    seq = weakest_link_sequence(tree, d1)
    assert len(seq.steps) == 1
    step = seq.steps[0]
    assert step.critical_alpha == pytest.approx(0.25, rel=1e-12)
    assert step.collapsed_node_id == 0
    assert step.leaf_count_after == 1
    assert step.train_error_after == pytest.approx(0.25, rel=1e-12)


def test_weakest_link_root_only(d1):
    tree = grow(d1, AXIS, max_depth=0)
    seq = weakest_link_sequence(tree, d1)
    assert seq.steps == ()


def test_weakest_link_alpha_non_decreasing_and_ends_at_root():
    for seed in range(8):
        data = random_dataset(seed + 20, 40, 2, y_scale=2.0)
        tree = grow(data, AXIS, max_depth=3)
        seq = weakest_link_sequence(tree, data)
        alphas = [s.critical_alpha for s in seq.steps]
        assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
        if seq.steps:
            assert seq.steps[-1].leaf_count_after == 1


def test_sequence_nestedness():
    data = random_dataset(77, 50, 2, y_scale=2.0)
    tree = grow(data, AXIS, max_depth=4)
    seq = weakest_link_sequence(tree, data)
    collapsed = set()
    previous = retained_internals(tree)
    for step in seq.steps:
        collapsed.add(step.collapsed_node_id)
        current = frozenset(
            nid
            for nid in previous
            if not _under(tree, nid, collapsed)
        )
        assert current <= previous
        previous = current


def _under(tree, nid, collapsed):
    # nid is pruned away if any ancestor (or itself) was collapsed.
    node = tree.nodes[nid]
    if nid in collapsed:
        return True
    parents = {
        child: parent
        for parent, p_node in tree.nodes.items()
        if not p_node.is_leaf
        for child in (p_node.left_child, p_node.right_child)
    }
    while nid in parents:
        nid = parents[nid]
        if nid in collapsed:
            return True
    return False


def test_select_subtree_d1_hand_cases(d1):
    tree = grow(d1, AXIS, max_depth=1)
    assert select_subtree(tree, d1, 0.1).leaf_count() == 2
    assert select_subtree(tree, d1, 0.3).leaf_count() == 1
    # Exact tie at lambda = 0.25 goes to the smaller tree.
    assert select_subtree(tree, d1, 0.25).leaf_count() == 1


def test_penalized_objective_hand_values(d1):
    from obliquetree import penalized_objective

    tree = grow(d1, AXIS, max_depth=1)
    assert penalized_objective(tree, d1, 0.1).value == pytest.approx(0.2)
    root = select_subtree(tree, d1, 0.3)
    assert penalized_objective(root, d1, 0.3).value == pytest.approx(0.55)
    with pytest.raises(ValueError):
        penalized_objective(tree, d1, -1.0)


def test_select_subtree_matches_brute_force():
    matched = 0
    seed = 0
    while matched < 25:
        seed += 1
        data = random_dataset(seed + 1000, 40, 2, y_scale=2.0)
        tree = grow(data, AXIS, max_depth=4)
        internal = sum(1 for nd in tree.nodes.values() if not nd.is_leaf)
        if not 1 <= internal <= 12:
            continue
        matched += 1
        for lam in default_lambda_grid(data, size=8):
            chosen = select_subtree(tree, data, lam)
            (obj_bf, leaves_bf), retained_bf = brute_force_best(tree, lam)
            err = training_error(chosen, data)
            objective = err + lam * chosen.leaf_count()
            assert objective == pytest.approx(obj_bf, rel=1e-10, abs=1e-12)
            assert chosen.leaf_count() == leaves_bf
            assert retained_internals(chosen) == retained_bf


def test_select_subtree_monotone_in_lambda():
    data = random_dataset(2024, 60, 2, y_scale=2.0)
    tree = grow(data, AXIS, max_depth=4)
    sizes = [
        select_subtree(tree, data, lam).leaf_count()
        for lam in default_lambda_grid(data, size=15)
    ]
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def test_holdout_lambda_noiseless_keeps_structure():
    # Noiseless two-step target fit perfectly at depth 2: every lambda
    # below the critical alpha has zero holdout error, so the tie rule
    # picks the largest such lambda.
    x = np.linspace(0, 1, 40).reshape(-1, 1)
    y = (x[:, 0] > 0.35).astype(float) + (x[:, 0] > 0.7).astype(float)
    data = Dataset(x, y)
    grid = [1e-6, 1e-4, 1e-2, 0.5]
    lam_star, errors = holdout_lambda(data, AXIS, 3, grid, 0.25, seed=5)
    assert errors[grid.index(lam_star)] == pytest.approx(0.0, abs=1e-12)
    assert lam_star >= 1e-4  # not forced to the smallest grid point


def test_holdout_lambda_pure_noise_prunes_hard():
    rng = np.random.default_rng(99)
    data = Dataset(rng.uniform(size=(120, 2)), rng.standard_normal(120))
    grid = default_lambda_grid(data, size=10)
    lam_star, errors = holdout_lambda(data, AXIS, 5, grid, 0.3, seed=1)
    assert lam_star >= np.median(grid)


def test_holdout_lambda_single_grid_point(d1):
    lam_star, errors = holdout_lambda(d1, AXIS, 1, [0.123], 0.25, seed=0)
    assert lam_star == 0.123 and len(errors) == 1


def test_holdout_lambda_validation(d1):
    with pytest.raises(ValueError):
        holdout_lambda(d1, AXIS, 1, [], 0.3, seed=0)
    with pytest.raises(ValueError):
        holdout_lambda(d1, AXIS, 1, [0.1], 1.5, seed=0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_lambda_must_be_finite_and_non_negative(d1, lam):
    from obliquetree import PenalizedObjective, penalized_objective

    tree = grow(d1, AXIS, max_depth=1)
    with pytest.raises(ValueError, match="lambda"):
        weakest_link_sequence(tree, d1).select(tree, lam)
    with pytest.raises(ValueError, match="lambda"):
        select_subtree(tree, d1, lam)
    with pytest.raises(ValueError, match="lambda"):
        penalized_objective(tree, d1, lam)
    with pytest.raises(ValueError, match="lambda"):
        PenalizedObjective(lam=lam, value=0.0)
    with pytest.raises(ValueError, match="lambda"):
        holdout_lambda(d1, AXIS, 1, [0.1, lam], 0.25, seed=0)


def test_prune_sequence_json(d1):
    tree = grow(d1, AXIS, max_depth=1)
    seq = weakest_link_sequence(tree, d1)
    payload = seq.to_dict()
    assert payload["initial_leaf_count"] == 2
    assert len(payload["steps"]) == 1

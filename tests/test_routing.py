"""Routing and subtree materialization against reference implementations.

The references below are the per-function tree walks that `tree.route`,
`tree._partition` and `tree.collapse` replaced, with each projection
computed as a per-point Python sum over the direction's support in
ascending order (conftest.point_projection).  Each property checks that
the shared kernel gives the same bytes as the walk it replaced, on grown
trees and on trees reloaded from JSON.  The overwrite walk that scores
nested subtrees from one routing is checked against routing each
subtree, and each job's routings are counted.  Batches on either side of
the size above which route reads a column-major copy route alike.  The
last property checks that every evaluator of a tree, a stump expansion
or a ridge model meets its points with the same check.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    Direction,
    ExperimentConfig,
    Expansion,
    RidgeComponent,
    RidgeModel,
    SearchStrategy,
    build_expansion,
    eval_ridge,
    generate_dataset,
    grow,
    node_rows,
    predict,
    predict_batch,
    prune_to_depth,
    run_fast_rate_experiment,
    run_pruning_experiment,
    run_rate_experiment,
    save_csv,
    verify_training_recursion,
    weakest_link_sequence,
)
from obliquetree import tree as tree_module
from obliquetree.cli import main
from obliquetree.dataset import _moments, root_index_set
from obliquetree.pruning import _grid_scores, default_lambda_grid, holdout_lambda
from obliquetree.ridge import COMPONENT_KINDS, eval_ridge_batch
from obliquetree.splitting import Split
from obliquetree.stumps import _expansion_rows, feature_at, reconstruct_at, reconstruct_batch
from obliquetree.tree import Tree, TreeNode, _depth_scores, from_json, route, to_json

from conftest import point_projection, reference_projections


def reference_predict_batch(tree, X):
    out = np.empty(X.shape[0])
    stack = [(tree.root_id, np.arange(X.shape[0]))]
    while stack:
        nid, rows = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out[rows] = node.mean
            continue
        values = reference_projections(X[rows], node.split.direction.as_array())
        left = values <= node.split.threshold
        if np.any(left):
            stack.append((node.left_child, rows[left]))
        if not np.all(left):
            stack.append((node.right_child, rows[~left]))
    return out


def reference_node_rows(tree, dataset):
    rows = {tree.root_id: root_index_set(dataset)}
    order = sorted(tree.nodes.values(), key=lambda nd: (nd.depth, nd.node_id))
    for node in order:
        if node.is_leaf:
            assert node.node_id in rows
            continue
        idx = rows[node.node_id]
        values = reference_projections(dataset.features[idx], node.split.direction.as_array())
        left_mask = values <= node.split.threshold
        rows[node.left_child] = idx[left_mask]
        rows[node.right_child] = idx[~left_mask]
    return rows


def reference_feature_at(tree, feature, x):
    if feature.is_constant:
        return 1.0
    vec = np.asarray(x, dtype=np.float64)
    node = tree.nodes[tree.root_id]
    while not node.is_leaf:
        goes_left = point_projection(vec, node.split.direction.as_array()) <= node.split.threshold
        if node.node_id == feature.owner_node_id:
            return feature.left_value if goes_left else feature.right_value
        node = tree.nodes[node.left_child if goes_left else node.right_child]
    return 0.0


def reference_reconstruct_batch(tree, expansion, X):
    by_owner = {
        f.owner_node_id: (f, c)
        for f, c in zip(expansion.features, expansion.coefficients)
        if not f.is_constant
    }
    constant = sum(
        c for f, c in zip(expansion.features, expansion.coefficients) if f.is_constant
    )
    out = np.full(X.shape[0], constant)
    stack = [(tree.root_id, np.arange(X.shape[0]))]
    while stack:
        nid, rows = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf or rows.size == 0:
            continue
        values = reference_projections(X[rows], node.split.direction.as_array())
        left = values <= node.split.threshold
        if nid in by_owner:
            feat, coef = by_owner[nid]
            out[rows[left]] += coef * feat.left_value
            out[rows[~left]] += coef * feat.right_value
        stack.append((node.left_child, rows[left]))
        stack.append((node.right_child, rows[~left]))
    return out


def reference_prune_to_depth(tree, depth):
    kept = {}
    deepest = 0
    for nid, node in tree.nodes.items():
        if node.depth > depth:
            continue
        if node.depth == depth:
            clone = replace(node, split=None, left_child=None, right_child=None)
        else:
            clone = replace(node)
        if not clone.is_leaf:
            deepest = max(deepest, node.depth + 1)
        kept[nid] = clone
    return Tree(
        nodes=kept,
        root_id=tree.root_id,
        n=tree.n,
        p=tree.p,
        max_depth_reached=deepest,
        strategy=tree.strategy,
    )


@st.composite
def grown_trees(draw):
    """(dataset, tree, generic points, threshold points) for a random
    axis, random-projection, hill-climb or exhaustive tree.  The generic
    points are the training rows and fresh uniform rows; the threshold
    points lie exactly on the threshold of an axis split, and integer
    training rows often lie on an oblique one within rounding."""
    kind = draw(st.sampled_from(
        ["axis_aligned", "random_projection", "hill_climb", "exhaustive_oblique"]
    ))
    # The exhaustive search sweeps about m**3 / 6 triple normals at d = 3.
    n = draw(st.integers(2, 24 if kind == "exhaustive_oblique" else 60))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 5, size=(n, p)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, p))
    y = 2.0 * rng.standard_normal(n)
    data = Dataset(X, y)
    strategy = SearchStrategy(
        kind=kind,
        sparsity_d=draw(st.integers(1, p)),
        num_candidates=draw(st.integers(0, 12)),
        restarts=draw(st.integers(1, 2)),
        max_iterations=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 1000)),
    )
    tree = grow(data, strategy, draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    rows = node_rows(tree, data)
    on_threshold = []
    for nid in tree.internal_ids():
        node = tree.nodes[nid]
        coefs = node.split.direction.as_array()
        if np.count_nonzero(coefs) == 1:
            row = X[rows[nid][0]].copy()
            row[np.flatnonzero(coefs)[0]] = node.split.threshold
            on_threshold.append(row)
    generic = np.concatenate([X, rng.uniform(-1.5, 5.5, size=(20, p))])
    return data, tree, generic, np.reshape(on_threshold, (-1, p))


def _reloaded(tree):
    return from_json(to_json(tree))


def _query_batches(case):
    """The query batches of a grown_trees case: its generic and threshold
    points first, then no points at all, then the training rows of each
    child of the root, which all go one way at the root (the training
    rows once more when the root is a leaf)."""
    data, tree, generic, on_threshold = case
    root = tree.nodes[tree.root_id]
    children = [tree.root_id] if root.is_leaf else [root.left_child, root.right_child]
    rows = node_rows(tree, data)
    return [
        np.concatenate([generic, on_threshold]),
        np.empty((0, tree.p)),
        *(data.features[rows[child]] for child in children),
    ]


@settings(max_examples=80, deadline=None)
@given(case=grown_trees())
def test_predict_matches_reference_and_single_points(case):
    """predict_batch is byte-equal to the reference on every batch, and
    predict on one row equals that row's batch prediction, on every
    query of every tree: a projection does not depend on the rows routed
    with it.  An empty batch reaches the root alone, with no rows."""
    tree = case[1]
    batches = _query_batches(case)
    queries = batches[0]
    for t in (tree, _reloaded(tree)):
        for X in batches:
            assert predict_batch(t, X).tobytes() == reference_predict_batch(t, X).tobytes()
        batch = predict_batch(t, queries)
        for i, x in enumerate(queries):
            assert predict(t, x) == batch[i]
        reached = route(t, np.empty((0, t.p)))
        assert list(reached) == [t.root_id]
        assert reached[t.root_id].dtype == np.intp and reached[t.root_id].size == 0


def test_point_near_oblique_threshold_routes_alone_as_in_a_batch():
    # (4, 3, 4) projects onto (1, 1, -1)/sqrt(3) within rounding of the
    # threshold; a one-row dot product and a 1,000-row gemv used to
    # round it to opposite sides.
    direction = Direction.canonical([1.0, 1.0, -1.0])
    split = Split(direction, 1.7320508075688776, 1.0, 1, 1)
    tree = Tree(
        nodes={
            0: TreeNode(0, 0, 0.5, 1.0, 2, split=split, left_child=1, right_child=2),
            1: TreeNode(1, 1, 0.0, 0.0, 1),
            2: TreeNode(2, 1, 1.0, 0.0, 1),
        },
        root_id=0,
        n=2,
        p=3,
        max_depth_reached=1,
        strategy=SearchStrategy(kind="random_projection", sparsity_d=3),
    )
    point = np.array([4.0, 3.0, 4.0])
    X = np.random.default_rng(0).uniform(0.0, 5.0, size=(1000, 3))
    X[500] = point
    assert predict(tree, point) == predict_batch(tree, X)[500]
    goes_left = point_projection(point, direction.coefficients) <= split.threshold
    assert predict(tree, point) == (0.0 if goes_left else 1.0)


@settings(max_examples=80, deadline=None)
@given(case=grown_trees())
def test_node_rows_match_reference_and_stored_stats(case):
    """node_rows is the reference walk's rows, and every node's stored
    mean and SSE are, bit for bit, those of its routed responses: the
    splits alone fix the rows that grow computed them from."""
    data, tree, _, _ = case
    want = reference_node_rows(tree, data)
    for t in (tree, _reloaded(tree)):
        rows = node_rows(t, data)
        assert rows.keys() == want.keys() == t.nodes.keys()
        for nid, node in t.nodes.items():
            assert rows[nid].dtype == want[nid].dtype
            assert np.array_equal(rows[nid], want[nid])
            mean, _, sse = _moments(data.response[rows[nid]])
            assert (mean.hex(), sse.hex()) == (node.mean.hex(), node.sse.hex())


@settings(max_examples=60, deadline=None)
@given(case=grown_trees())
def test_reconstruction_matches_reference(case):
    data, tree = case[:2]
    batches = _query_batches(case)
    queries = batches[0]
    for t in (tree, _reloaded(tree)):
        expansion = build_expansion(t, data)
        for X in batches:
            fast = reconstruct_batch(t, expansion, X)
            assert fast.tobytes() == reference_reconstruct_batch(t, expansion, X).tobytes()
        for x in queries[:8]:
            for feat in expansion.features:
                assert feature_at(t, feat, x) == reference_feature_at(t, feat, x)
            expected = float(sum(
                coef * reference_feature_at(t, feat, x)
                for feat, coef in zip(expansion.features, expansion.coefficients)
            ))
            assert reconstruct_at(t, expansion, x) == expected


@settings(max_examples=80, deadline=None)
@given(case=grown_trees())
def test_prune_to_depth_matches_reference(case):
    _, tree, _, _ = case
    for t in (tree, _reloaded(tree)):
        for depth in range(t.max_depth_reached + 2):
            assert to_json(prune_to_depth(t, depth)) == to_json(reference_prune_to_depth(t, depth))


@settings(max_examples=60, deadline=None)
@given(case=grown_trees(), picks=st.lists(st.integers(0, 7), max_size=6))
def test_one_walk_scores_every_subtree_as_routing_it_does(case, picks):
    """Scored from one routing of the full tree, every depth prefix and
    every weakest-link subtree gets the bytes predict_batch gives it,
    for depths and penalties in any order, repeated or beyond the tree;
    the expansion's rows rebuild node_rows, order included."""
    data, tree = case[:2]
    for t in (tree, _reloaded(tree)):
        rows = node_rows(t, data)
        rebuilt = _expansion_rows(t, build_expansion(t, data))
        assert list(rebuilt) == list(rows)
        assert all(rebuilt[nid].tobytes() == rows[nid].tobytes() for nid in rows)
        sequence = weakest_link_sequence(t, data)
        grid = [default_lambda_grid(data, size=8)[k] for k in picks] + [0.0]
        depths = picks + list(range(t.max_depth_reached + 2))
        for X in _query_batches(case):
            reached = route(t, X)
            assert _depth_scores(t, reached, depths, np.ndarray.tobytes) == [
                predict_batch(prune_to_depth(t, depth), X).tobytes() for depth in depths
            ]
            assert _grid_scores(t, sequence, grid, reached, np.ndarray.tobytes) == [
                predict_batch(sequence.select(t, lam), X).tobytes() for lam in grid
            ]


# The batch layouts route must treat alike: the columns a large batch is
# copied in are written from the points, whatever their storage.
_LAYOUTS = {
    "C-ordered": np.ascontiguousarray,
    "F-ordered": np.asfortranarray,
    "strided view": lambda X: np.pad(X, ((0, 0), (0, 1)))[:, :-1],
    "float32": lambda X: X.astype(np.float32),
    "int": lambda X: X.astype(np.int64),
}
_WIDE_P, _SPLIT_COLUMNS = 16, [2, 5, 11]


def _widened(tree, columns, p):
    """A tree grown on len(columns) coordinates, as a tree over p
    coordinates whose splits use only `columns`: it routes every point
    as the grown tree routes the point's `columns`."""
    def widen(split):
        w = np.zeros(p)
        w[columns] = split.direction.coefficients
        return replace(split, direction=Direction(tuple(w.tolist())))

    nodes = {nid: replace(nd, split=nd.split and widen(nd.split)) for nid, nd in tree.nodes.items()}
    return replace(tree, nodes=nodes, p=p)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_both_batch_layouts_route_as_the_reference(offset, monkeypatch):
    """route gives the same rows, and predict_batch, reconstruct_batch and
    node_rows the same bytes as the reference walks, on either side of
    _COLUMN_MAJOR_BYTES, for C- and F-ordered, strided, float32 and int
    batches of one copy chunk and one row more or less, and one row.
    The tree splits on 3 of 16 columns, and every np.empty array starts
    as NaN, so a read of a column the copy did not write would show.
    Above the bound every node reads a column-major matrix; the root
    reads its columns in place."""
    chunk = tree_module._BLOCK_ELEMENTS // _WIDE_P
    rng = np.random.default_rng(chunk + offset)
    X = rng.integers(-4, 5, size=(chunk + offset, _WIDE_P)).astype(float)
    y = X[:, 2] - X[:, 5] * X[:, 11] + rng.standard_normal(X.shape[0])
    data = Dataset(X, y)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=6, seed=5)
    grown = grow(Dataset(X[:, _SPLIT_COLUMNS], y), strategy, 3)
    trees = [_widened(t, _SPLIT_COLUMNS, _WIDE_P) for t in (grown, prune_to_depth(grown, 0))]
    assert len(trees[0].nodes) > 7
    real_empty, real_projections = np.empty, tree_module.projections
    monkeypatch.setattr(
        np, "empty", lambda *a, **k: (lambda out: (out.fill(np.nan), out)[1])(real_empty(*a, **k))
    )
    seen = []

    def projections_seen(M, W, rows=None):
        seen.append((M.flags.f_contiguous, rows is None))
        return real_projections(M, W, rows)

    monkeypatch.setattr(tree_module, "projections", projections_seen)
    for t in trees:
        want_rows = reference_node_rows(t, data)
        want = {"one row": reference_predict_batch(t, X[:1]), "batch": reference_predict_batch(t, X)}
        for bound in (0, 2**62):
            monkeypatch.setattr(tree_module, "_COLUMN_MAJOR_BYTES", bound)
            rows = node_rows(t, data)
            assert rows.keys() == want_rows.keys()
            assert all(rows[nid].tobytes() == want_rows[nid].tobytes() for nid in rows)
            expansion = build_expansion(t, data)
            want_sum = reference_reconstruct_batch(t, expansion, X).tobytes()
            for name, layout in _LAYOUTS.items():
                batch = layout(X)
                seen.clear()
                reached = route(t, batch)
                assert all(reached[nid].tobytes() == rows[nid].tobytes() for nid in rows), name
                assert all(f_order == (bound == 0 or name == "F-ordered") for f_order, _ in seen)
                assert not seen or seen[0][1]  # the root reads its columns in place
                assert predict_batch(t, batch).tobytes() == want["batch"].tobytes(), name
                assert predict_batch(t, batch[:1]).tobytes() == want["one row"].tobytes(), name
                assert reconstruct_batch(t, expansion, batch).tobytes() == want_sum, name


def _routing_config(**fields):
    model = RidgeModel((
        RidgeComponent("relu", Direction.canonical([1.0, 2.0]), {"slope": 2.0, "kink": 0.5}),
    ))
    base = dict(
        model=model, n=24, noise_std=0.0, seed=3,
        strategy=SearchStrategy(kind="exhaustive_oblique", sparsity_d=2), depth_range=(0, 4),
        domain_box=((0.0, 1.0), (0.0, 1.0)), mc_size=100,
    )
    return ExperimentConfig(**{**base, **fields})


_NOISY = dict(n=120, noise_std=0.1, strategy=SearchStrategy(kind="axis_aligned"), depth_range=(0, 5))
_GRID = (1e-4, 1e-3, 1e-2, 1e-1)


def _stumps_command(tmp_path):
    """obliquetree stumps on a trained tree; returns the command."""
    config = _routing_config(**_NOISY)
    csv, tree_json = str(tmp_path / "data.csv"), str(tmp_path / "tree.json")
    save_csv(generate_dataset(config.model, config.n, 0.1, config.domain_box, 1), csv)
    assert main(["train", csv, "--depth", "5", "--out", tree_json]) == 0
    return lambda: main(["stumps", tree_json, csv, "--out", str(tmp_path / "stumps.json")]) == 0


# job: (routings of its one call, a maker of that call)
ROUTED_JOBS = {
    "rate": (2, lambda tmp: lambda: run_rate_experiment(_routing_config())),
    "fast_rate": (1, lambda tmp: lambda: run_fast_rate_experiment(_routing_config(depth_range=(1, 4)))),
    "pruning": (2, lambda tmp: lambda: run_pruning_experiment(_routing_config(**_NOISY, lambda_grid=_GRID))),
    "training_recursion": (1, lambda tmp: lambda: verify_training_recursion(
        generate_dataset(_routing_config().model, 24, 0.0, ((0.0, 1.0), (0.0, 1.0)), 3),
        SearchStrategy(kind="exhaustive_oblique", sparsity_d=2), 5,
    )),
    "holdout_lambda": (1, lambda tmp: lambda: holdout_lambda(
        generate_dataset(_routing_config().model, 120, 0.1, ((0.0, 1.0), (0.0, 1.0)), 3),
        SearchStrategy(kind="axis_aligned"), 5, _GRID, 0.3, 0,
    )),
    "stumps_command": (1, _stumps_command),
}


@pytest.mark.parametrize("job", sorted(ROUTED_JOBS))
def test_each_point_set_is_routed_once_per_tree(job, tmp_path, monkeypatch):
    """Each job routes each of its point sets once, through the full
    tree, and scores every subtree it reads from that routing: no route
    call, through any module's binding of it, gets a tree that collapse
    built (prune_to_depth and PruneSequence.select build theirs so)."""
    expected, make = ROUTED_JOBS[job]
    call = make(tmp_path)
    real_route, real_collapse = tree_module.route, tree_module.collapse
    routed, built = [], []

    def route_counted(tree, X):
        routed.append(tree)
        return real_route(tree, X)

    def collapse_kept(tree, collapsed):
        built.append(real_collapse(tree, collapsed))
        return built[-1]

    for name, module in list(sys.modules.items()):
        if name == "obliquetree" or name.startswith("obliquetree."):
            for attr, real, fake in (
                ("route", real_route, route_counted), ("collapse", real_collapse, collapse_kept)
            ):
                if getattr(module, attr, None) is real:
                    monkeypatch.setattr(module, attr, fake)
    call()
    assert len(routed) == expected
    assert not any(tree is subtree for tree in routed for subtree in built)


@st.composite
def evaluators(draw):
    """(p, pairs): each pair is a one-point evaluator and its batch form,
    for a small tree in R^p, its stump expansion, one of its stumps and
    a ridge model: every function that evaluates one at new points."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = Dataset(rng.uniform(-1.0, 1.0, size=(n, p)), rng.standard_normal(n))
    strategy = SearchStrategy(
        kind="random_projection", sparsity_d=p, num_candidates=8, seed=draw(st.integers(0, 1000))
    )
    tree = grow(data, strategy, draw(st.integers(0, 3)))
    expansion = build_expansion(tree, data)
    feature = draw(st.sampled_from(expansion.features))
    one_stump = Expansion((feature,), (1.0,))
    kind = draw(st.sampled_from(COMPONENT_KINDS))
    model = RidgeModel((RidgeComponent(kind, Direction.canonical(rng.uniform(0.1, 1.0, p))),))
    return p, [
        (lambda x: predict(tree, x), lambda X: predict_batch(tree, X)),
        (lambda x: reconstruct_at(tree, expansion, x), lambda X: reconstruct_batch(tree, expansion, X)),
        (lambda x: feature_at(tree, feature, x), lambda X: reconstruct_batch(tree, one_stump, X)),
        (lambda x: eval_ridge(model, x), lambda X: eval_ridge_batch(model, X)),
    ]


def _bad_points(x, fault, at):
    """(one point, its message, a batch, its message) for a fault."""
    p = x.size
    if fault in ("nan", "inf", "-inf"):
        bad = x.copy()
        bad[at % p] = float(fault)
        message = "points must have finite coordinates"
        return bad, message, np.stack([x, bad]), message
    if fault in ("wide", "narrow"):
        bad = np.append(x, 0.0) if fault == "wide" else x[:-1]
        message = f"points must have {p} coordinates, got {bad.size}"
        return bad, message, bad[None, :], message
    if fault == "row":  # a (1, p) matrix passed as one point
        return (
            x[None, :], "points must be a 1-D array, got 2-D",
            x[None, None, :], "points must be a 2-D array, got 3-D",
        )
    return x[0], "points must be a 1-D array, got 0-D", x, "points must be a 2-D array, got 1-D"


@settings(max_examples=60, deadline=None)
@given(
    case=evaluators(),
    coords=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    fault=st.sampled_from(["nan", "inf", "-inf", "wide", "narrow", "row", "scalar"]),
    at=st.integers(0, 2),
)
def test_every_evaluator_checks_points_alike(case, coords, fault, at):
    """Each evaluator rejects the same bad points with the same one-line
    message, and on a good point gives the bits of its batch of one."""
    p, pairs = case
    x = np.array(coords[:p])
    bad_point, point_message, bad_batch, batch_message = _bad_points(x, fault, at)
    for single, batch in pairs:
        assert single(list(x)).hex() == float(batch(x[None, :])[0]).hex()
        with pytest.raises(ValueError) as point_error:
            single(bad_point)
        assert str(point_error.value) == point_message
        with pytest.raises(ValueError) as batch_error:
            batch(bad_batch)
        assert str(batch_error.value) == batch_message

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    Direction,
    SearchStrategy,
    grow,
    node_rows,
    node_stats,
    predict,
    predict_batch,
    prune_to_depth,
    training_error,
)
from obliquetree import splitting
from obliquetree.splitting import DECREASE_TOL, NoValidSplitError, run_search
from obliquetree.dataset import canonical_rows, projections, validate_index_set
from obliquetree.tree import from_json, to_json

from conftest import SNAP_BORDER_VECTOR, random_dataset

AXIS = SearchStrategy(kind="axis_aligned")


def test_grow_d1_depth1(d1):
    tree = grow(d1, AXIS, max_depth=1)
    root = tree.nodes[tree.root_id]
    assert root.split.threshold == 2.5
    leaves = [tree.nodes[nid] for nid in tree.leaf_ids()]
    assert sorted(nd.mean for nd in leaves) == [0.0, 1.0]
    assert tree.max_depth_reached == 1


def test_grow_depth0_root_only(d1):
    tree = grow(d1, AXIS, max_depth=0)
    assert tree.leaf_count() == 1
    assert tree.nodes[0].mean == 0.5
    assert tree.max_depth_reached == 0


def test_grow_constant_response_stops(d1):
    const = Dataset(d1.features, np.full(4, 2.0))
    tree = grow(const, AXIS, max_depth=5)
    assert tree.leaf_count() == 1


def test_predict_routing(d1):
    tree = grow(d1, AXIS, max_depth=1)
    assert predict(tree, [1.7]) == 0.0
    assert predict(tree, [2.5]) == 0.0  # boundary goes left
    assert predict(tree, [2.50001]) == 1.0
    root_only = grow(d1, AXIS, max_depth=0)
    assert predict(root_only, [99.0]) == 0.5


def test_predict_validation(d1):
    tree = grow(d1, AXIS, max_depth=1)
    with pytest.raises(ValueError):
        predict(tree, [1.0, 2.0])
    with pytest.raises(ValueError):
        predict(tree, [np.nan])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            predict_batch(tree, np.array([[1.0], [bad]]))


def test_training_error_hand_values(d1):
    assert training_error(grow(d1, AXIS, max_depth=1), d1) == 0.0
    assert training_error(grow(d1, AXIS, max_depth=0), d1) == 0.25


def test_training_error_equals_leaf_sse_sum():
    for seed in range(5):
        data = random_dataset(seed, 80, 3, y_scale=2.0)
        tree = grow(data, AXIS, max_depth=4)
        err = training_error(tree, data)
        leaf_sum = sum(tree.nodes[nid].sse for nid in tree.leaf_ids()) / data.n
        assert err == pytest.approx(leaf_sum, rel=1e-10, abs=1e-14)


def test_training_error_non_increasing_in_depth():
    data = random_dataset(3, 100, 2, y_scale=2.0)
    errors = [training_error(grow(data, AXIS, max_depth=k), data) for k in range(6)]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_terminal_partition_and_stored_stats():
    for seed in range(4):
        data = random_dataset(seed + 40, 60, 3)
        strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=30, seed=seed)
        tree = grow(data, strategy, max_depth=4)
        rows = node_rows(tree, data)
        leaves = [validate_index_set(rows[nid], data.n) for nid in tree.leaf_ids()]
        assert np.array_equal(np.sort(np.concatenate(leaves)), np.arange(data.n))
        preds = predict_batch(tree, data.features)
        for nid in tree.leaf_ids():
            node = tree.nodes[nid]
            mean, sse = node_stats(data, rows[nid])
            assert mean == pytest.approx(node.mean, rel=1e-12, abs=1e-15)
            assert sse == pytest.approx(node.sse, rel=1e-10, abs=1e-12)
            assert np.all(preds[rows[nid]] == node.mean)


def test_greedy_prefix_property():
    # Growing to depth K and truncating at K-1 gives the depth-(K-1)
    # tree, node ids included, for a deterministic strategy.
    data = random_dataset(9, 70, 2, y_scale=1.5)
    deep = grow(data, AXIS, max_depth=4)
    shallow = grow(data, AXIS, max_depth=3)
    truncated = prune_to_depth(deep, 3)
    assert to_json(truncated) == to_json(shallow)


def test_min_node_size_respected():
    data = random_dataset(17, 50, 2)
    tree = grow(data, AXIS, max_depth=6, min_node_size=8)
    for nid in tree.leaf_ids():
        assert tree.nodes[nid].count >= 8


def test_json_round_trip_of_a_snap_border_direction():
    # The direction's middle coefficient reaches the snap border only
    # after the division by the norm; from_json re-canonicalizes every
    # stored direction and must get the same one back.
    data = random_dataset(23, 40, 3)
    tree = grow(data, AXIS, max_depth=1)
    root = tree.nodes[tree.root_id]
    root.split = replace(root.split, direction=Direction.canonical(SNAP_BORDER_VECTOR))
    assert to_json(from_json(to_json(tree))) == to_json(tree)


def test_from_json_names_the_first_node_with_a_non_canonical_direction():
    # Every stored direction is checked in one call; the message still
    # names the first offending node in the file's order.
    data = random_dataset(41, 80, 3)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=40, seed=2)
    payload = json.loads(to_json(grow(data, strategy, max_depth=3)))
    split = [node for node in payload["nodes"] if node["split"]]
    assert len(split) >= 3
    for node in split[1:]:
        node["split"]["direction"] = [2.0 * c for c in node["split"]["direction"]]
    with pytest.raises(ValueError, match=f"node {split[1]['node_id']} split direction"):
        from_json(json.dumps(payload))


def _set_child_counts(payload, left, right):
    """Give the root's children, and its split, the counts left and right."""
    nodes = {node["node_id"]: node for node in payload["nodes"]}
    root = nodes[payload["root_id"]]
    nodes[root["left_child"]]["count"], nodes[root["right_child"]]["count"] = left, right
    root["split"].update(left_count=left, right_count=right)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(lambda t: t["nodes"][0]["split"].update(left_count=7), "^node 0 split counts", id="split_count"),
        pytest.param(lambda t: _set_child_counts(t, 7, 81), "^node 0 child counts", id="child_sum"),
        pytest.param(lambda t: _set_child_counts(t, 0, 200), "^node 0 child counts", id="empty_child"),
        pytest.param(lambda t: t["nodes"][0].update(count=150), "^node 0 child counts", id="root_count"),
        pytest.param(lambda t: t.update(n=150), "^root node 0 must have", id="n"),
        pytest.param(
            lambda t: [node.update(depth=node["depth"] + 1) for node in t["nodes"]],
            "^root node 0 must have depth 0", id="root_depth",
        ),
        pytest.param(lambda t: t.update(max_depth_reached=40), "^max_depth_reached 40 is not 3", id="max_depth"),
        pytest.param(lambda t: t.update(max_depth_reached=2), "^max_depth_reached 2 is not 3", id="shallow_max_depth"),
    ],
)
def test_from_json_rejects_counts_and_depths_that_disagree(corrupt, message):
    # Counts and depths are stored twice (a split's counts and its
    # children's, a node's depth and the tree's deepest); copies that
    # disagree, or counts that do not partition the rows, are not a
    # tree that grow can have written.
    payload = json.loads(to_json(grow(random_dataset(43, 200, 2), AXIS, max_depth=3)))
    assert payload["max_depth_reached"] == 3 and payload["nodes"][0]["count"] == 200
    from_json(json.dumps(payload))
    corrupt(payload)
    with pytest.raises(ValueError, match=message):
        from_json(json.dumps(payload))


def _first_leaf(payload):
    return next(node for node in payload["nodes"] if node["split"] is None)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(lambda t: t["nodes"].append(dict(_first_leaf(t))), "is listed twice", id="same_twice"),
        pytest.param(
            lambda t: t["nodes"].append(dict(_first_leaf(t), mean=9.0)), "is listed twice", id="other_twice"
        ),
        pytest.param(lambda t: _first_leaf(t).update(left_child=0), "is a leaf with a child id", id="left"),
        pytest.param(lambda t: _first_leaf(t).update(right_child=99), "is a leaf with a child id", id="right"),
    ],
)
def test_from_json_rejects_a_node_listed_twice_or_a_leaf_with_a_child(corrupt, message):
    # The node dict used to keep the last of two entries with one id, and
    # a leaf's child ids were never read, so to_dict wrote them back.
    payload = json.loads(to_json(grow(random_dataset(43, 200, 2), AXIS, max_depth=3)))
    leaf_id = _first_leaf(payload)["node_id"]
    corrupt(payload)
    with pytest.raises(ValueError, match=f"^node {leaf_id} {message}$"):
        from_json(json.dumps(payload))


def test_from_json_root_only_tree_has_max_depth_zero(d1):
    payload = json.loads(to_json(grow(d1, AXIS, max_depth=0)))
    assert from_json(json.dumps(payload)).max_depth_reached == 0
    payload["max_depth_reached"] = 1
    with pytest.raises(ValueError, match="^max_depth_reached 1 is not 0"):
        from_json(json.dumps(payload))


def test_node_rows_rejects_wrong_dataset():
    data = random_dataset(29, 40, 2, y_scale=2.0)
    other = random_dataset(31, 40, 2, y_scale=2.0)
    tree = grow(data, AXIS, max_depth=3)
    with pytest.raises(ValueError, match="^routed counts disagree with stored counts$"):
        node_rows(tree, other)
    with pytest.raises(ValueError, match="^dataset shape does not match the tree$"):
        node_rows(tree, random_dataset(31, 41, 2))


def test_deterministic_ids_with_random_strategy():
    data = random_dataset(37, 60, 3)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=40, seed=5)
    t1 = grow(data, strategy, max_depth=4)
    t2 = grow(data, strategy, max_depth=4)
    assert to_json(t1) == to_json(t2)


# grow searches a whole frontier level at once, packing small nodes into
# shared padded blocks; each node's split must be the one run_search
# finds on that node alone.


@st.composite
def growth_cases(draw, max_n):
    """Integer-grid (tied) or continuous features in up to 6 dimensions,
    some rows repeated, integer or continuous responses with an offset up
    to 1e9, and the packing cut at its own value or far below it, so
    nodes fall on both sides of it.  With p > 3, random projection's
    children share only part of their parent's directions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, p = int(rng.integers(2, max_n + 1)), int(rng.integers(1, 7))
    if draw(st.booleans()):
        X = rng.integers(-3, 4, size=(n, p)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, p))
    if draw(st.booleans()):
        X[rng.integers(n, size=n // 3)] = X[rng.integers(n)]
    if draw(st.booleans()):
        y = rng.integers(0, 4, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    y = y + draw(st.sampled_from([0.0, 1e6, 1e9]))
    cut = draw(st.sampled_from([8, 64, 512, splitting._PACK_ELEMENTS]))
    return Dataset(X, y), cut


STRATEGIES = {
    "axis_aligned": (300, lambda d, seed: SearchStrategy(kind="axis_aligned")),
    "random_projection": (
        300,
        lambda d, seed: SearchStrategy(kind="random_projection", sparsity_d=d, num_candidates=15, seed=seed),
    ),
    "hill_climb": (
        150,
        lambda d, seed: SearchStrategy(kind="hill_climb", sparsity_d=d, restarts=2, max_iterations=2, seed=seed),
    ),
    "exhaustive_oblique": (30, lambda d, seed: SearchStrategy(kind="exhaustive_oblique", sparsity_d=min(d, 2))),
}


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), sparsity=st.integers(1, 3), seed=st.integers(0, 1000),
       depth=st.integers(1, 5), min_node_size=st.integers(1, 4))
def test_each_node_splits_as_it_would_alone(kind, data, sparsity, seed, depth, min_node_size):
    # run_search on a node alone has no parent, so it sorts every row
    # fresh; grow's children inherit their parent's orders.  Blocks of 64
    # projections cut a node's inherited rows, and its parent's, into
    # many blocks and chunks.
    max_n, make = STRATEGIES[kind]
    dataset, cut = data.draw(growth_cases(max_n))
    block = data.draw(st.sampled_from([64, splitting._BLOCK_ELEMENTS]))
    strategy = make(sparsity, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_PACK_ELEMENTS", cut)
        patch.setattr(splitting, "_BLOCK_ELEMENTS", block)
        tree = grow(dataset, strategy, depth, min_node_size)
    rows = node_rows(tree, dataset)
    for nid, node in tree.nodes.items():
        y = dataset.response[rows[nid]]
        if node.depth == depth or node.count < 2 * min_node_size or np.ptp(y) <= 1e-12:
            assert node.is_leaf
            continue
        try:
            alone = run_search(dataset, rows[nid], replace(strategy, seed=strategy.seed + nid))
        except NoValidSplitError:
            assert node.is_leaf
            continue
        if node.is_leaf:
            assert alone.decrease <= DECREASE_TOL or min(alone.left_count, alone.right_count) < min_node_size
        else:
            assert split_fields(node.split) == split_fields(alone)


def split_fields(split):
    return (
        [c.hex() for c in split.direction.coefficients],
        split.threshold.hex(),
        split.decrease.hex(),
        split.left_count,
        split.right_count,
    )


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), sparsity=st.integers(1, 3), seed=st.integers(0, 1000), depth=st.integers(0, 5))
def test_json_round_trip_is_the_identity(kind, data, sparsity, seed, depth):
    """A grown tree is its splits and node statistics, all of which
    to_json writes, so reading it back gives an equal tree."""
    max_n, make = STRATEGIES[kind]
    dataset, _ = data.draw(growth_cases(max_n))
    tree = grow(dataset, make(sparsity, seed), depth)
    back = from_json(to_json(tree))
    assert back == tree
    assert to_json(back) == to_json(tree)
    assert np.array_equal(predict_batch(back, dataset.features), predict_batch(tree, dataset.features))


# Children inherit their parent's stable orders along the directions the
# parent swept, and sort only the others.


@pytest.mark.parametrize("n, pack", [(200, 64), (3000, splitting._PACK_ELEMENTS)])
def test_children_sort_only_the_rows_their_parent_did_not_keep(n, pack):
    # A problem (axes, random draws) that sweeps in blocks of its own
    # (more than pack projections) is kept when its node's children will
    # be searched, and reads the rows its parent kept.  So the rows sorted are the draw keys, one
    # row per candidate, and every direction row but those inherited.
    data, depth, count = random_dataset(5, n, 6), 6, 40
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=count, seed=3)
    sorted_rows = []
    with pytest.MonkeyPatch.context() as patch:
        order = splitting._stable_order
        patch.setattr(splitting, "_stable_order", lambda V, *a: sorted_rows.append(len(V)) or order(V, *a))
        patch.setattr(splitting, "_PACK_ELEMENTS", pack)
        tree = grow(data, strategy, depth)

    def problems(nid):
        drawn = splitting._random_sparse_directions(strategy.seed + nid, data.p, 2, count)
        return [np.eye(data.p), splitting._canonical_rows(drawn)]

    parents = {
        child: nid for nid, node in tree.nodes.items() if not node.is_leaf
        for child in (node.left_child, node.right_child)
    }
    searched = [nid for nid, node in tree.nodes.items() if node.depth < depth and node.count >= 2]
    def own(W, nid):
        k, m = W.shape[0], tree.nodes[nid].count
        return k * m > pack

    fresh, partial, packed = 0, 0, 0
    for nid in searched:
        kept = set()
        if nid in parents:
            for W in problems(parents[nid]):
                packed += not own(W, parents[nid])
                if own(W, parents[nid]):
                    kept.update(row.tobytes() for row in W)
        for W in problems(nid):
            new = sum(not own(W, nid) or row.tobytes() not in kept for row in W)
            fresh += new
            partial += 0 < new < W.shape[0]
    assert sum(sorted_rows) == fresh + count * len(searched)
    # Children that inherit part of a problem, and parents that do not
    # keep one, since it is packed.
    assert partial and packed


def test_an_exhaustive_grow_sorts_every_candidate_row():
    # The oracle's problems keep no orders, so every node sorts all of
    # its candidates.
    data, depth = random_dataset(8, 24, 3), 4
    sorted_rows = []
    with pytest.MonkeyPatch.context() as patch:
        order = splitting._stable_order
        patch.setattr(splitting, "_stable_order", lambda V, *a: sorted_rows.append(len(V)) or order(V, *a))
        tree = grow(data, SearchStrategy(kind="exhaustive_oblique", sparsity_d=2), depth)
    rows = node_rows(tree, data)
    want = sum(
        len(splitting._Vertices(data.features[rows[nid]], 2))
        for nid, node in tree.nodes.items() if node.depth < depth and node.count >= 2
    )
    assert sum(sorted_rows) == want


def test_a_level_keeps_at_most_the_kept_element_cap():
    # Thousands of random candidates on thousands of rows: the root's draw
    # alone would keep about 4 M elements (direction rows x node rows)
    # for its children.  Each level keeps at most _KEEP_BLOCKS blocks of
    # _BLOCK_ELEMENTS, and the tree's bytes do not depend on what is kept.
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(3000, 40))
    data = Dataset(X, np.sin(X[:, 0] + X[:, 1]) + 0.1 * rng.standard_normal(3000))
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=3000, seed=1)
    cap = splitting._KEEP_BLOCKS * splitting._BLOCK_ELEMENTS

    def grown(blocks):
        kept, sources = [], splitting._sources

        def counted(problems, keep):
            out = sources(problems, keep)
            nodes = {id(node): node for node, _ in problems}.values()
            kept.append(sum(order.size for node in nodes if node.sorted for order, _ in node.sorted[1]))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(splitting, "_sources", counted)
            patch.setattr(splitting, "_KEEP_BLOCKS", blocks)
            return to_json(grow(data, strategy, 3)), max(kept)

    text, most = grown(splitting._KEEP_BLOCKS)
    assert 0 < most <= cap
    unbounded, wide = grown(10**6)
    assert wide > cap
    assert text == unbounded


def test_inherited_orders_equal_fresh_stable_orders_on_ties():
    # Integer features with -0.0 and +0.0 and duplicated rows give long
    # runs of equal projections; a child's inherited order must break
    # each run by its own row index, as a fresh _stable_order does, and
    # its values must carry the same bits.
    rng = np.random.default_rng(11)
    X = rng.integers(-2, 3, size=(2000, 4)).astype(float)
    X[X == 0.0] = np.where(rng.random(int(np.count_nonzero(X == 0.0))) < 0.5, -0.0, 0.0)
    X[rng.integers(2000, size=600)] = X[rng.integers(2000, size=600)]
    data = Dataset(X, rng.standard_normal(2000))
    W = canonical_rows(
        np.array([[1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0], [1, -1, 0, 0], [1, 1, 1, 1], [0, 2, -1, 1]], float)
    )
    extra = canonical_rows(np.array([[1, 0, 1, 0]], float))
    for trial in range(4):
        parent = splitting._Node.of(data, np.arange(2000))
        splitting._best_thresholds(data.features, [(parent, W)], data.n, keep=True)
        left = rng.random(2000) < [0.5, 0.1, 0.9, 0.5][trial]
        for child in parent.children(left):
            assert child.inherit is not None
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(splitting, "_PACK_ELEMENTS", 0)  # no child problem shares a block
                (source,) = splitting._sources([(child, np.concatenate([extra, W]))], False)
            assert source.h == W.shape[0]
            assert source.W[source.h :].tobytes() == extra.tobytes()
            want_order, want_values = splitting._stable_order(
                projections(child.features(data.features), source.W[: source.h])
            )
            assert np.array_equal(source.order[: source.h], want_order)
            assert source.values[: source.h].tobytes() == want_values.tobytes()
            assert child.inherit is None
        assert parent.sorted is None

import numpy as np
import pytest

from obliquetree import (
    Dataset,
    SearchStrategy,
    attach_index_sets,
    grow,
    node_stats,
    predict,
    predict_batch,
    prune_to_depth,
    training_error,
)
from obliquetree.tree import from_json, to_json, validate_partition

from conftest import random_dataset

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
        validate_partition(tree)
        preds = predict_batch(tree, data.features)
        for nid in tree.leaf_ids():
            node = tree.nodes[nid]
            mean, sse = node_stats(data, node.index_set)
            assert mean == pytest.approx(node.mean, rel=1e-12, abs=1e-15)
            assert sse == pytest.approx(node.sse, rel=1e-10, abs=1e-12)
            assert np.all(preds[node.index_set] == node.mean)


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


def test_json_round_trip_and_attach():
    data = random_dataset(23, 40, 2)
    tree = grow(data, AXIS, max_depth=3)
    back = from_json(to_json(tree))
    assert to_json(back) == to_json(tree)
    attach_index_sets(back, data)
    validate_partition(back)
    assert np.array_equal(
        predict_batch(back, data.features), predict_batch(tree, data.features)
    )


def test_attach_rejects_wrong_dataset():
    data = random_dataset(29, 40, 2, y_scale=2.0)
    other = random_dataset(31, 40, 2, y_scale=2.0)
    tree = grow(data, AXIS, max_depth=3)
    stripped = from_json(to_json(tree))
    with pytest.raises(ValueError):
        attach_index_sets(stripped, other)


def test_deterministic_ids_with_random_strategy():
    data = random_dataset(37, 60, 3)
    strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=40, seed=5)
    t1 = grow(data, strategy, max_depth=4)
    t2 = grow(data, strategy, max_depth=4)
    assert to_json(t1) == to_json(t2)

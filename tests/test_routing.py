"""Routing and subtree materialization against reference implementations.

The references below are the per-function tree walks that `tree.route`,
`tree._partition` and `tree.collapse` replaced.  Each property checks
that the shared kernel gives the same bytes as the walk it replaced, on
grown trees and on trees reloaded from JSON.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    SearchStrategy,
    attach_index_sets,
    build_expansion,
    grow,
    predict,
    predict_batch,
    prune_to_depth,
)
from obliquetree.dataset import root_index_set
from obliquetree.stumps import feature_at, reconstruct_at, reconstruct_batch
from obliquetree.tree import Tree, from_json, to_json


def reference_predict_batch(tree, X):
    out = np.empty(X.shape[0])
    stack = [(tree.root_id, np.arange(X.shape[0]))]
    while stack:
        nid, rows = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out[rows] = node.mean
            continue
        values = X[rows] @ node.split.direction.as_array()
        left = values <= node.split.threshold
        if np.any(left):
            stack.append((node.left_child, rows[left]))
        if not np.all(left):
            stack.append((node.right_child, rows[~left]))
    return out


def reference_attach_index_sets(tree, dataset):
    tree.nodes[tree.root_id].index_set = root_index_set(dataset)
    order = sorted(tree.nodes.values(), key=lambda nd: (nd.depth, nd.node_id))
    for node in order:
        if node.is_leaf:
            assert node.index_set is not None
            continue
        idx = node.index_set
        values = dataset.features[idx] @ node.split.direction.as_array()
        left_mask = values <= node.split.threshold
        tree.nodes[node.left_child].index_set = idx[left_mask]
        tree.nodes[node.right_child].index_set = idx[~left_mask]


def reference_feature_at(tree, feature, x):
    if feature.is_constant:
        return 1.0
    vec = np.asarray(x, dtype=np.float64)
    node = tree.nodes[tree.root_id]
    while not node.is_leaf:
        goes_left = float(vec @ node.split.direction.as_array()) <= node.split.threshold
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
        values = X[rows] @ node.split.direction.as_array()
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
    axis or random-projection tree.  The generic points are the training
    rows and fresh uniform rows; the threshold points lie exactly on the
    threshold of an axis split (and may lie on an oblique one too)."""
    n = draw(st.integers(2, 60))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 5, size=(n, p)).astype(float)
    else:
        X = rng.uniform(-1.0, 1.0, size=(n, p))
    y = 2.0 * rng.standard_normal(n)
    data = Dataset(X, y)
    if draw(st.booleans()):
        strategy = SearchStrategy(kind="axis_aligned")
    else:
        strategy = SearchStrategy(
            kind="random_projection",
            sparsity_d=draw(st.integers(1, p)),
            num_candidates=draw(st.integers(0, 12)),
            seed=draw(st.integers(0, 1000)),
        )
    tree = grow(data, strategy, draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    on_threshold = []
    for nid in tree.internal_ids():
        node = tree.nodes[nid]
        coefs = node.split.direction.as_array()
        if np.count_nonzero(coefs) == 1:
            row = X[node.index_set[0]].copy()
            row[np.flatnonzero(coefs)[0]] = node.split.threshold
            on_threshold.append(row)
    generic = np.concatenate([X, rng.uniform(-1.5, 5.5, size=(20, p))])
    return data, tree, generic, np.reshape(on_threshold, (-1, p))


def _reloaded(tree):
    return from_json(to_json(tree))


@settings(max_examples=80, deadline=None)
@given(case=grown_trees())
def test_predict_matches_reference_and_single_points(case):
    """predict_batch is byte-equal to the reference, and predict on one
    row equals that row's batch prediction.

    On an oblique split the projection of a point can differ in the last
    bit between a one-row product (a dot product) and a many-row one
    (BLAS gemv, whose result also depends on the row count once p >= 8),
    so a point within rounding of an oblique hyperplane may route
    differently alone than in a batch.  Single points are therefore
    compared on every query where projections are exact (trees with only
    axis splits) and on the generic points otherwise.
    """
    _, tree, generic, on_threshold = case
    queries = np.concatenate([generic, on_threshold])
    axis_only = all(
        np.count_nonzero(tree.nodes[nid].split.direction.as_array()) == 1
        for nid in tree.internal_ids()
    )
    for t in (tree, _reloaded(tree)):
        batch = predict_batch(t, queries)
        assert batch.tobytes() == reference_predict_batch(t, queries).tobytes()
        for i, x in enumerate(queries if axis_only else generic):
            assert predict(t, x) == batch[i]


@settings(max_examples=80, deadline=None)
@given(case=grown_trees())
def test_attach_reproduces_grown_index_sets(case):
    data, tree, _, _ = case
    back = _reloaded(tree)
    attach_index_sets(back, data)
    ref = _reloaded(tree)
    reference_attach_index_sets(ref, data)
    for nid, node in tree.nodes.items():
        assert np.array_equal(back.nodes[nid].index_set, node.index_set)
        assert np.array_equal(back.nodes[nid].index_set, ref.nodes[nid].index_set)
        assert back.nodes[nid].index_set.dtype == node.index_set.dtype


@settings(max_examples=60, deadline=None)
@given(case=grown_trees())
def test_reconstruction_matches_reference(case):
    data, tree, generic, on_threshold = case
    queries = np.concatenate([generic, on_threshold])
    back = _reloaded(tree)
    attach_index_sets(back, data)
    for t in (tree, back):
        expansion = build_expansion(t, data)
        fast = reconstruct_batch(t, expansion, queries)
        assert fast.tobytes() == reference_reconstruct_batch(t, expansion, queries).tobytes()
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

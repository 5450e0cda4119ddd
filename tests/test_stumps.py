from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquetree import (
    EMPTY_NODE_ID,
    Dataset,
    SearchStrategy,
    build_expansion,
    grow,
    predict,
    stump,
    training_error,
    verify_impurity_identity,
    verify_orthonormality,
    verify_training_recursion,
)
from obliquetree.stumps import (
    Expansion,
    feature_at,
    parseval_gap,
    reconstruct_batch,
    verify_expansion_reconstruction,
)
from obliquetree.tree import from_dict, from_json, to_dict, to_json

from conftest import random_dataset
from test_routing import grown_trees

AXIS = SearchStrategy(kind="axis_aligned")


def training_values(tree, feature, data):
    """A feature's values at the training points: the one-stump expansion."""
    return reconstruct_batch(tree, Expansion((feature,), (1.0,)), data.features)


def test_stump_d1_root_values(d1):
    tree = grow(d1, AXIS, max_depth=1)
    feat = stump(tree, d1, 0)
    # n_L = n_R = 2, weight 1: values are +1 on the left, -1 on the right.
    assert feat.left_value == pytest.approx(1.0, rel=1e-12)
    assert feat.right_value == pytest.approx(-1.0, rel=1e-12)
    col = training_values(tree, feat, d1)
    assert np.mean(col**2) == pytest.approx(1.0, rel=1e-12)


def test_stump_unbalanced_hand_values():
    # n_L = 1, n_R = 3, weight 1: left value sqrt(3), right -1/sqrt(3).
    data = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([5.0, 0.0, 0.0, 0.0]))
    tree = grow(data, AXIS, max_depth=1)
    feat = stump(tree, data, 0)
    assert feat.left_value == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert feat.right_value == pytest.approx(-1.0 / np.sqrt(3.0), rel=1e-12)
    col = training_values(tree, feat, data)
    assert np.mean(col**2) == pytest.approx(1.0, rel=1e-12)


def test_empty_node_feature_is_constant_one(d1):
    tree = grow(d1, AXIS, max_depth=1)
    feat = stump(tree, d1, EMPTY_NODE_ID)
    assert feat.is_constant
    assert np.array_equal(training_values(tree, feat, d1), np.ones(4))
    assert feature_at(tree, feat, [123.0]) == 1.0


def test_stump_rejects_terminal_node(d1):
    tree = grow(d1, AXIS, max_depth=1)
    leaf = tree.leaf_ids()[0]
    with pytest.raises(ValueError):
        stump(tree, d1, leaf)


def test_expansion_d1_coefficients(d1):
    tree = grow(d1, AXIS, max_depth=1)
    expansion = build_expansion(tree, d1)
    assert expansion.coefficients[0] == pytest.approx(0.5)
    # <y, stump>_n = (1/4)(0 + 0 - 1 - 1) = -0.5.
    assert expansion.coefficients[1] == pytest.approx(-0.5, rel=1e-12)


def test_expansion_root_only(d1):
    tree = grow(d1, AXIS, max_depth=0)
    expansion = build_expansion(tree, d1)
    assert len(expansion.features) == 1
    assert expansion.coefficients == (0.5,)
    assert verify_orthonormality(expansion, d1) == 0.0


def test_orthonormality_d1(d1):
    tree = grow(d1, AXIS, max_depth=1)
    assert verify_orthonormality(build_expansion(tree, d1), d1) <= 1e-12


def test_orthonormality_random_trees():
    for seed in range(6):
        data = random_dataset(seed + 300, 200, 3, y_scale=2.0)
        strategy = SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=25, seed=seed)
        tree = grow(data, strategy, max_depth=4)
        expansion = build_expansion(tree, data)
        assert verify_orthonormality(expansion, data) <= 1e-9


def dense_gram_deviation(expansion, n):
    """verify_orthonormality's reference: the n x k matrix C of every
    feature's training values, and the largest entry of |C.T C / n - I|."""
    C = np.zeros((n, len(expansion.features)))
    for j, feat in enumerate(expansion.features):
        if feat.is_constant:
            C[:, j] = 1.0
        else:
            C[feat.left_ids, j], C[feat.right_ids, j] = feat.left_value, feat.right_value
    return float(np.max(np.abs(C.T @ C / n - np.eye(C.shape[1]))))


def children_numbered_first(tree):
    """The tree reloaded from JSON that numbers every node below its
    parent, so its expansion lists children before parents."""
    payload, top = to_dict(tree), max(tree.nodes)
    flip = lambda nid: None if nid is None else top - nid
    for node in payload["nodes"]:
        node.update({key: flip(node[key]) for key in ("node_id", "left_child", "right_child")})
    return from_dict(dict(payload, root_id=flip(tree.root_id)))


@settings(max_examples=60, deadline=None)
@given(case=grown_trees(), which=st.integers(0, 2**16), scale=st.sampled_from([1.0, 1.5, -1.0]))
def test_orthonormality_equals_the_dense_gram_deviation(case, which, scale):
    """On grown and reloaded trees, the path-sparse check equals the
    dense Gram matrix's deviation; so it does once one stump's left
    value is scaled, which makes its products with the features above
    it nonzero.  Negating it keeps its norm, so only those products
    deviate."""
    data, tree = case[:2]
    for t in (tree, from_json(to_json(tree)), children_numbered_first(tree)):
        expansion = build_expansion(t, data)
        features = list(expansion.features)
        corrupt = scale != 1.0 and len(features) > 1
        if corrupt:
            j = 1 + which % (len(features) - 1)
            features[j] = replace(features[j], left_value=scale * features[j].left_value)
        expansion = Expansion(tuple(features), expansion.coefficients)
        deviation = verify_orthonormality(expansion, data)
        assert abs(deviation - dense_gram_deviation(expansion, data.n)) <= 1e-12
        assert deviation > 1e-9 if corrupt else deviation <= 1e-9


def test_a_corrupted_stump_value_fails_the_orthonormality_gate():
    data = random_dataset(310, 200, 3, y_scale=2.0)
    tree = grow(data, SearchStrategy(kind="random_projection", sparsity_d=2, num_candidates=25, seed=4), max_depth=5)
    expansion = build_expansion(tree, data)
    assert verify_orthonormality(expansion, data) <= 1e-9
    for j in range(1, len(expansion.features)):
        features = list(expansion.features)
        features[j] = replace(features[j], left_value=features[j].left_value * (1.0 + 1e-6))
        assert verify_orthonormality(Expansion(tuple(features), expansion.coefficients), data) > 1e-9


def test_impurity_identity_d1_and_random(d1):
    tree = grow(d1, AXIS, max_depth=1)
    dev, worst = verify_impurity_identity(tree, d1)
    assert dev <= 1e-12 and worst == 0
    for seed in range(5):
        data = random_dataset(seed + 400, 300, 3, y_scale=2.0)
        tree = grow(data, AXIS, max_depth=4)
        dev, _ = verify_impurity_identity(tree, data)
        assert dev <= 1e-9


def test_impurity_identity_root_only_vacuous(d1):
    const = Dataset(d1.features, np.full(4, 1.0))
    tree = grow(const, AXIS, max_depth=3)
    dev, worst = verify_impurity_identity(tree, const)
    assert dev == 0.0 and worst is None


def test_pointwise_reconstruction_training_and_fresh():
    for seed in range(4):
        data = random_dataset(seed + 500, 50, 3, y_scale=2.0)
        tree = grow(data, AXIS, max_depth=3)
        rng = np.random.default_rng(seed)
        fresh = rng.uniform(-2.0, 2.0, size=(200, 3))
        assert verify_expansion_reconstruction(tree, data, fresh) <= 1e-9


def test_reconstruction_matches_predict_pointwise():
    data = random_dataset(601, 50, 2, y_scale=2.0)
    tree = grow(data, AXIS, max_depth=3)
    expansion = build_expansion(tree, data)
    rng = np.random.default_rng(602)
    from obliquetree.stumps import reconstruct_at

    for x in rng.uniform(-1.5, 1.5, size=(25, 2)):
        assert reconstruct_at(tree, expansion, x) == pytest.approx(
            predict(tree, x), abs=1e-10
        )


def test_parseval_ledger():
    for seed in range(4):
        data = random_dataset(seed + 700, 120, 2, y_scale=3.0)
        tree = grow(data, AXIS, max_depth=4)
        assert parseval_gap(tree, data) <= 1e-9


def test_training_recursion_d1(d1):
    residuals = verify_training_recursion(d1, AXIS, 2)
    assert all(r <= 1e-12 for r in residuals)
    # Depth 1 drops the error 0.25 -> 0 and the stump coefficient
    # squared is exactly 0.25.
    tree = grow(d1, AXIS, 1)
    expansion = build_expansion(tree, d1)
    assert expansion.coefficients[1] ** 2 == pytest.approx(0.25, rel=1e-12)
    assert training_error(tree, d1) == 0.0


def test_training_recursion_random_and_past_purity():
    data = random_dataset(801, 64, 2, y_scale=2.0)
    residuals = verify_training_recursion(data, AXIS, 5)
    assert all(r <= 1e-9 for r in residuals)
    # Past purity the per-level decrements are zero and errors flat.
    small = random_dataset(802, 8, 1)
    residuals = verify_training_recursion(small, AXIS, 7)
    assert all(r <= 1e-9 for r in residuals)

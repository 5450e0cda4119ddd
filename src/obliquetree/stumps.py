"""Orthonormal decision-stump features and the tree's orthogonal expansion.

Every internal node of a grown tree carries a two-valued stump feature:
it takes the value n_R / sqrt(w * n_L * n_R) on the node's left child,
-n_L / sqrt(w * n_L * n_R) on the right child, and zero outside the
node, where w is the node's share of the full sample.  Together with the
constant feature (index 0, owned by the distinguished "empty node"),
these form an orthonormal family under the empirical inner product, and
the tree's prediction function is exactly their expansion with
coefficients <y, feature>_n.  The verifier functions below recompute the
defining identities numerically and report worst-case deviations; what
counts as a failure is left to the test layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import Dataset, _points
from .tree import Tree, _depth_scores, _leaf_means, _mse, grow, node_rows, route, training_error

# Owner id of the constant feature (the conventional "empty node").
EMPTY_NODE_ID = -1


@dataclass(frozen=True)
class StumpFeature:
    """One orthonormal stump, stored intensionally.

    Only the two values and the children's training rows are kept; values
    at fresh points are produced by routing through the tree, so the
    feature is a function on the whole input space, not just the sample.
    """

    owner_node_id: int
    left_value: float
    right_value: float
    weight: float
    left_ids: np.ndarray | None
    right_ids: np.ndarray | None

    @property
    def is_constant(self) -> bool:
        return self.owner_node_id == EMPTY_NODE_ID


@dataclass(frozen=True)
class Expansion:
    """Stump features plus their empirical inner-product coefficients."""

    features: tuple[StumpFeature, ...]
    coefficients: tuple[float, ...]

    def to_dict(self) -> dict:
        features = [dict(vars(f)) for f in self.features]
        for feature in features:  # routing recovers the children's rows
            del feature["left_ids"], feature["right_ids"]
        return {"features": features, "coefficients": list(self.coefficients)}


_CONSTANT = StumpFeature(
    owner_node_id=EMPTY_NODE_ID,
    left_value=1.0,
    right_value=1.0,
    weight=1.0,
    left_ids=None,
    right_ids=None,
)


def stump(tree: Tree, dataset: Dataset, internal_node_id: int) -> StumpFeature:
    """The orthonormal stump attached to one internal node.

    Passing EMPTY_NODE_ID returns the constant feature (identically 1).
    Raises ValueError on terminal nodes, which own no stump, and, as
    node_rows does, on a dataset the tree was not grown on.
    """
    if internal_node_id == EMPTY_NODE_ID:
        return _CONSTANT
    if tree.nodes[internal_node_id].is_leaf:
        raise ValueError(f"node {internal_node_id} is terminal and has no stump")
    return _stump(tree, internal_node_id, node_rows(tree, dataset))


def _stump(tree: Tree, internal_node_id: int, rows: dict[int, np.ndarray]) -> StumpFeature:
    """stump() of an internal node, given the tree's node_rows."""
    node = tree.nodes[internal_node_id]
    n_left = tree.nodes[node.left_child].count
    n_right = tree.nodes[node.right_child].count
    weight = node.count / tree.n
    scale = np.sqrt(weight * n_left * n_right)
    return StumpFeature(
        owner_node_id=internal_node_id,
        left_value=n_right / scale,
        right_value=-n_left / scale,
        weight=weight,
        left_ids=rows[node.left_child],
        right_ids=rows[node.right_child],
    )


def feature_column(feature: StumpFeature, n: int) -> np.ndarray:
    """The feature evaluated at all training points, as a length-n vector."""
    if feature.is_constant:
        return np.ones(n)
    col = np.zeros(n)
    col[feature.left_ids] = feature.left_value
    col[feature.right_ids] = feature.right_value
    return col


def feature_at(tree: Tree, feature: StumpFeature, x) -> float:
    """A stump's value at an arbitrary point: reconstruct_at of the one-stump
    expansion, 0.0 + 1.0 * v, which is v since a stump value is never -0.0."""
    return reconstruct_at(tree, Expansion((feature,), (1.0,)), x)


def build_expansion(tree: Tree, dataset: Dataset) -> Expansion:
    """Expansion of the tree output over its stump features.

    Feature order is the constant feature first, then internal nodes by
    id.  Coefficients are the empirical inner products (1/n) Sum y_i *
    feature(x_i); the constant's coefficient is the grand mean.
    """
    rows = node_rows(tree, dataset)
    features = [_CONSTANT]
    coefficients = [float(dataset.response.mean())]
    for nid in tree.internal_ids():
        feat = _stump(tree, nid, rows)
        y = dataset.response
        coef = (
            feat.left_value * float(y[feat.left_ids].sum())
            + feat.right_value * float(y[feat.right_ids].sum())
        ) / dataset.n
        features.append(feat)
        coefficients.append(float(coef))
    return Expansion(features=tuple(features), coefficients=tuple(coefficients))


def _expansion_rows(tree: Tree, expansion: Expansion) -> dict[int, np.ndarray]:
    """node_rows(tree, dataset) for the expansion build_expansion made of them,
    rebuilt in route's order from its stumps' rows (node_rows' own arrays)."""
    children = {f.owner_node_id: (f.left_ids, f.right_ids) for f in expansion.features[1:]}
    reached = [(tree.root_id, np.arange(tree.n))]
    for nid, _ in reached:
        if nid in children:
            node = tree.nodes[nid]
            reached.extend(zip((node.left_child, node.right_child), children[nid]))
    return dict(reached)


def verify_orthonormality(expansion: Expansion, dataset: Dataset) -> float:
    """Largest absolute deviation of the feature Gram matrix from identity."""
    cols = np.stack(
        [feature_column(f, dataset.n) for f in expansion.features], axis=1
    )
    gram = cols.T @ cols / dataset.n
    return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


def verify_impurity_identity(tree: Tree, dataset: Dataset) -> tuple[float, int | None]:
    """Worst relative gap between squared coefficients and split decreases.

    For every internal node the squared expansion coefficient must equal
    the SSE decrease of the split actually taken there.  Returns the max
    relative deviation and the offending node id (None for a root-only
    tree, whose deviation is vacuously zero).
    """
    return _impurity_gap(tree, build_expansion(tree, dataset))


def _impurity_gap(tree: Tree, expansion: Expansion) -> tuple[float, int | None]:
    """verify_impurity_identity on the tree's expansion."""
    worst = 0.0
    worst_node = None
    for feat, coef in zip(expansion.features, expansion.coefficients):
        if feat.is_constant:
            continue
        decrease = tree.nodes[feat.owner_node_id].split.decrease
        gap = abs(coef**2 - decrease) / max(abs(decrease), abs(coef**2), 1e-300)
        if gap >= worst:
            worst = gap
            worst_node = feat.owner_node_id
    return worst, worst_node


def reconstruct_at(tree: Tree, expansion: Expansion, x) -> float:
    """Evaluate the orthogonal expansion at an arbitrary point."""
    return float(reconstruct_batch(tree, expansion, _points(x, tree.p, one=True))[0])


def reconstruct_batch(tree: Tree, expansion: Expansion, X: np.ndarray) -> np.ndarray:
    """Vectorized expansion evaluation: one routing pass, then every
    stump's contribution is added to its children's rows, parents first."""
    return _expansion_values(tree, expansion, route(tree, X))


def _expansion_values(tree: Tree, expansion: Expansion, reached: dict[int, np.ndarray]) -> np.ndarray:
    """reconstruct_batch of the points that route(tree, X) gave `reached`."""
    terms = list(zip(expansion.features, expansion.coefficients))
    by_owner = {f.owner_node_id: (f, c) for f, c in terms if not f.is_constant}
    constant = sum(c for f, c in terms if f.is_constant)
    # sum() over no constant feature is the int 0: out must still be float.
    out = np.full(reached[tree.root_id].size, constant, dtype=np.float64)
    for nid in reached:
        if nid not in by_owner:
            continue
        feat, coef = by_owner[nid]
        node = tree.nodes[nid]
        if node.left_child in reached:
            out[reached[node.left_child]] += coef * feat.left_value
        if node.right_child in reached:
            out[reached[node.right_child]] += coef * feat.right_value
    return out


def verify_expansion_reconstruction(
    tree: Tree, dataset: Dataset, fresh_points: np.ndarray | None = None
) -> float:
    """Max |expansion - tree prediction| over training and fresh points."""
    expansion = build_expansion(tree, dataset)
    fresh = () if fresh_points is None else (route(tree, fresh_points),)
    return _reconstruction_gap(tree, expansion, _expansion_rows(tree, expansion), *fresh)


def _reconstruction_gap(tree: Tree, expansion: Expansion, *routings: dict[int, np.ndarray]) -> float:
    """Max |expansion - tree prediction| over the points of every routing
    (route or node_rows), each read once for both."""
    return max(
        float(np.max(np.abs(_expansion_values(tree, expansion, reached) - _leaf_means(tree, reached))))
        for reached in routings
    )


def verify_training_recursion(
    dataset: Dataset, strategy, max_depth: int, grow_fn=None
) -> list[float]:
    """Per-depth residuals of the training-error recursion.

    For each K in 1..max_depth, the training error must drop from its
    depth K-1 value by exactly the summed squared coefficients of the
    stumps created at level K.  Requires a deterministic strategy (or a
    fixed seed) so depth prefixes are nested.  Every prefix's training
    error is read off the expansion's one routing (tree._depth_scores).
    """
    if grow_fn is None:
        grow_fn = grow
    full = grow_fn(dataset, strategy, max_depth)
    expansion = build_expansion(full, dataset)
    level_drop = {}
    for feat, coef in zip(expansion.features, expansion.coefficients):
        if feat.is_constant:
            continue
        owner_depth = full.nodes[feat.owner_node_id].depth
        level_drop[owner_depth + 1] = level_drop.get(owner_depth + 1, 0.0) + coef**2
    errors = _depth_scores(
        full, _expansion_rows(full, expansion), range(max_depth + 1), partial(_mse, dataset.response)
    )
    return [
        abs(error - prev_error + level_drop.get(depth, 0.0))
        for depth, prev_error, error in zip(range(1, max_depth + 1), errors, errors[1:])
    ]


def parseval_gap(tree: Tree, dataset: Dataset) -> float:
    """|  ||y||^2_n - Sum coef^2 - training error  | for the given tree."""
    expansion = build_expansion(tree, dataset)
    energy = float(np.mean(dataset.response**2))
    explained = sum(c**2 for c in expansion.coefficients)
    return abs(energy - explained - training_error(tree, dataset))

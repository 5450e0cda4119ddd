"""Greedy depth-limited tree growth, prediction, and training error.

Growth is breadth-first (level-synchronous): every node on the current
frontier is searched before any child is, so a depth-K tree is exactly
the depth-(K-1) tree plus one more round of splits.  The whole frontier
goes to one search call (splitting._search_level), which sweeps the
small nodes together in shared blocks; each node still gets the split
that run_search finds on it alone.  A split carries its node's left
set, which routes the node's rows to its children, and each child's
mean and SSE are computed once, as the tree node's statistics and as
the next level's centring.  Node ids are assigned in frontier order,
which makes construction deterministic and gives the greedy-prefix
property for deterministic strategies.

Routing convention: a point goes to the left child when its projection
onto the split direction is <= the threshold, and to the right child
otherwise.  `_partition` is the only place that test is written for a
stored tree; prediction, index-set attachment and the stump features
all route through it, and `collapse` is the only way a subtree is
materialized.  (Growth reads the same test off the search's own
projections, which dataset.projections computed with the same bits.)
Projections come from `dataset.projections`, so a point reaches the same
leaf whichever rows are routed with it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dataset import (
    Dataset,
    Direction,
    _named,
    projections,
    root_index_set,
    validate_index_set,
)

# run_search is not called here; the benchmark's tracer and its tests
# still look for it in this module's namespace.
from .splitting import (
    DECREASE_TOL,
    SearchStrategy,
    Split,
    _Node,
    _search_level,
    run_search,
)

# Responses whose spread is below this are treated as constant (pure node).
PURITY_TOL = 1e-12


@dataclass
class TreeNode:
    node_id: int
    depth: int
    mean: float
    sse: float
    count: int
    index_set: Optional[np.ndarray] = None
    split: Optional[Split] = None
    left_child: Optional[int] = None
    right_child: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class Tree:
    """Binary hierarchy of nodes keyed by node_id, root at id 0."""

    nodes: dict[int, TreeNode]
    root_id: int
    n: int
    p: int
    max_depth_reached: int
    strategy: SearchStrategy

    def leaf_ids(self) -> list[int]:
        return sorted(nid for nid, nd in self.nodes.items() if nd.is_leaf)

    def internal_ids(self) -> list[int]:
        return sorted(nid for nid, nd in self.nodes.items() if not nd.is_leaf)

    def leaf_count(self) -> int:
        return sum(1 for nd in self.nodes.values() if nd.is_leaf)


def grow(
    dataset: Dataset,
    strategy: SearchStrategy,
    max_depth: int,
    min_node_size: int = 1,
) -> Tree:
    """Grow a depth-limited greedy tree.

    A node is split only if its depth is below max_depth, it holds at
    least 2 * min_node_size points, its responses are not all equal
    (within PURITY_TOL), the strategy finds a split with positive
    decrease, and both children keep min_node_size points.  Degenerate
    inputs simply produce a root-only tree.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if min_node_size < 1:
        raise ValueError("min_node_size must be >= 1")
    root = _Node.of(dataset, root_index_set(dataset))
    nodes = {
        0: TreeNode(
            node_id=0, depth=0, mean=root.mean, sse=root.sse, count=dataset.n, index_set=root.rows
        )
    }
    frontier = [(0, root)]
    next_id = 1
    deepest = 0
    for depth in range(max_depth):
        searched = [
            (nid, sample)
            for nid, sample in frontier
            if sample.y.size >= 2 * min_node_size
            and float(sample.y.max() - sample.y.min()) > PURITY_TOL
        ]
        # Per-node seeds, so random strategies draw fresh candidates at
        # every node while the whole tree stays a function of the base seed.
        splits = _search_level(
            dataset,
            [sample for _, sample in searched],
            strategy,
            [strategy.seed + nid for nid, _ in searched],
        )
        frontier = []
        for (nid, sample), split in zip(searched, splits):
            if split is None or split.decrease <= DECREASE_TOL:
                continue
            if min(split.left_count, split.right_count) < min_node_size:
                continue
            node = nodes[nid]
            node.split = split
            for side in (split.left, ~split.left):
                child = _Node(sample.y[side], sample.rows[side])
                nodes[next_id] = TreeNode(
                    node_id=next_id, depth=depth + 1, mean=child.mean, sse=child.sse,
                    count=child.y.size, index_set=child.rows,
                )
                frontier.append((next_id, child))
                next_id += 1
            node.left_child, node.right_child = next_id - 2, next_id - 1
            deepest = depth + 1
        if not frontier:
            break
    return Tree(
        nodes=nodes,
        root_id=0,
        n=dataset.n,
        p=dataset.p,
        max_depth_reached=deepest,
        strategy=strategy,
    )


def _partition(X: np.ndarray, rows: np.ndarray, split: Split):
    """Split `rows` of X into (left, right): projection <= threshold goes left.

    Only the columns on the split's support are gathered for those rows.
    """
    (values,) = projections(X, np.array([split.direction.coefficients]), rows)
    left = values <= split.threshold
    return rows[left], rows[~left]


def route(tree: Tree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Rows of X reaching each node, parents before children.

    A node that no row reaches is absent, and routing does not descend
    below it, so one point visits only the nodes on its path.
    """
    reached = [(tree.root_id, np.arange(X.shape[0]))]
    for nid, rows in reached:
        node = tree.nodes[nid]
        if node.is_leaf:
            continue
        left, right = _partition(X, rows, node.split)
        if left.size:
            reached.append((node.left_child, left))
        if right.size:
            reached.append((node.right_child, right))
    return dict(reached)


def predict(tree: Tree, x) -> float:
    """Route a single point to its terminal node and return that mean."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != tree.p:
        raise ValueError(f"expected a length-{tree.p} vector")
    if not np.all(np.isfinite(vec)):
        raise ValueError("point has non-finite coordinates")
    return float(predict_batch(tree, vec[None, :])[0])


def predict_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Vectorized prediction for a matrix of row points."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != tree.p:
        raise ValueError(f"expected an (m, {tree.p}) matrix")
    if not np.isfinite(X).all():
        raise ValueError("matrix has non-finite coordinates")
    out = np.empty(X.shape[0])
    for nid, rows in route(tree, X).items():
        node = tree.nodes[nid]
        if node.is_leaf:
            out[rows] = node.mean
    return out


def training_error(tree: Tree, dataset: Dataset) -> float:
    """Mean squared training residual (1/n) * Sum (y_i - prediction)^2."""
    preds = predict_batch(tree, dataset.features)
    return float(np.mean((dataset.response - preds) ** 2))


def collapse(tree: Tree, collapsed: set[int]) -> Tree:
    """The subtree in which every node of `collapsed` is a leaf.

    Nodes below a collapsed node are dropped; every other node is
    copied, so the input tree is left as it was.
    """
    kept: dict[int, TreeNode] = {}
    deepest = 0
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if nid in collapsed:
            node = replace(node, split=None, left_child=None, right_child=None)
        else:
            node = replace(node)
        kept[nid] = node
        if not node.is_leaf:
            deepest = max(deepest, node.depth + 1)
            stack.extend((node.left_child, node.right_child))
    return Tree(
        nodes=kept,
        root_id=tree.root_id,
        n=tree.n,
        p=tree.p,
        max_depth_reached=deepest,
        strategy=tree.strategy,
    )


def prune_to_depth(tree: Tree, depth: int) -> Tree:
    """The tree truncated at `depth`: deeper nodes dropped, boundary
    nodes turned into leaves.  For deterministic strategies this equals
    the tree grown directly with max_depth=depth (greedy prefix)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return collapse(tree, {nid for nid, nd in tree.nodes.items() if nd.depth == depth})


def to_dict(tree: Tree) -> dict:
    """JSON-ready representation (index sets are not serialized; use
    attach_index_sets to rebuild them from the training data)."""
    nodes = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        nodes.append(
            {
                "node_id": node.node_id,
                "depth": node.depth,
                "mean": node.mean,
                "sse": node.sse,
                "count": node.count,
                "split": node.split.to_dict() if node.split else None,
                "left_child": node.left_child,
                "right_child": node.right_child,
            }
        )
    return {
        "root_id": tree.root_id,
        "n": tree.n,
        "p": tree.p,
        "max_depth_reached": tree.max_depth_reached,
        "strategy": tree.strategy.to_dict(),
        "nodes": nodes,
    }


def _split_from_dict(node_id: int, data, p: int) -> Split:
    """Split.from_dict, rejecting what grow cannot have written."""
    split = _named(f"node {node_id} split", Split.from_dict, data)
    if not (math.isfinite(split.threshold) and math.isfinite(split.decrease)):
        raise ValueError(f"node {node_id} has a non-finite split threshold or decrease")
    try:
        canonical = Direction.canonical(split.direction.coefficients)
    except ValueError:
        canonical = None
    if len(split.direction.coefficients) != p or canonical != split.direction:
        raise ValueError(f"node {node_id} split direction is not a canonical unit vector in R^{p}")
    return split


def from_dict(data: dict) -> Tree:
    if not isinstance(data, dict):
        raise ValueError(f"tree must be a JSON object, got {data!r}")
    p = _named("p", int, data["p"])
    nodes = {}
    for entry in _named("nodes", list, data["nodes"]):
        if not isinstance(entry, dict):
            raise ValueError(f"tree node must be a JSON object, got {entry!r}")
        node_id = _named("node_id", int, entry["node_id"])

        def field(key, convert):
            return _named(f"node {node_id} {key}", convert, entry[key])

        mean, sse = field("mean", float), field("sse", float)
        if not (math.isfinite(mean) and math.isfinite(sse)):
            raise ValueError(f"node {node_id} has a non-finite mean or sse")
        nodes[node_id] = TreeNode(
            node_id=node_id,
            depth=field("depth", int),
            mean=mean,
            sse=sse,
            count=field("count", int),
            split=_split_from_dict(node_id, entry["split"], p) if entry["split"] else None,
            left_child=entry["left_child"],
            right_child=entry["right_child"],
        )
    root_id = _named("root_id", int, data["root_id"])
    if root_id not in nodes:
        raise ValueError(f"root_id {root_id} names no node")
    # Walk from the root: every node must be reached exactly once, one
    # level below its parent, or prune and stumps would loop or count
    # an orphan's error.
    reached, seen = [root_id], {root_id}
    for nid in reached:
        node = nodes[nid]
        children = () if node.is_leaf else (node.left_child, node.right_child)
        # type(c) is int: a JSON true is an int to isinstance and equals node 1.
        if not all(type(c) is int and c in nodes for c in children):
            raise ValueError(f"node {nid} has a child id missing from the tree")
        for child in children:
            if child in seen:
                raise ValueError(f"node {child} is reached twice from the root")
            if nodes[child].depth != node.depth + 1:
                raise ValueError(f"node {child} has depth {nodes[child].depth}, not {node.depth + 1}")
            reached.append(child)
            seen.add(child)
    if len(seen) != len(nodes):
        orphan = min(set(nodes) - seen)
        raise ValueError(f"node {orphan} is not reached from the root")
    return Tree(
        nodes=nodes,
        root_id=root_id,
        n=_named("n", int, data["n"]),
        p=p,
        max_depth_reached=_named("max_depth_reached", int, data["max_depth_reached"]),
        strategy=SearchStrategy.from_dict(data["strategy"]),
    )


def to_json(tree: Tree) -> str:
    return json.dumps(to_dict(tree), indent=2, sort_keys=True)


def from_json(text: str) -> Tree:
    return from_dict(json.loads(text))


def attach_index_sets(tree: Tree, dataset: Dataset) -> None:
    """Recompute every node's index set by routing the training data.

    Raises if the routed counts disagree with the stored ones, which
    catches a tree paired with the wrong dataset, or if some node is
    reached by no training point.
    """
    if dataset.n != tree.n or dataset.p != tree.p:
        raise ValueError("dataset shape does not match the tree")
    reached = route(tree, dataset.features)
    for nid, rows in reached.items():
        node = tree.nodes[nid]
        if not node.is_leaf:
            for child in (node.left_child, node.right_child):
                routed = reached[child].size if child in reached else 0
                if routed != tree.nodes[child].count:
                    raise ValueError("routed counts disagree with stored counts")
        node.index_set = rows
    if len(reached) != len(tree.nodes):
        raise ValueError("unreachable node in tree")


def validate_partition(tree: Tree) -> None:
    """Terminal index sets must partition [0, n)."""
    pieces = []
    for nid in tree.leaf_ids():
        idx = tree.nodes[nid].index_set
        if idx is None:
            raise ValueError("index sets not attached")
        validate_index_set(idx, tree.n)
        pieces.append(idx)
    merged = np.sort(np.concatenate(pieces))
    if merged.size != tree.n or not np.array_equal(merged, np.arange(tree.n)):
        raise ValueError("terminal index sets do not partition the sample")

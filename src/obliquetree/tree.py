"""Greedy depth-limited tree growth, prediction, and training error.

Growth is breadth-first (level-synchronous): every node on the current
frontier is searched before any child is, so a depth-K tree is exactly
the depth-(K-1) tree plus one more round of splits.  The whole frontier
goes to one search call (splitting._search_level), which sweeps the
small nodes together in shared blocks; each node still gets the split
that run_search finds on it alone.  A split carries its node's left
set, which routes the node's rows to its children, and each child's
mean and SSE are computed once, as the tree node's statistics and as
the next level's centring.  Above the last level searched, the search
also keeps a large node's sorted orders along its directions (the
splitting module docstring says which), and routing hands them to the
two children (splitting._Node.children), so a child sorts only the
directions its parent did not keep.  Node ids are assigned in frontier
order, which makes construction deterministic and gives the
greedy-prefix property for deterministic strategies.

Routing convention: a point goes to the left child when its projection
onto the split direction is <= the threshold, and to the right child
otherwise.  `_partition` is the only place that test is written for a
stored tree; prediction, the holdout scores of pruning, the training
rows of each node (`node_rows`) and the stump features all route
through it, and `collapse` is the only way a subtree is materialized.
(Growth reads the same test off the search's own projections, which
dataset.projections computed with the same bits.)  Projections come
from `dataset.projections`, so a point reaches the same leaf whichever
rows are routed with it.  A tree stores no rows: its splits fix them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dataset import (
    Dataset, _integer, _json_text, _list, _points, _real, _record, canonical_rows, projections,
    root_index_set,
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
    nodes = {0: TreeNode(node_id=0, depth=0, mean=root.mean, sse=root.sse, count=dataset.n)}
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
            keep=depth + 1 < max_depth,
        )
        frontier = []
        for (nid, sample), split in zip(searched, splits):
            if split is None or split.decrease <= DECREASE_TOL:
                continue
            if min(split.left_count, split.right_count) < min_node_size:
                continue
            node = nodes[nid]
            node.split = split
            for child in sample.children(split.left):
                nodes[next_id] = TreeNode(
                    node_id=next_id, depth=depth + 1, mean=child.mean, sse=child.sse,
                    count=child.y.size,
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
    Each side keeps the order of `rows`.  The sides are gathered by
    index (the mask's nonzero positions, then take), not by boolean
    mask: on the near-even masks routing makes, a mask gather branches
    on every element and costs about five times as much on 200,000
    rows, for the same arrays.
    """
    (values,) = projections(X, np.array([split.direction.coefficients]), rows)
    left = values <= split.threshold
    return rows.take(left.nonzero()[0]), rows.take((~left).nonzero()[0])


def route(tree: Tree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Rows of X (read by dataset._points) reaching each node, parents
    first.  The root is always present; any other node that no row
    reaches is absent, and routing does not descend below it, so one
    point visits only the nodes on its path.
    """
    X = _points(X, tree.p)
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
    return float(predict_batch(tree, _points(x, tree.p, one=True))[0])


def predict_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Vectorized prediction for a matrix of row points."""
    return _leaf_means(tree, route(tree, X))


def _leaf_means(tree: Tree, reached: dict[int, np.ndarray]) -> np.ndarray:
    """predict_batch of the points that route(tree, X) gave `reached`."""
    out = np.empty(reached[tree.root_id].size)
    for nid, rows in reached.items():
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
    stack = [(tree.root_id, 0)]
    while stack:
        nid, depth = stack.pop()
        if nid in collapsed:
            node = replace(tree.nodes[nid], split=None, left_child=None, right_child=None)
        else:
            node = replace(tree.nodes[nid])
        kept[nid] = node
        if not node.is_leaf:
            deepest = max(deepest, depth + 1)
            stack.extend(((node.left_child, depth + 1), (node.right_child, depth + 1)))
    return replace(tree, nodes=kept, max_depth_reached=deepest)


def prune_to_depth(tree: Tree, depth: int) -> Tree:
    """The tree truncated at `depth`: deeper nodes dropped, boundary
    nodes turned into leaves.  For deterministic strategies this equals
    the tree grown directly with max_depth=depth (greedy prefix)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return collapse(tree, {nid for nid, nd in tree.nodes.items() if nd.depth == depth})


def to_dict(tree: Tree) -> dict:
    """JSON-ready representation.  It holds every field of the tree, so
    from_dict(to_dict(tree)) == tree; the training rows of each node
    follow from the splits (node_rows)."""
    nodes = [
        {**vars(node), "split": node.split.to_dict() if node.split else None}
        for _, node in sorted(tree.nodes.items())
    ]
    return {**vars(tree), "strategy": tree.strategy.to_dict(), "nodes": nodes}


def _node_name(entry) -> str:
    """A node record's name in messages: its node_id as written."""
    return f"node {entry['node_id']!r}" if type(entry) is dict and "node_id" in entry else "node"


def _or_none(reader):
    return lambda value: None if value is None else reader(value)


# The JSON readers of a node's and a tree's fields.
_NODE_FIELDS = dict(
    node_id=_integer, depth=_integer, mean=_real, sse=_real, count=_integer,
    split=_or_none(Split.from_dict), left_child=_or_none(_integer), right_child=_or_none(_integer),
)
_TREE_FIELDS = dict(
    nodes=_list(lambda entry: TreeNode(**_record(_node_name, entry, _NODE_FIELDS))),
    root_id=_integer, n=_integer, p=_integer, max_depth_reached=_integer,
    strategy=SearchStrategy.from_dict,
)


def from_dict(data: dict) -> Tree:
    """The tree that to_dict wrote.  Its records are read by
    dataset._record; then every direction must be canonical in R^p, no
    leaf may name a child, and every node must be listed once and
    reached once from the root, with consistent depths and counts, so
    prune and stumps never meet a node they cannot reach."""
    record = _record("tree", data, _TREE_FIELDS)
    nodes = {node.node_id: node for node in record["nodes"]}
    if len(nodes) != len(record["nodes"]):
        ids = sorted(node.node_id for node in record["nodes"])
        twice = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise ValueError(f"node {twice} is listed twice")
    p, root_id, n = record["p"], record["root_id"], record["n"]
    split = [node for node in nodes.values() if node.split]
    rows = [node.split.direction.coefficients for node in split]
    moved = [len(row) != p or not any(row) for row in rows]
    if rows and not any(moved):
        W = np.array(rows)
        moved = (canonical_rows(W) != W).any(axis=1).tolist()
    for node, bad in zip(split, moved):
        if bad:
            raise ValueError(
                f"node {node.node_id} split direction is not a canonical unit vector in R^{p}"
            )
    if root_id not in nodes:
        raise ValueError(f"root_id {root_id} names no node")
    # Walk from the root: every node must be reached exactly once, one
    # level below its parent, or prune and stumps would loop or count
    # an orphan's error.
    reached, seen = [root_id], {root_id}
    for nid in reached:
        node = nodes[nid]
        children = () if node.is_leaf else (node.left_child, node.right_child)
        if node.is_leaf and (node.left_child, node.right_child) != (None, None):
            raise ValueError(f"node {nid} is a leaf with a child id")
        if not all(c in nodes for c in children):
            raise ValueError(f"node {nid} has a child id missing from the tree")
        for child in children:
            if child in seen:
                raise ValueError(f"node {child} is reached twice from the root")
            if nodes[child].depth != node.depth + 1:
                raise ValueError(f"node {child} has depth {nodes[child].depth}, not {node.depth + 1}")
            reached.append(child)
            seen.add(child)
        counts = tuple(nodes[child].count for child in children)
        if children and counts != (node.split.left_count, node.split.right_count):
            raise ValueError(f"node {nid} split counts differ from its child counts {counts}")
        if children and (min(counts) < 1 or sum(counts) != node.count):
            raise ValueError(f"node {nid} child counts {counts} must be >= 1 and sum to {node.count}")
    if len(seen) != len(nodes):
        orphan = min(set(nodes) - seen)
        raise ValueError(f"node {orphan} is not reached from the root")
    if (nodes[root_id].depth, nodes[root_id].count) != (0, n):
        raise ValueError(f"root node {root_id} must have depth 0 and count n={n}")
    max_depth = record["max_depth_reached"]
    deepest = max((node.depth + 1 for node in nodes.values() if node.split), default=0)
    if max_depth != deepest:
        raise ValueError(f"max_depth_reached {max_depth} is not {deepest}, one below the deepest split")
    return Tree(**{**record, "nodes": nodes})


def to_json(tree: Tree) -> str:
    return _json_text(to_dict(tree))


def from_json(text: str) -> Tree:
    return from_dict(json.loads(text))


def node_rows(tree: Tree, dataset: Dataset) -> dict[int, np.ndarray]:
    """The training rows reaching each node: route(tree, dataset.features).

    Raises if the routed counts disagree with the stored ones, which
    catches a tree paired with the wrong dataset, or if some node is
    reached by no training point.
    """
    if dataset.n != tree.n or dataset.p != tree.p:
        raise ValueError("dataset shape does not match the tree")
    reached = route(tree, dataset.features)
    for nid in reached:
        node = tree.nodes[nid]
        if not node.is_leaf:
            for child in (node.left_child, node.right_child):
                routed = reached[child].size if child in reached else 0
                if routed != tree.nodes[child].count:
                    raise ValueError("routed counts disagree with stored counts")
    if len(reached) != len(tree.nodes):
        raise ValueError("unreachable node in tree")
    return reached

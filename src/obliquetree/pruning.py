"""Weakest-link pruning and penalized subtree selection.

Collapsing an internal node t raises the training error by
(SSE(t) - Sum of SSE over the leaves under t) / n while removing
leaves(t) - 1 terminal nodes; the ratio of the two is the node's
critical alpha.  Repeatedly collapsing the node with the smallest alpha
yields a nested sequence of subtrees whose alphas are non-decreasing,
and for every penalty coefficient the smallest minimizer of
train_error + lambda * |leaves| lies on that sequence.

The sequence is computed once per tree: after each collapse only the
collapsed node's ancestors are updated, so the interpreted work is
O(nodes x depth), plus one vectorized minimum over the internal nodes
per step.  PruneSequence.select then picks the subtree for any lambda
from that one sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, subset
from .splitting import SearchStrategy
from .tree import Tree, collapse, grow, predict_batch

_OBJECTIVE_TOL = 1e-12


@dataclass(frozen=True)
class PruneStep:
    critical_alpha: float
    collapsed_node_id: int
    leaf_count_after: int
    train_error_after: float


def _check_lambda(lam: float) -> None:
    """A penalty must be a finite number >= 0 (NaN would compare false and
    pass a bare `< 0` test)."""
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")


@dataclass(frozen=True)
class PenalizedObjective:
    """train_error + lam * leaf_count for one candidate subtree."""

    lam: float
    value: float

    def __post_init__(self):
        _check_lambda(self.lam)
        if not np.isfinite(self.value):
            raise ValueError("objective value must be finite")


def penalized_objective(tree: Tree, dataset: Dataset, lam: float) -> PenalizedObjective:
    from .tree import training_error

    return PenalizedObjective(lam=lam, value=training_error(tree, dataset) + lam * tree.leaf_count())


@dataclass(frozen=True)
class PruneSequence:
    """The weakest-link path from the full tree down to its root."""

    steps: tuple[PruneStep, ...]
    initial_leaf_count: int
    initial_train_error: float

    def to_dict(self) -> dict:
        return {
            "initial_leaf_count": self.initial_leaf_count,
            "initial_train_error": self.initial_train_error,
            "steps": [
                {
                    "critical_alpha": s.critical_alpha,
                    "collapsed_node_id": s.collapsed_node_id,
                    "leaf_count_after": s.leaf_count_after,
                    "train_error_after": s.train_error_after,
                }
                for s in self.steps
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def select(self, tree: Tree, lam: float) -> Tree:
        """Smallest subtree of `tree` minimizing train_error + lam * leaf_count.

        `tree` must be the tree this sequence was computed from.  Walks
        the sequence and keeps the last candidate whose objective is
        within tolerance of the minimum, which is the candidate with the
        fewest leaves (leaf counts strictly decrease along the path).
        """
        _check_lambda(lam)
        best_obj = self.initial_train_error + lam * self.initial_leaf_count
        best_prefix = 0
        for k, step in enumerate(self.steps, start=1):
            objective = step.train_error_after + lam * step.leaf_count_after
            scale = max(1.0, abs(best_obj))
            if objective <= best_obj + _OBJECTIVE_TOL * scale:
                best_obj = min(best_obj, objective)
                best_prefix = k
        collapsed = {s.collapsed_node_id for s in self.steps[:best_prefix]}
        return collapse(tree, collapsed)


def weakest_link_sequence(tree: Tree, dataset: Dataset) -> PruneSequence:
    """Successively collapse the internal node that costs least per leaf.

    Each step collapses the smallest node id among the live internal
    nodes whose alpha lies within _OBJECTIVE_TOL of the minimum, so ties
    on alpha collapse the smaller node id first.  A root-only tree
    yields an empty sequence.

    The per-node (leaf count, summed leaf SSE) is computed bottom-up
    once; a collapse then updates it only along the collapsed node's
    ancestor path, each ancestor summing its children's values in
    left + right order.
    """
    if dataset.n != tree.n:
        raise ValueError("dataset does not match the tree")
    nodes = tree.nodes
    parent: dict[int, int] = {}
    internal: list[int] = []
    order = [tree.root_id]  # preorder: every parent precedes its children
    for nid in order:
        node = nodes[nid]
        if not node.is_leaf:
            internal.append(nid)
            parent[node.left_child] = parent[node.right_child] = nid
            order.extend((node.left_child, node.right_child))
    internal.sort()
    slot = {nid: k for k, nid in enumerate(internal)}

    stats: dict[int, tuple[int, float]] = {}
    alpha = np.full(len(internal), np.inf)

    def refresh(nid: int) -> None:
        node = nodes[nid]
        lc, ls = stats[node.left_child]
        rc, rs = stats[node.right_child]
        stats[nid] = (lc + rc, ls + rs)
        alpha[slot[nid]] = (node.sse - (ls + rs)) / tree.n / (lc + rc - 1)

    for nid in reversed(order):
        if nodes[nid].is_leaf:
            stats[nid] = (1, nodes[nid].sse)
        else:
            refresh(nid)
    initial_leaves = stats[tree.root_id][0]
    error = sum(nodes[nid].sse for nid in tree.leaf_ids()) / tree.n
    initial_error = error
    steps: list[PruneStep] = []
    while internal:
        low = alpha.min()
        if not low < np.inf:  # every node collapsed, or a non-finite alpha
            break
        k = int(np.argmax(alpha <= low + _OBJECTIVE_TOL))
        best_nid = internal[k]
        best_alpha = float(alpha[k])
        node = nodes[best_nid]
        error += (node.sse - stats[best_nid][1]) / tree.n
        stats[best_nid] = (1, node.sse)
        dead = [best_nid]
        for nid in dead:
            alpha[slot[nid]] = np.inf
            for child in (nodes[nid].left_child, nodes[nid].right_child):
                if child in slot and alpha[slot[child]] < np.inf:
                    dead.append(child)
        nid = best_nid
        while nid in parent:
            nid = parent[nid]
            refresh(nid)
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


def select_subtree(tree: Tree, dataset: Dataset, lam: float) -> Tree:
    """Smallest subtree minimizing train_error + lam * leaf_count.

    Computes the weakest-link sequence of `tree`; to select for several
    penalties, compute the sequence once and call PruneSequence.select.
    """
    return weakest_link_sequence(tree, dataset).select(tree, lam)


def default_lambda_grid(dataset: Dataset, size: int = 20) -> list[float]:
    """Geometric grid spanning [1e-6, 1] times the response energy."""
    energy = float(np.mean(dataset.response**2))
    if energy == 0.0:
        energy = 1.0
    return [float(v) for v in energy * np.geomspace(1e-6, 1.0, size)]


def _holdout_fit(
    dataset: Dataset,
    strategy: SearchStrategy,
    max_depth: int,
    lambda_grid,
    holdout_fraction: float,
    seed: int,
    min_node_size: int,
) -> tuple[float, list[float], Tree, list[Tree]]:
    """holdout_lambda's (lambda, errors) plus the tree it trained on the
    non-holdout rows and the subtree it selected for each grid value."""
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    for lam in grid:
        _check_lambda(lam)
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    n_hold = int(round(holdout_fraction * dataset.n))
    n_hold = min(max(n_hold, 1), dataset.n - 1)
    hold_rows = np.sort(perm[:n_hold])
    train_rows = np.sort(perm[n_hold:])
    train_ds = subset(dataset, train_rows)
    full = grow(train_ds, strategy, max_depth, min_node_size)
    sequence = weakest_link_sequence(full, train_ds)
    X_hold = dataset.features[hold_rows]
    y_hold = dataset.response[hold_rows]
    errors = []
    best_lam = None
    best_err = None
    selected = [sequence.select(full, lam) for lam in grid]
    for lam, pruned in zip(grid, selected):
        err = float(np.mean((y_hold - predict_batch(pruned, X_hold)) ** 2))
        errors.append(err)
        if best_err is None:
            best_lam, best_err = lam, err
            continue
        tol = _OBJECTIVE_TOL * max(1.0, abs(best_err))
        if err < best_err - tol or (abs(err - best_err) <= tol and lam > best_lam):
            best_lam = lam
            best_err = min(best_err, err)
    return best_lam, errors, full, selected


def holdout_lambda(
    dataset: Dataset,
    strategy: SearchStrategy,
    max_depth: int,
    lambda_grid,
    holdout_fraction: float,
    seed: int,
    min_node_size: int = 1,
) -> tuple[float, list[float]]:
    """Pick the penalty by error on a held-out part of the sample.

    Grows on the remaining rows, computes that tree's weakest-link
    sequence once, evaluates each grid value's selected subtree on the
    holdout rows, and returns the lambda with the lowest holdout MSE
    (ties resolved toward the larger lambda) together with the
    per-lambda errors.
    """
    lam, errors, _, _ = _holdout_fit(
        dataset, strategy, max_depth, lambda_grid, holdout_fraction, seed, min_node_size
    )
    return lam, errors

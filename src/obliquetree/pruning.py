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
per step.  PruneSequence.prefix gives, for any lambda, how many steps
of that one sequence its subtree collapses, and PruneSequence.select
materializes that subtree.  Scoring the subtrees of a lambda grid
builds none of them: the points are routed once through the full tree,
and tree._prefix_scores walks the sequence once, scoring each grid
value's prefix as the walk reaches it (_grid_scores).  The holdout
choice of lambda scores the holdout rows so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import Dataset, _json_text, _seeded_words, subset
from .splitting import SearchStrategy
from .tree import Tree, _mse, _prefix_scores, collapse, grow, route, training_error

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
    return PenalizedObjective(lam=lam, value=training_error(tree, dataset) + lam * tree.leaf_count())


@dataclass(frozen=True)
class PruneSequence:
    """The weakest-link path from the full tree down to its root."""

    steps: tuple[PruneStep, ...]
    initial_leaf_count: int
    initial_train_error: float

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict, which deep-copies every float.
        return {**vars(self), "steps": [dict(vars(s)) for s in self.steps]}

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    def prefix(self, lam: float) -> int:
        """How many steps of the sequence the subtree for `lam` collapses.

        The number of the last step whose objective is within tolerance
        of the minimum over the candidates before it, which is the
        candidate with the fewest leaves (leaf counts strictly decrease
        along the path); 0 if there is none.
        """
        _check_lambda(lam)
        errors = [self.initial_train_error] + [s.train_error_after for s in self.steps]
        leaves = [self.initial_leaf_count] + [s.leaf_count_after for s in self.steps]
        objective = np.array(errors) + lam * np.array(leaves, dtype=np.float64)
        best = np.minimum.accumulate(objective)[:-1]
        kept = np.flatnonzero(objective[1:] <= best + _OBJECTIVE_TOL * np.maximum(1.0, np.abs(best)))
        return int(kept[-1]) + 1 if kept.size else 0

    def select(self, tree: Tree, lam: float) -> Tree:
        """Smallest subtree of `tree` minimizing train_error + lam * leaf_count.

        `tree` must be the tree this sequence was computed from; the
        subtree collapses the first prefix(lam) steps.
        """
        steps = self.steps[: self.prefix(lam)]
        return collapse(tree, {s.collapsed_node_id for s in steps})


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


def _grid_scores(full: Tree, sequence: PruneSequence, grid, reached: dict, score) -> list:
    """score of the predictions of sequence.select(full, lam) for each lam
    in grid, from one routing reached = route(full, X) (tree._prefix_scores)."""
    collapsed = [step.collapsed_node_id for step in sequence.steps]
    return _prefix_scores(full, reached, collapsed, [sequence.prefix(lam) for lam in grid], score)


def _holdout_fit(
    dataset: Dataset,
    strategy: SearchStrategy,
    max_depth: int,
    lambda_grid,
    holdout_fraction: float,
    seed: int,
    min_node_size: int,
) -> tuple[float, list[float], Tree, PruneSequence]:
    """holdout_lambda's (lambda, errors) plus the tree it trained on the
    non-holdout rows and that tree's weakest-link sequence."""
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    for lam in grid:
        _check_lambda(lam)
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie in (0, 1)")
    if dataset.n < 2:
        raise ValueError(f"holdout needs at least 2 rows, got {dataset.n}")
    perm = np.argsort(_seeded_words(seed, dataset.n)[0], kind="stable")
    n_hold = int(round(holdout_fraction * dataset.n))
    n_hold = min(max(n_hold, 1), dataset.n - 1)
    hold_rows = np.sort(perm[:n_hold])
    train_rows = np.sort(perm[n_hold:])
    train_ds = subset(dataset, train_rows)
    full = grow(train_ds, strategy, max_depth, min_node_size)
    sequence = weakest_link_sequence(full, train_ds)
    reached = route(full, dataset.features[hold_rows])
    errors = _grid_scores(full, sequence, grid, reached, partial(_mse, dataset.response[hold_rows]))
    best_lam, best_err = grid[0], errors[0]
    for lam, err in zip(grid[1:], errors[1:]):
        tol = _OBJECTIVE_TOL * max(1.0, abs(best_err))
        if err < best_err - tol or (abs(err - best_err) <= tol and lam > best_lam):
            best_lam = lam
            best_err = min(best_err, err)
    return best_lam, errors, full, sequence


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
    sequence once, routes the holdout rows once through that tree, and
    scores every grid value's selected subtree from the one routing (no
    subtree is built).  Returns the lambda with the lowest holdout MSE
    (ties resolved toward the larger lambda) together with the
    per-lambda errors.

    The held-out rows are the round(holdout_fraction * n) rows (at least
    1, at most n - 1) whose words of the seed's raw stream
    (dataset._seeded_words) come first in a stable sort.
    """
    lam, errors, _, _ = _holdout_fit(
        dataset, strategy, max_depth, lambda_grid, holdout_fraction, seed, min_node_size
    )
    return lam, errors

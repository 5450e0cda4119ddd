"""Split search: SSE decrease, threshold sweeps, and direction strategies.

The quality of a candidate split is the decrease in sum-of-squares error
it buys, normalized by the full sample size n:

    decrease = (SSE(node) - SSE(left) - SSE(right)) / n
             = (n_L * n_R / n(node)) * (mean_L - mean_R)^2 / n

Four search strategies are provided: axis-aligned scan, exhaustive
oblique enumeration (exact on small nodes), OC1 hill climbing, and
sparse random projections.  All are pure functions of (dataset, node,
strategy) and deterministic given the strategy seed.  sparsity_d caps
the support of every split they return, so at sparsity_d=1 each one
searches only the axes and reaches the axis scan's decrease.

Each search returns a function of its candidate set, not of the order
in which candidates are generated, swept or deduplicated.  Among the
candidate splits whose decrease is at least the largest minus
DECREASE_TOL, the winner is the one with the smallest _tie_key: smaller
support, then lexicographically smaller canonical direction, then
smaller threshold.  search_axis_aligned applies the same set rule with
the lowest coordinate index as its key.  Every threshold sweep runs on
the node's responses centred on the node mean, so a constant offset in
the response cannot cancel the gains.

Decreases are exact; sweep gains only screen.  A threshold sweep scores
every boundary of a direction with prefix sums (_sweep_gains), and each
direction's split sits at the first boundary within DECREASE_TOL of its
largest sweep gain, top_j.  The decrease a split carries is always the
exact one, (_sse(node) - _sse(left) - _sse(right)) / n by the two-pass
formula on the raw responses (_split_decrease), and the winner rule
reads only those.  It is computed only for the contenders: the
directions with

    top_j >= G - 2 DECREASE_TOL - 2 B,      G = max_j top_j,

where B bounds |sweep gain - exact decrease| for every dichotomy of the
node (below).  Every near-best split passes: the direction attaining G
has a split with sweep gain >= G - DECREASE_TOL, so the largest exact
decrease E is >= G - DECREASE_TOL - B, and a split with exact decrease
>= E - DECREASE_TOL has top_j >= its sweep gain >= E - DECREASE_TOL - B
>= G - 2 DECREASE_TOL - 2 B.  The second DECREASE_TOL is the cost of
taking the first boundary within DECREASE_TOL of top_j rather than the
largest.  So the near-best set, and the winner, are those of re-solving
every direction exactly.

One function, _best_thresholds, sweeps and screens for every search (the
axis scan, random projection, the exhaustive oracle, each hill-climb
re-solve and best_threshold), each direction once.  It takes a list of
problems, each a node with its own direction rows, so tree.grow hands it
a whole frontier level at once (_search_level), and a search on one node
is a level of one.  Problems of few projections share padded blocks; a
larger one sweeps in blocks of its own (_blocks).  Padding follows each
node's rows, +inf values with 0.0 centred responses, so every prefix
sum, total and gain of a node keeps its bits, and no boundary next to
the padding is valid.  Each problem has its own floor, which only rises
from block to block: the best top_j so far minus the margin 2
DECREASE_TOL + 2 B (_margin) of its node.  A direction keeps its split
only if top_j reaches its problem's floor in its own block.  The last
floor is the screen's and no block's floor exceeds it, so every
contender was kept; the kept directions below it get no exact decrease.

The bound B.  Let u = 2^-53, gamma_k = k u / (1 - k u) (Higham), and,
for a node of m rows with m u < 0.01, M = max |y|, c the computed mean,
z = fl(y - c) the centred responses, A = sum |z| and R = max |z| (the
node's sum and largest size of |y - mean|, as computed).  Write w = y - c
exactly; A' = sum |w| and R' = max |w| exceed A and R by at most 2 %.

1. For any constant c, n * decrease = S_L^2 / n_L + S_R^2 / n_R - S^2 / m,
   where S_L, S_R and S = S_L + S_R sum w over the left side, the right
   side and the node.  The sweep evaluates this on z.
2. Sweep.  np.cumsum adds in sequence, so each prefix sum of z, the
   total included, is within eta = gamma_m A' of the exact sum of w
   (centring costs u |w_i| per row); the right sum, total minus left,
   is within 3 eta.  A side's |S_k| <= n_k R', so its term S_k^2 / n_k
   moves by at most 2 R' Delta + Delta^2: 10 R' eta + 11 eta^2 for the
   three terms.  By Cauchy-Schwarz each term is <= sum_k w^2 <= R' A'
   (S^2 / m too), and the formula's five roundings cost gamma_5 of
   their sum.  So n |gain - decrease| <= 11 (m + 2) u R A + 13 (m u A)^2.
3. Exact decrease.  With e_S = gamma_k M bounding the error of a side's
   computed mean (k rows, raw responses), the two-pass _sse of the
   node is within gamma_(m+2) sum w^2 + m e^2 of SSE(node), and those
   of the two sides within gamma_(m+2) (sum w^2 + m e^2) + m e^2 of
   SSE(left) + SSE(right), as a side's SSE is <= sum over it of w^2.
   The two subtractions and the division add 3.1 u sum w^2.  So n |exact
   - decrease| <= 2.2 (m + 4) u R A + 2.2 m (m u M)^2.

Adding 2 and 3 and doubling, which also covers the rounding of B and of
the screen's own comparisons,

    B = 2 (14 (m + 4) u R A + 13 (m u A)^2 + 3 m (m u M)^2) / n.

R <= 2 M, but R keeps B small when the responses carry a large common
offset: at m = 1000, offset 1e9 and unit spread, B is about 7e-8, which
the third term sets.  With no offset and unit spread, B is about 1e-11
at m = 1000 and 2e-10 at the root of 20,000 rows, far below the gaps
between the gains of distinct dichotomies, so one direction is usually
the only contender.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

# project is not called here; the benchmark's tracer and its tests still
# look for it in this module's namespace.
from .dataset import (
    _COEFF_SNAP,
    _SAFE_NORMS,
    Dataset,
    Direction,
    _check_keys,
    _named,
    _snap,
    project,
    projections,
    validate_index_set,
)

# Two decreases within this absolute tolerance are treated as tied, and
# the tie key decides, so argmax results do not flip with platform
# rounding.
DECREASE_TOL = 1e-12

STRATEGY_KINDS = ("axis_aligned", "hill_climb", "random_projection", "exhaustive_oblique")

# The unit roundoff of float64, u in the module docstring's bound B.
_UNIT_ROUNDOFF = 2.0**-53

# A block of a sweep holds at most _BLOCK_ELEMENTS projections
# (directions x node rows, 1 MB per float64 array) and _BLOCK_DIRECTIONS
# directions: 6 directions at a node of 20,000 rows, where a block that
# stays in cache sorts and sweeps faster, and 4,096 at the exhaustive
# oracle's nodes of 32 rows or fewer, where larger blocks were slower.
_BLOCK_ELEMENTS = 2**17
_BLOCK_DIRECTIONS = 4096

# A search problem (a node and its direction rows) of at most
# _PACK_ELEMENTS projections shares a padded block with others (_blocks),
# if its node has at least _PACK_FILL times as many rows as the block's
# widest node; a larger problem sweeps in blocks of its own.  Below a few
# thousand projections a node's fixed cost outweighs its sweep; 2^13 and
# 1/2 (padding under half of any row) were the fastest of the cuts
# 2^11, 2^13, 2^15 and fills 0 to 0.8 on depth-5 to depth-9 axis trees
# of 600 to 20,000 rows.
_PACK_ELEMENTS = 2**13
_PACK_FILL = 0.5

# The exhaustive search rescales a support's points by a power of two
# when the binary exponent of their peak magnitude lies outside
# [-_EXPONENT_BAND, _EXPONENT_BAND] (_rescaled).
_EXPONENT_BAND = 200

_SIGNS = np.array([-1.0, 1.0])


class NoValidSplitError(ValueError):
    """No threshold separates the node into two non-empty children."""


@dataclass(frozen=True)
class Split:
    """A chosen hyperplane split: direction, threshold, and its decrease.

    left, on a split that search found, marks the node's rows (in index
    order) that go left; grow routes the node with it.  It is not part
    of the split's value: equality and to_dict ignore it, and a split
    read back from a dict has None.
    """

    direction: Direction
    threshold: float
    decrease: float
    left_count: int
    right_count: int
    left: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "direction": list(self.direction.coefficients),
            "threshold": self.threshold,
            "decrease": self.decrease,
            "left_count": self.left_count,
            "right_count": self.right_count,
        }

    @staticmethod
    def from_dict(data: dict) -> "Split":
        return Split(
            direction=_named(
                "direction", lambda v: Direction(tuple(float(c) for c in v)), data["direction"]
            ),
            threshold=_named("threshold", float, data["threshold"]),
            decrease=_named("decrease", float, data["decrease"]),
            left_count=_named("left_count", int, data["left_count"]),
            right_count=_named("right_count", int, data["right_count"]),
        )


@dataclass(frozen=True)
class SearchStrategy:
    """Configuration of one candidate-direction strategy.

    sparsity_d caps the number of nonzero direction coefficients for
    every kind (sparsity_d=1 reduces each one to the axis scan),
    num_candidates is the random-projection draw count, restarts and
    max_iterations budget the hill climb, and node_cap bounds the node
    size the exhaustive search will accept.
    """

    kind: str
    sparsity_d: int = 1
    num_candidates: int = 100
    restarts: int = 1
    max_iterations: int = 20
    seed: int = 0
    node_cap: int = 64

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        for f in fields(self)[1:]:  # every field after kind is an integer
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"strategy {f.name} must be an integer, got {value!r}")
        if self.sparsity_d < 1:
            raise ValueError("sparsity_d must be >= 1")
        if self.num_candidates < 0:
            raise ValueError("num_candidates must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "SearchStrategy":
        if not isinstance(data, dict):
            raise ValueError(f"strategy must be a JSON object, got {data!r}")
        _check_keys("strategy", data, (f.name for f in fields(SearchStrategy)))
        if "kind" not in data:
            raise ValueError("strategy has no 'kind'")
        return SearchStrategy(**data)


@dataclass(frozen=True)
class SuboptimalityReport:
    """Empirical success profile of a strategy against the exact oracle."""

    kappa: float
    trials: int
    success_fraction: float
    oracle_decrease: float
    per_trial_decreases: tuple[float, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "trials": self.trials,
            "success_fraction": self.success_fraction,
            "oracle_decrease": self.oracle_decrease,
            "per_trial_decreases": list(self.per_trial_decreases),
        }


def _sse(y: np.ndarray) -> float:
    """Sum of squared deviations of y from its mean, with the bits of
    dataset.node_stats (np.add.reduce is np.sum and y.mean() without
    their Python wrappers)."""
    centred = y - np.add.reduce(y) / y.size
    return float(np.add.reduce(centred * centred))


def _split_decrease(y: np.ndarray, left: np.ndarray, n_full: int, sse_node: float) -> float:
    """(SSE(node) - SSE(left) - SSE(right)) / n_full for a boolean left mask over y.

    sse_node is _sse(y), passed in so a node's many left sets share it.
    """
    return (sse_node - _sse(y[left]) - _sse(y[~left])) / n_full


def sse_decrease(dataset: Dataset, node, direction: Direction, threshold: float) -> float:
    """SSE decrease of splitting `node` at direction/threshold.

    Routing convention: projection <= threshold goes left, > goes right.
    Raises NoValidSplitError if either side would be empty.
    """
    idx = validate_index_set(node, dataset.n)
    (values,) = projections(dataset.features, np.array([direction.coefficients]), idx)
    left = values <= threshold
    n_left = int(np.count_nonzero(left))
    if n_left == 0 or n_left == idx.size:
        raise NoValidSplitError("split leaves an empty side")
    y = dataset.response[idx]
    return _split_decrease(y, left, dataset.n, _sse(y))


def _stable_order(V: np.ndarray, m=None):
    """Stable argsort of each row of a k x M block, and the sorted rows.

    Returns (order, sorted_V) equal to np.argsort(V, axis=1,
    kind="stable") and V gathered by that order, bit for bit, on every
    platform.  numpy's default argsort is a SIMD quicksort, several
    times faster than the stable timsort, but it leaves equal values in
    an unspecified order.  Runs of equal neighbours (two NaNs count as
    equal) are then re-sorted by column index, which gives the stable
    order; continuous data rarely has any.

    With m, a (k, 1) array of row lengths, each row's columns from m on
    are padding, +inf, and their order among themselves is left as the
    quicksort leaves it: only ties within a row's first m sorted values
    are repaired, or within the whole row if one of its own values is
    +inf.  Every value of the row still comes before its padding.
    """
    order = np.argsort(V, axis=1)
    s = np.take_along_axis(V, order, axis=1)
    k, M = s.shape
    if M < 2:
        return order, s
    tied = s[:, 1:] == s[:, :-1]
    # NaNs sort last, so only rows ending in NaN can hold two of them.
    nan_rows = np.flatnonzero(np.isnan(s[:, -1]))
    if nan_rows.size:
        nan = np.isnan(s[nan_rows])
        tied[nan_rows] |= nan[:, 1:] & nan[:, :-1]
    if m is not None:
        last = np.take_along_axis(s, m - 1, axis=1)
        tied &= np.arange(1, M) < np.where(last == np.inf, M, m)
    if not tied.any():
        return order, s
    # Flat positions covered by runs, numbered run by run across the
    # block.  The key (run number, column) is unique, so any sort of it
    # gives the stable order; it stays below k * M**2.
    in_run = np.zeros((k, M), dtype=bool)
    in_run[:, 1:] = tied
    in_run[:, :-1] |= tied
    pos = np.flatnonzero(in_run)
    starts = np.ones((k, M), dtype=bool)
    starts[:, 1:] = ~tied
    run_base = np.cumsum(starts.ravel()[pos]) * M
    cols = np.sort(run_base + np.take(order, pos)) - run_base
    np.put(order, pos, cols)
    # Equal values can still differ in bits (-0.0 and +0.0, NaN payloads).
    np.put(s, pos, np.take(V, pos - pos % M + cols))
    return order, s


def _gains(sum_left, n_left, total, m, n_full: int):
    """SSE decrease / n_full of left sets of n_left rows whose centred
    responses sum to sum_left, on a node of m rows summing to total."""
    return (
        sum_left**2 / n_left + (total - sum_left) ** 2 / (m - n_left) - total**2 / m
    ) / n_full


def _sweep_gains(values: np.ndarray, y: np.ndarray, m, n_full: int):
    """Prefix-sum sweep over sorted projections, one direction per row.

    values is (k, M), each row sorted ascending, and y holds the centred
    responses of the row's node in the same order.  m is the node size:
    an int, or a (k, 1) array for rows of nodes of several sizes.  A row
    longer than its node is padded after the node's rows, with +inf
    values and 0.0 responses: the prefix sums over the node's rows are
    untouched, the total only gains zeros, so every gain of the node
    keeps its bits, and no boundary next to the padding is valid.
    Returns (gains, thresholds, valid) over the M-1 boundaries; a
    boundary is valid only when its midpoint lies strictly between two
    distinct consecutive values.
    """
    csum = np.cumsum(y, axis=1)
    n_left = np.arange(1, values.shape[1], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # boundaries in the padding
        gains = _gains(csum[:, :-1], n_left, csum[:, -1:], m, n_full)
    thresholds = 0.5 * (values[:, :-1] + values[:, 1:])
    valid = (values[:, :-1] < thresholds) & (thresholds < values[:, 1:])
    return gains, thresholds, valid


def _margin(y: np.ndarray, centred: np.ndarray, n_full: int) -> float:
    """2 DECREASE_TOL + 2 B, the screen's margin below the best sweep gain
    (module docstring), on the node whose responses are y (centred = y
    minus their computed mean)."""
    m = y.size
    mu = m * _UNIT_ROUNDOFF
    spread = np.abs(centred)
    a = float(np.add.reduce(spread))
    r = float(np.maximum.reduce(spread))
    big = float(np.maximum.reduce(np.abs(y)))  # M
    sweep_and_sse = 14.0 * (m + 4) * _UNIT_ROUNDOFF * r * a
    bound = 2.0 * (sweep_and_sse + 13.0 * (mu * a) ** 2 + 3.0 * m * (mu * big) ** 2) / n_full
    return 2.0 * DECREASE_TOL + 2.0 * bound


class _Node:
    """A node's sample as split search reads it.

    rows indexes the node's rows, in increasing order, of the feature
    matrix it is searched with; y holds their responses, centred holds y
    minus the node mean, and sse is _sse(y).  grow stores mean and sse as the tree node's statistics and
    hands the same record to the next level's search, so each node's are
    computed once.
    """

    __slots__ = ("rows", "y", "mean", "centred", "sse", "_margin", "_features")

    def __init__(self, y: np.ndarray, rows: np.ndarray):
        self.rows = rows
        self.y = y
        self.mean = float(np.add.reduce(y) / y.size)  # _sse's mean and sum
        self.centred = y - self.mean
        self.sse = float(np.add.reduce(self.centred * self.centred))
        self._margin = self._features = None

    @staticmethod
    def of(dataset: Dataset, node) -> "_Node":
        idx = validate_index_set(node, dataset.n)
        return _Node(dataset.response[idx], idx)

    def features(self, X: np.ndarray) -> np.ndarray:
        """The node's rows of X, as a Fortran-ordered copy made once."""
        if self._features is None:
            self._features = np.asfortranarray(X[self.rows])
        return self._features

    def margin(self, n_full: int) -> float:
        if self._margin is None:
            self._margin = _margin(self.y, self.centred, n_full)
        return self._margin


def _blocks(problems) -> list:
    """The sweep's blocks, as lists of (problem, first row, end row).

    A problem of at most _PACK_ELEMENTS projections (direction rows x
    node rows) goes whole into a block shared with others, widest node
    first, while the block stays within _BLOCK_ELEMENTS projections and
    _BLOCK_DIRECTIONS rows and the node fills at least _PACK_FILL of the
    block's width.  A larger one is cut into blocks of its own.
    """
    blocks, small = [], []
    for q, (node, W) in enumerate(problems):
        m, k = node.y.size, W.shape[0]
        if m < 2 or k == 0:
            continue
        if k * m <= _PACK_ELEMENTS and k <= _BLOCK_DIRECTIONS:
            small.append((m, k, q))
            continue
        step = max(1, min(_BLOCK_DIRECTIONS, _BLOCK_ELEMENTS // m))
        blocks.extend([(q, lo, min(lo + step, k))] for lo in range(0, k, step))
    small.sort(key=lambda problem: -problem[0])
    block, rows, width = [], 0, 0
    for m, k, q in small:
        if block and (
            (rows + k) * width > _BLOCK_ELEMENTS
            or rows + k > _BLOCK_DIRECTIONS
            or m < _PACK_FILL * width
        ):
            blocks.append(block)
            block = []
        if not block:
            rows, width = 0, m
        block.append((q, 0, k))
        rows += k
    if block:
        blocks.append(block)
    return blocks


def _best_thresholds(X: np.ndarray, problems, n_full: int) -> list:
    """The exact near-best splits of each (node, W) problem.

    A problem pairs a _Node of X's rows with a matrix W of direction
    rows.  A row of W becomes its split's direction as it is, so callers
    pass fixpoints of Direction.canonical, as _canonical_rows gives.
    The rows of every problem are swept in the blocks of _blocks: each
    block is projected (one dataset.projections call), sorted by value,
    then by index (one _stable_order call), swept (_sweep_gains, one
    cumsum along the rows) and screened under each problem's rising
    floor (module docstring).  A kept row's split sits at its first
    boundary within DECREASE_TOL of its best gain, with its left set read
    off the block's projections, and each problem's contenders get exact
    decreases once per distinct left set.  Returns, for each problem, the
    splits within DECREASE_TOL of its largest exact decrease, in row
    order, as solving every row exactly would; empty when no row has a
    valid split.  Each split carries its left set as a mask (Split.left).
    """
    floor = np.full(len(problems), -np.inf)
    kept = []
    for block in _blocks(problems):
        qs = [q for q, _, _ in block]
        nodes = [problems[q][0] for q in qs]
        counts = [hi - lo for _, lo, hi in block]
        which = np.repeat(np.arange(len(block)), counts)
        W = np.concatenate([problems[q][1][lo:hi] for q, lo, hi in block])
        if len(block) == 1:
            m = nodes[0].y.size
            V = projections(nodes[0].features(X), W)
            order, sorted_V = _stable_order(V)
            y = nodes[0].centred[order]
        else:
            sizes = np.array([node.y.size for node in nodes])
            index = np.zeros((len(nodes), sizes[0]), dtype=np.intp)
            centred = np.zeros((len(nodes), sizes[0]))
            for i, node in enumerate(nodes):
                index[i, : sizes[i]] = node.rows
                centred[i, : sizes[i]] = node.centred
            m = sizes[which][:, None]
            V = projections(X, W, index[which])
            V[np.arange(sizes[0]) >= m] = np.inf
            order, sorted_V = _stable_order(V, m)
            y = centred[which[:, None], order]
        gains, thresholds, valid = _sweep_gains(sorted_V, y, m, n_full)
        gains = np.where(valid, gains, -np.inf)
        top = gains.max(axis=1)
        starts = np.cumsum([0] + counts[:-1])
        margins = np.array([node.margin(n_full) for node in nodes])
        floor[qs] = np.maximum(floor[qs], np.maximum.reduceat(top, starts) - margins)
        row_floor = floor[qs][which]
        rows = np.flatnonzero((top >= row_floor) & (row_floor > -np.inf))
        top = top[rows]
        # First boundary within tolerance of the max = smallest threshold.
        boundaries = (gains[rows] >= top[:, None] - DECREASE_TOL).argmax(axis=1)
        cuts = thresholds[rows, boundaries]
        offsets = np.concatenate([np.arange(lo, hi) for _, lo, hi in block])
        kept.append(
            (np.array(qs)[which[rows]], offsets[rows], top, boundaries, cuts, V[rows] <= cuts[:, None])
        )
    decreases: dict[tuple, float] = {}
    splits = [[] for _ in problems]
    for owners, offsets, top, boundaries, cuts, lefts in kept:
        for i in np.flatnonzero(top >= floor[owners]).tolist():
            q, b = int(owners[i]), int(boundaries[i])
            node, W = problems[q]
            m = node.y.size
            left = lefts[i, :m]
            key = (q, left.tobytes())
            if key not in decreases:
                decreases[key] = _split_decrease(node.y, left, n_full, node.sse)
            splits[q].append(
                Split(
                    direction=Direction(tuple(W[offsets[i]].tolist())),
                    threshold=float(cuts[i]),
                    decrease=decreases[key],
                    left_count=b + 1,
                    right_count=m - b - 1,
                    left=left,
                )
            )
    return [_near_best(found) for found in splits]


def best_threshold(dataset: Dataset, node, direction: Direction) -> Split:
    """Best midpoint threshold along a fixed direction.

    Evaluates every midpoint between consecutive distinct projections in
    one left-to-right prefix-sum sweep and returns the maximizer; ties
    are broken toward the smallest threshold.  The stored decrease is
    re-evaluated from the left set, as sse_decrease does, so it matches
    exactly.
    """
    sample = _Node.of(dataset, node)
    if len(direction.coefficients) != dataset.p:
        raise ValueError(
            f"direction has {len(direction.coefficients)} coefficients, p={dataset.p}"
        )
    (near,) = _best_thresholds(dataset.features, [(sample, direction.as_array()[None])], dataset.n)
    if not near:
        raise NoValidSplitError("no valid split: projections not separable")
    return near[0]


def _tie_key(split: Split):
    return (
        split.direction.support_size,
        split.direction.coefficients,
        split.threshold,
    )


def _near_best(splits) -> list:
    """The splits (Nones dropped) within DECREASE_TOL of the largest
    decrease, in their given order."""
    splits = [s for s in splits if s is not None]
    top = max((s.decrease for s in splits), default=-np.inf)
    return [s for s in splits if s.decrease >= top - DECREASE_TOL]


def _winner(splits):
    """The winner rule of the module docstring: the near-best split with
    the smallest _tie_key, or None."""
    return min(_near_best(splits), key=_tie_key, default=None)


def _canonical_rows(matrix: np.ndarray) -> np.ndarray:
    """Canonicalize direction rows in bulk; drop zero rows and duplicates.

    Each row is snapped as Direction.canonical snaps it, divided by its
    norm, snapped again against its new peak and given a positive
    leading coefficient.  Its norm is computed row-wise and its division
    is never skipped, so it may differ from Direction.canonical of the
    row in the last bits; a row for which that could decide whether a
    coefficient is snapped (one within a relative 1e-9 of the snap
    border), and a row whose norm falls outside _SAFE_NORMS, goes
    through Direction.canonical itself.  So every row that comes out is a
    bit-exact fixpoint of Direction.canonical, with the same zeros and
    signs as Direction.canonical of the row that went in.  The rows
    come out in an arbitrary order, which split search does not depend
    on.  Zeros are written as +0.0, so the copies of a duplicated row
    are bit-identical and it does not matter which one is kept.
    """
    raw = np.asarray(matrix, dtype=np.float64)
    raw = raw[np.any(raw != 0.0, axis=1)]
    size = np.abs(raw)
    border = _COEFF_SNAP * size.max(axis=1, keepdims=True)
    arr = np.where(size <= border, 0.0, raw)
    with np.errstate(all="ignore"):
        norms = np.linalg.norm(arr, axis=1, keepdims=True)
        arr = _snap(arr / norms)
    odd = (norms[:, 0] <= _SAFE_NORMS[0]) | (norms[:, 0] >= _SAFE_NORMS[1])
    odd |= np.any(np.abs(size - border) <= 1e-9 * border, axis=1)
    for i in np.flatnonzero(odd):
        arr[i] = Direction.canonical(raw[i]).coefficients
    first_nz = np.argmax(arr != 0.0, axis=1)
    signs = np.sign(arr[np.arange(arr.shape[0]), first_nz])
    arr = arr * signs[:, None] + 0.0  # -0.0 + 0.0 is +0.0
    # Sorting a hash of each row's bits makes equal rows neighbours; a
    # hash collision can only leave a duplicate in, never drop a row.
    # The multiplier is odd (2**64 over the golden ratio).
    digest = np.zeros(arr.shape[0], dtype=np.uint64)
    for column in arr.view(np.uint64).T:
        digest = (digest ^ column) * np.uint64(0x9E3779B97F4A7C15)
        digest ^= digest >> np.uint64(32)
    arr = arr[np.argsort(digest)]
    fresh = np.ones(arr.shape[0], dtype=bool)
    fresh[1:] = np.any(arr[1:] != arr[:-1], axis=1)
    return arr[fresh]


def _candidate_directions(points: np.ndarray, support, p: int, size: int) -> np.ndarray:
    """Directions (embedded in R^p) spanned by node points on one support.

    size 1: the axis itself.  size 2: perpendiculars of all point-pair
    differences in the 2-D restriction.  size 3: normals of all 3-point
    subsets plus cross products of disjoint pair differences; the latter
    cover optimal hyperplanes whose margin touches two points on each
    side without passing through three points.
    """
    if size == 1:
        local = np.ones((1, 1))
    elif size == 2:
        diffs = points[:, None, :] - points[None, :, :]
        iu = np.triu_indices(points.shape[0], k=1)
        d = diffs[iu]
        d = d[np.any(d != 0.0, axis=1)]
        local = np.stack([-d[:, 1], d[:, 0]], axis=1) if d.shape[0] else np.zeros((0, 2))
    elif size == 3:
        iu = np.triu_indices(points.shape[0], k=1)
        diffs = points[iu[0]] - points[iu[1]]
        diffs = diffs[np.any(diffs != 0.0, axis=1)]
        if diffs.shape[0] >= 2:
            a, b = np.triu_indices(diffs.shape[0], k=1)
            # Crosses of overlapping pairs are the 3-point-subset normals;
            # crosses of disjoint pairs cover two-points-per-side margins.
            local = np.cross(diffs[a], diffs[b])
        else:
            local = np.zeros((0, 3))
    else:
        raise ValueError("exhaustive search supports sparsity up to 3")
    out = np.zeros((local.shape[0], p))
    out[:, list(support)] = local
    return out


def _rescaled(points: np.ndarray) -> np.ndarray:
    """points times 2^-e, e the binary exponent of their peak magnitude,
    or points itself when |e| <= _EXPONENT_BAND.

    A power of two scales exactly, and canonical directions do not see a
    common scale, so this changes no candidate direction of points whose
    scale stays within the band; beyond it, the cross products of
    _candidate_directions would overflow or underflow.
    """
    _, exponent = np.frexp(np.max(np.abs(points)))
    if abs(int(exponent)) <= _EXPONENT_BAND:
        return points
    return np.ldexp(points, -int(exponent))


def _oblique_candidates(points: np.ndarray, d: int) -> np.ndarray:
    """The exhaustive search's canonical candidate rows on a node's
    points (its m x p features), for every support of size <= d."""
    p = points.shape[1]
    blocks = []
    for size in range(1, d + 1):
        for support in itertools.combinations(range(p), size):
            pts = _rescaled(points[:, list(support)])
            blocks.append(_candidate_directions(pts, support, p, size))
    return _canonical_rows(np.concatenate(blocks, axis=0))


def _random_sparse_directions(seed: int, p: int, sparsity_d: int, count: int) -> np.ndarray:
    """count random sparse unit directions from np.random.default_rng(seed).

    Candidate by candidate, they are the directions of this loop, bit for
    bit:

        support = rng.choice(p, size=sparsity_d, replace=False)
        out[i, support] = (-1.0, 1.0)[rng.integers(0, 2, size=sparsity_d)]

    scaled by 1 / sqrt(sparsity_d).  The draws are made in bulk.  numpy's
    choice without replacement runs Floyd's algorithm (for j = p - d, ...,
    p - 1, a draw from [0, j], or j itself when the draw repeats an
    earlier pick), then shuffles the d picks (for i = d - 1, ..., 1, a
    draw from [0, i] is swapped with i); integers(0, 2) is a draw from
    [0, 1].  A draw from [0, r] is Lemire's: the high 32 bits of u (r + 1)
    for the generator's next 32-bit output u, the low then the high half
    of a 64-bit output; it is redrawn while the low 32 bits fall below
    (2^32 - 1 - r) mod (r + 1), and skipped when r = 0.  Without a redraw,
    every candidate takes the same number of outputs.  A redraw has a
    chance below 2^-28 per draw; if one occurs, the loop above runs
    instead.  numpy does not promise this stream across versions, and a
    test pins the bulk draw to the loop.
    """
    d = sparsity_d
    out = np.zeros((count, p))
    if count == 0:
        return out
    rng = np.random.default_rng(seed)
    floyd = [j for j in range(p - d, p) if j > 0]
    r = np.array(floyd + list(range(d - 1, 0, -1)) + [1] * d, dtype=np.uint64)
    words = rng.bit_generator.random_raw((count * r.size + 1) // 2)
    halves = np.stack([words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)], axis=1)
    scaled = halves.reshape(-1)[: count * r.size].reshape(count, r.size) * (r + np.uint64(1))
    redrawn = (scaled & np.uint64(0xFFFFFFFF)) < (np.uint64(0xFFFFFFFF) - r) % (r + np.uint64(1))
    if redrawn.any():
        rng = np.random.default_rng(seed)
        for i in range(count):
            support = rng.choice(p, size=d, replace=False)
            out[i, support] = _SIGNS[rng.integers(0, 2, size=d)]
        return out / np.sqrt(d)
    draws = (scaled >> np.uint64(32)).astype(np.intp)
    picks = np.zeros((count, d), dtype=np.intp)  # j = 0 takes 0 without a draw
    for t, column in zip(range(d - len(floyd), d), draws.T):
        j = p - d + t
        picks[:, t] = np.where((picks[:, :t] == column[:, None]).any(axis=1), j, column)
    rows = np.arange(count)
    for i, column in zip(range(d - 1, 0, -1), draws[:, len(floyd) :].T):
        held = picks[rows, column]
        picks[rows, column] = picks[:, i]
        picks[:, i] = held
    out[rows[:, None], picks] = _SIGNS[draws[:, -d:]]
    return out / np.sqrt(d)


def _coefficient_move(X: np.ndarray, centred: np.ndarray, w: np.ndarray, j: int,
                      threshold: float, n_full: int):
    """OC1's exact move of coefficient j (Murthy, Kasif & Salzberg, 1994).

    w has w[j] = 0.  With w and the threshold held, row i goes left while
    w . x_i + c x_ij <= threshold, so it changes side at U_i = (threshold
    - w . x_i) / x_ij: leaving the left child as c rises if x_ij > 0,
    joining it if x_ij < 0.  One sort of U and one prefix sweep of signed
    increments score each c at a midpoint of consecutive distinct U, and
    past either end by half the spread of U (or |U|, or 1, if all U are
    equal).  centred is the node's responses minus their mean.  Returns
    (c, gain) for the smallest c within DECREASE_TOL of the best gain, or
    None if no c leaves both sides non-empty.
    """
    (rest,) = projections(X, w[None, :])
    x = X[:, j]
    moving = x != 0.0
    if not moving.any():
        return None
    (order,), (U,) = _stable_order(((threshold - rest[moving]) / x[moving])[None, :])
    pad = (U[-1] - U[0]) or abs(U[0]) or 1.0
    ends = np.concatenate(([U[0] - pad], U, [U[-1] + pad]))
    step = np.where(x[moving] > 0.0, -1.0, 1.0)[order]
    left = np.where(moving, x > 0.0, rest <= threshold)  # c below every U_i
    sum_left = np.cumsum(np.concatenate(([centred[left].sum()], step * centred[moving][order])))
    n_left = np.cumsum(np.concatenate(([float(np.count_nonzero(left))], step)))
    mids = 0.5 * (ends[:-1] + ends[1:])
    valid = (ends[:-1] < mids) & (mids < ends[1:]) & (n_left > 0.0) & (n_left < x.size)
    if not valid.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = _gains(sum_left, n_left, centred.sum(), x.size, n_full)
    gains = np.where(valid, gains, -np.inf)
    best = int(np.argmax(gains >= np.max(gains) - DECREASE_TOL))
    return float(mids[best]), float(gains[best])


def _climb(X: np.ndarray, node: _Node, base: Split, strategy: SearchStrategy,
           seed: int, n_full: int) -> Split:
    """search_hill_climb on one node, from its axis split base."""
    if strategy.max_iterations == 0:
        return base
    p = X.shape[1]
    d = min(strategy.sparsity_d, p)
    rows = _random_sparse_directions(seed, p, d, strategy.restarts - 1)
    local = node.features(X)
    ends = [base]
    for start in [base.direction] + [Direction.canonical(row) for row in rows]:
        (near,) = _best_thresholds(X, [(node, start.as_array()[None])], n_full)
        if not near:
            continue
        current = near[0]
        for _ in range(strategy.max_iterations):
            before = current
            for j in range(p):
                w = current.direction.as_array().copy()
                if w[j] == 0.0 and current.direction.support_size >= d:
                    w[np.argmin(np.where(w == 0.0, np.inf, np.abs(w)))] = 0.0
                w[j] = 0.0
                move = _coefficient_move(local, node.centred, w, j, current.threshold, n_full)
                if move is None or move[1] <= current.decrease + DECREASE_TOL:
                    continue
                w[j] = move[0]
                (near,) = _best_thresholds(X, [(node, Direction.canonical(w).as_array()[None])], n_full)
                if near and near[0].decrease > current.decrease + DECREASE_TOL:
                    current = near[0]
            if current is before:
                break
        ends.append(current)
    return _winner(ends)


def _search_level(dataset: Dataset, nodes: list, strategy: SearchStrategy, seeds: list) -> list:
    """The split strategy picks at each node, or None where it finds no
    valid split.

    nodes are _Node records of dataset's rows; node i draws its random
    candidates, if any, from seeds[i].  The direction rows of every node
    go to one _best_thresholds call, so that nodes too small to fill a
    block share one; only the hill climb's probes are swept node by node.
    """
    X, n, p = dataset.features, dataset.n, dataset.p
    d = min(strategy.sparsity_d, p)
    if strategy.kind == "exhaustive_oblique":
        for node in nodes:
            if node.y.size > strategy.node_cap:
                raise ValueError(
                    f"node size {node.y.size} exceeds exhaustive search cap {strategy.node_cap}"
                )
        if d > 3:
            raise ValueError("exhaustive search supports sparsity_d <= 3")
        problems = [(node, _oblique_candidates(node.features(X), d)) for node in nodes]
        return [min(near, key=_tie_key, default=None) for near in _best_thresholds(X, problems, n)]
    axes = np.eye(p)
    problems = [(node, axes) for node in nodes]
    if strategy.kind == "random_projection":
        problems += [
            (node, _canonical_rows(_random_sparse_directions(seed, p, d, strategy.num_candidates)))
            for node, seed in zip(nodes, seeds)
        ]
    near = _best_thresholds(X, problems, n)
    # search_axis_aligned's winner: the lowest-index near-best axis.
    axis = [found[0] if found else None for found in near[: len(nodes)]]
    if strategy.kind == "random_projection":
        return [
            base and _winner([base, min(found, key=_tie_key, default=None)])
            for base, found in zip(axis, near[len(nodes) :])
        ]
    if strategy.kind == "hill_climb":
        return [
            base and _climb(X, node, base, strategy, seed, n)
            for node, base, seed in zip(nodes, axis, seeds)
        ]
    return axis


def run_search(dataset: Dataset, node, strategy: SearchStrategy) -> Split:
    """The split strategy picks at one node (a level of one node).

    Raises NoValidSplitError when no candidate separates the node.
    """
    (split,) = _search_level(dataset, [_Node.of(dataset, node)], strategy, [strategy.seed])
    if split is None:
        raise NoValidSplitError("no valid split on this node")
    return split


def search_axis_aligned(dataset: Dataset, node) -> Split:
    """Best split over the p standard basis directions.

    The winner is the lowest-index axis among those whose decrease is
    within DECREASE_TOL of the largest, at its smallest near-best
    threshold.
    """
    return run_search(dataset, node, SearchStrategy(kind="axis_aligned"))


def search_exhaustive_oblique(
    dataset: Dataset, node, sparsity_d: int, node_cap: int = 64
) -> Split:
    """Exact maximizer of the SSE decrease over sparsity-d hyperplanes.

    Enumerates, for every support of size <= sparsity_d, the directions
    spanned by node-point subsets (see _candidate_directions) and sweeps
    every midpoint threshold along each.  This realizes every dichotomy
    of the node achievable by a hyperplane with at most sparsity_d
    nonzero coefficients, so the returned split is a true maximizer over
    the restricted space.  Restricted to small instances by node_cap.
    """
    strategy = SearchStrategy(kind="exhaustive_oblique", sparsity_d=sparsity_d, node_cap=node_cap)
    return run_search(dataset, node, strategy)


def search_random_projection(dataset: Dataset, node, strategy: SearchStrategy) -> Split:
    """Axis-aligned baseline plus num_candidates sparse random directions.

    Each candidate has a uniformly chosen support of size
    min(sparsity_d, p) and coefficients drawn i.i.d. from {-1, +1},
    scaled to unit norm (_random_sparse_directions from the strategy
    seed).  The winner rule picks between the axis split and the best
    candidate; with zero candidates this reduces to the axis-aligned
    search.
    """
    return run_search(dataset, node, replace(strategy, kind="random_projection"))


def search_hill_climb(dataset: Dataset, node, strategy: SearchStrategy) -> Split:
    """OC1 coordinate climb from the axis-aligned optimum.

    Climbs from the best axis split and from restarts - 1 draws of
    _random_sparse_directions.  A pass moves each coefficient in turn
    (_coefficient_move), re-solves the threshold with _best_thresholds
    and keeps a move that raises the decrease by more than DECREASE_TOL.
    Once the support holds min(sparsity_d, p) coordinates, an outside
    one enters only in place of the inside one of smallest magnitude.  A
    climb stops after a pass without a move or max_iterations passes.
    Returns the _winner of the axis split and every climb's end; with no
    iteration budget, the axis split.
    """
    return run_search(dataset, node, replace(strategy, kind="hill_climb"))


def estimate_suboptimality(
    dataset: Dataset, node, strategy: SearchStrategy, kappa: float, trials: int
) -> SuboptimalityReport:
    """Fraction of trials reaching a kappa fraction of the exact optimum.

    The oracle decrease is computed once with the exhaustive search at
    full sparsity (hence p <= 3 is required so the restricted space is
    the whole of R^p); the strategy is re-run with seeds seed .. seed +
    trials - 1.  Deterministic strategies yield a fraction of 0 or 1.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dataset.p > 3:
        raise ValueError("sub-optimality estimation needs p <= 3 for the exact oracle")
    oracle = search_exhaustive_oblique(dataset, node, dataset.p, strategy.node_cap)
    decreases = []
    successes = 0
    for trial in range(trials):
        trial_strategy = replace(strategy, seed=strategy.seed + trial)
        try:
            result = run_search(dataset, node, trial_strategy)
            achieved = result.decrease
        except NoValidSplitError:
            achieved = 0.0
        decreases.append(achieved)
        if achieved >= kappa * oracle.decrease - DECREASE_TOL:
            successes += 1
    return SuboptimalityReport(
        kappa=kappa,
        trials=trials,
        success_fraction=successes / trials,
        oracle_decrease=oracle.decrease,
        per_trial_decreases=tuple(decreases),
    )

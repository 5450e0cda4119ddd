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
every direction exactly.  Every search picks the directions it solves
exactly through this one screen (_contenders): the axis scan, the bulk
sweep of random projection and of the exhaustive oracle, each hill-climb
re-solve and best_threshold.

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

import numpy as np

# project is not called here; the benchmark's tracer and its tests still
# look for it in this module's namespace.
from .dataset import (
    _COEFF_SNAP,
    Dataset,
    Direction,
    _check_keys,
    _named,
    axis_direction,
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

# A block of the bulk sweep holds at most _BLOCK_ELEMENTS projections
# (directions x node rows, 1 MB per float64 array) and _BLOCK_DIRECTIONS
# directions: 6 directions at a node of 20,000 rows, where a block that
# stays in cache sorts and sweeps faster, and 4,096 at the exhaustive
# oracle's nodes of 32 rows or fewer, where larger blocks were slower.
_BLOCK_ELEMENTS = 2**17
_BLOCK_DIRECTIONS = 4096

_SIGNS = np.array([-1.0, 1.0])


class NoValidSplitError(ValueError):
    """No threshold separates the node into two non-empty children."""


@dataclass(frozen=True)
class Split:
    """A chosen hyperplane split: direction, threshold, and its decrease."""

    direction: Direction
    threshold: float
    decrease: float
    left_count: int
    right_count: int

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
    """Sum of squared deviations of y from its mean."""
    return float(np.sum((y - y.mean()) ** 2))


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


def _stable_order(V: np.ndarray):
    """Stable argsort of each row of a k x m block, and the sorted rows.

    Returns (order, sorted_V) equal to np.argsort(V, axis=1,
    kind="stable") and V gathered by that order, bit for bit, on every
    platform.  numpy's default argsort is a SIMD quicksort, several
    times faster than the stable timsort, but it leaves equal values in
    an unspecified order.  Runs of equal neighbours (two NaNs count as
    equal) are then re-sorted by column index, which gives the stable
    order; continuous data rarely has any.
    """
    order = np.argsort(V, axis=1)
    s = np.take_along_axis(V, order, axis=1)
    k, m = s.shape
    if m < 2:
        return order, s
    tied = s[:, 1:] == s[:, :-1]
    # NaNs sort last, so only rows ending in NaN can hold two of them.
    nan_rows = np.flatnonzero(np.isnan(s[:, -1]))
    if nan_rows.size:
        nan = np.isnan(s[nan_rows])
        tied[nan_rows] |= nan[:, 1:] & nan[:, :-1]
    if not tied.any():
        return order, s
    # Flat positions covered by runs, numbered run by run across the
    # block.  The key (run number, column) is unique, so any sort of it
    # gives the stable order; it stays below k * m**2.
    in_run = np.zeros((k, m), dtype=bool)
    in_run[:, 1:] = tied
    in_run[:, :-1] |= tied
    pos = np.flatnonzero(in_run)
    starts = np.ones((k, m), dtype=bool)
    starts[:, 1:] = ~tied
    run_base = np.cumsum(starts.ravel()[pos]) * m
    cols = np.sort(run_base + np.take(order, pos)) - run_base
    np.put(order, pos, cols)
    # Equal values can still differ in bits (-0.0 and +0.0, NaN payloads).
    np.put(s, pos, np.take(V, pos - pos % m + cols))
    return order, s


def _gains(sum_left, n_left, total, m: int, n_full: int):
    """SSE decrease / n_full of left sets of n_left rows whose centred
    responses sum to sum_left, on a node of m rows summing to total."""
    return (
        sum_left**2 / n_left + (total - sum_left) ** 2 / (m - n_left) - total**2 / m
    ) / n_full


def _sweep_gains(values: np.ndarray, y: np.ndarray, n_full: int):
    """Prefix-sum sweep over sorted projections, one direction per column.

    values is (m, k), each column sorted ascending, and y holds the
    node's responses centred on the node mean, in the same order.  The
    callers sort a k x m row-layout block with _stable_order and pass
    its transposed views, so each direction is contiguous in memory.
    Returns (gains, thresholds, valid) over the m-1 boundaries; a
    boundary is valid only when its midpoint lies strictly between two
    distinct consecutive values.
    """
    m = values.shape[0]
    csum = np.cumsum(y, axis=0)
    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    gains = _gains(csum[:-1], n_left, csum[-1], m, n_full)
    thresholds = 0.5 * (values[:-1] + values[1:])
    valid = (values[:-1] < thresholds) & (thresholds < values[1:])
    return gains, thresholds, valid


def _contenders(top: np.ndarray, y: np.ndarray, centred: np.ndarray, n_full: int) -> np.ndarray:
    """Indices of the directions whose best sweep gain top_j passes the
    screen of the module docstring, top_j >= max(top) - 2 DECREASE_TOL -
    2 B, on the node whose responses are y (centred = y minus their
    computed mean).  A direction without a valid split (top_j = -inf)
    never passes."""
    m = y.size
    mu = m * _UNIT_ROUNDOFF
    spread = np.abs(centred)
    a = float(np.sum(spread))
    r = float(np.max(spread))
    big = float(np.max(np.abs(y)))  # M
    sweep_and_sse = 14.0 * (m + 4) * _UNIT_ROUNDOFF * r * a
    bound = 2.0 * (sweep_and_sse + 13.0 * (mu * a) ** 2 + 3.0 * m * (mu * big) ** 2) / n_full
    floor = np.max(top) - 2.0 * DECREASE_TOL - 2.0 * bound
    return np.flatnonzero((top >= floor) & (top > -np.inf))


def _best_thresholds(X: np.ndarray, y: np.ndarray, directions, n_full: int) -> list:
    """The exact near-best splits over `directions` on one node.

    X and y hold the node's rows in increasing index order (X may be a
    Fortran-ordered copy).  dataset.projections gives the k x m block of
    projections, one direction per row; _stable_order sorts each row by
    value, then by index, as project does, and one sweep scores every
    boundary.  Only the contenders (_contenders) get a Split, at their
    first boundary within DECREASE_TOL of their largest gain, with the
    exact decrease, computed once per distinct left set.  Returns the
    splits within DECREASE_TOL of the largest exact decrease, in
    direction order: the same set as solving every direction exactly
    (module docstring), empty when no direction has a valid split.
    """
    m = X.shape[0]
    if m < 2:
        return []
    V = projections(X, np.array([d.coefficients for d in directions]))
    order, sorted_V = _stable_order(V)
    centred = y - y.mean()
    gains, thresholds, valid = _sweep_gains(sorted_V.T, centred[order].T, n_full)
    gains = np.where(valid, gains, -np.inf)
    top = np.max(gains, axis=0)
    chosen = _contenders(top, y, centred, n_full)
    # First boundary within tolerance of the max = smallest threshold.
    boundaries = np.argmax(gains[:, chosen] >= top[chosen] - DECREASE_TOL, axis=0)
    sse_node = float(np.sum(centred**2))  # _sse(y)
    decreases: dict[bytes, float] = {}
    splits = []
    for j, boundary in zip(chosen.tolist(), boundaries.tolist()):
        threshold = float(thresholds[boundary, j])
        left = V[j] <= threshold
        key = left.tobytes()
        if key not in decreases:
            decreases[key] = _split_decrease(y, left, n_full, sse_node)
        splits.append(
            Split(
                direction=directions[j],
                threshold=threshold,
                decrease=decreases[key],
                left_count=boundary + 1,
                right_count=m - boundary - 1,
            )
        )
    return _near_best(splits)


def best_threshold(dataset: Dataset, node, direction: Direction) -> Split:
    """Best midpoint threshold along a fixed direction.

    Evaluates every midpoint between consecutive distinct projections in
    one left-to-right prefix-sum sweep and returns the maximizer; ties
    are broken toward the smallest threshold.  The stored decrease is
    re-evaluated from the left set, as sse_decrease does, so it matches
    exactly.
    """
    idx = validate_index_set(node, dataset.n)
    if len(direction.coefficients) != dataset.p:
        raise ValueError(
            f"direction has {len(direction.coefficients)} coefficients, p={dataset.p}"
        )
    near = _best_thresholds(dataset.features[idx], dataset.response[idx], [direction], dataset.n)
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


def search_axis_aligned(dataset: Dataset, node) -> Split:
    """Best split over the p standard basis directions.

    The winner is the lowest-index axis among those whose decrease is
    within DECREASE_TOL of the largest, at its smallest near-best
    threshold.
    """
    idx = validate_index_set(node, dataset.n)
    axes = [axis_direction(dataset.p, j) for j in range(dataset.p)]
    near = _best_thresholds(dataset.features[idx], dataset.response[idx], axes, dataset.n)
    if not near:
        raise NoValidSplitError("no coordinate admits a valid split")
    return near[0]


def _canonical_rows(matrix: np.ndarray) -> np.ndarray:
    """Canonicalize direction rows in bulk; drop zero rows and duplicates.

    The rows come out in an arbitrary order, which split search does not
    depend on.  Zeros are written as +0.0, so the copies of a duplicated
    row are bit-identical and it does not matter which one is kept.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    peak = np.max(np.abs(arr), axis=1, keepdims=True)
    arr = np.where(np.abs(arr) <= 1e-12 * peak, 0.0, arr)
    # A zero row keeps a zero norm, and so does one whose squares underflow.
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    keep = norms[:, 0] > 0.0
    arr = arr[keep] / norms[keep]
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


def _canonical_directions(rows: np.ndarray) -> list[Direction]:
    """Direction.canonical of each row, first occurrences only, in row order.

    The snap below writes zeros as +0.0, as Direction.canonical does,
    so rows from _canonical_rows pass through as they are.  A row that
    the snap changes otherwise, whose norm is not within 1e-13 of 1, or
    whose leading coefficient is not positive goes through
    Direction.canonical itself.
    """
    peak = np.max(np.abs(rows), axis=1, keepdims=True)
    snapped = np.where(np.abs(rows) <= _COEFF_SNAP * peak, 0.0, rows)
    lead = snapped[np.arange(rows.shape[0]), np.argmax(snapped != 0.0, axis=1)]
    ready = (
        np.all(snapped == rows, axis=1)
        & (np.abs(np.linalg.norm(snapped, axis=1) - 1.0) <= 1e-13)
        & (lead > 0.0)
    )
    out = []
    seen: set[tuple[float, ...]] = set()
    for coeffs, row, ok in zip(snapped.tolist(), rows, ready):
        direction = Direction(tuple(coeffs)) if ok else Direction.canonical(row)
        if direction.coefficients not in seen:
            seen.add(direction.coefficients)
            out.append(direction)
    return out


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


def _best_over_directions(dataset: Dataset, node, directions: np.ndarray, chunk=None):
    """Best split over a matrix of candidate directions (rows).

    Projects a block of `chunk` directions at a time (by default as many
    as _BLOCK_ELEMENTS and _BLOCK_DIRECTIONS allow), sorts it as a
    row-layout block (one direction per row) with _stable_order, sweeps
    every threshold at once and records each direction's best valid
    gain.  The contenders (_contenders) are re-solved once, in one batch
    (_best_thresholds, one exact decrease per dichotomy), and the
    near-best split with the smallest _tie_key wins.  Returns None when
    no direction admits a valid split.
    """
    idx = validate_index_set(node, dataset.n)
    X = np.asfortranarray(dataset.features[idx])
    y = dataset.response[idx]
    if idx.size < 2 or directions.shape[0] == 0:
        return None
    if chunk is None:
        chunk = max(1, min(_BLOCK_DIRECTIONS, _BLOCK_ELEMENTS // idx.size))
    centred = y - y.mean()
    best_gains = np.empty(directions.shape[0])
    for lo in range(0, directions.shape[0], chunk):
        order, vals = _stable_order(projections(X, directions[lo : lo + chunk]))
        gains, _, valid = _sweep_gains(vals.T, centred[order].T, dataset.n)
        best_gains[lo : lo + chunk] = np.max(np.where(valid, gains, -np.inf), axis=0)
    chosen = _contenders(best_gains, y, centred, dataset.n)
    if chosen.size == 0:
        return None
    near = _best_thresholds(X, y, _canonical_directions(directions[chosen]), dataset.n)
    return min(near, key=_tie_key, default=None)


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
    idx = validate_index_set(node, dataset.n)
    if idx.size > node_cap:
        raise ValueError(
            f"node size {idx.size} exceeds exhaustive search cap {node_cap}"
        )
    d = min(sparsity_d, dataset.p)
    if d > 3:
        raise ValueError("exhaustive search supports sparsity_d <= 3")
    X = dataset.features[idx]
    blocks = []
    for size in range(1, d + 1):
        for support in itertools.combinations(range(dataset.p), size):
            pts = X[:, list(support)]
            blocks.append(_candidate_directions(pts, support, dataset.p, size))
    directions = _canonical_rows(np.concatenate(blocks, axis=0))
    best = _best_over_directions(dataset, node, directions)
    if best is None:
        raise NoValidSplitError("no valid split on this node")
    return best


def _random_sparse_directions(rng, p: int, sparsity_d: int, count: int) -> np.ndarray:
    out = np.zeros((count, p))
    for i in range(count):
        support = rng.choice(p, size=sparsity_d, replace=False)
        # The same draws as rng.choice([-1.0, 1.0], size=sparsity_d).
        out[i, support] = _SIGNS[rng.integers(0, 2, size=sparsity_d)]
    return out / np.sqrt(sparsity_d)


def search_random_projection(dataset: Dataset, node, strategy: SearchStrategy) -> Split:
    """Axis-aligned baseline plus num_candidates sparse random directions.

    Each candidate has a uniformly chosen support of size
    min(sparsity_d, p) and coefficients drawn i.i.d. from {-1, +1},
    scaled to unit norm.  With zero candidates this reduces to the
    axis-aligned search.
    """
    best = search_axis_aligned(dataset, node)
    rng = np.random.default_rng(strategy.seed)
    d = min(strategy.sparsity_d, dataset.p)
    raw = _random_sparse_directions(rng, dataset.p, d, strategy.num_candidates)
    directions = _canonical_rows(raw)
    return _winner([best, _best_over_directions(dataset, node, directions)])


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
    base = search_axis_aligned(dataset, node)
    if strategy.max_iterations == 0:
        return base
    d = min(strategy.sparsity_d, dataset.p)
    rng = np.random.default_rng(strategy.seed)
    rows = _random_sparse_directions(rng, dataset.p, d, strategy.restarts - 1)
    idx = validate_index_set(node, dataset.n)
    X = np.asfortranarray(dataset.features[idx])
    y = dataset.response[idx]
    centred = y - y.mean()
    ends = [base]
    for start in [base.direction] + [Direction.canonical(row) for row in rows]:
        near = _best_thresholds(X, y, [start], dataset.n)
        if not near:
            continue
        current = near[0]
        for _ in range(strategy.max_iterations):
            before = current
            for j in range(dataset.p):
                w = current.direction.as_array().copy()
                if w[j] == 0.0 and current.direction.support_size >= d:
                    w[np.argmin(np.where(w == 0.0, np.inf, np.abs(w)))] = 0.0
                w[j] = 0.0
                move = _coefficient_move(X, centred, w, j, current.threshold, dataset.n)
                if move is None or move[1] <= current.decrease + DECREASE_TOL:
                    continue
                w[j] = move[0]
                near = _best_thresholds(X, y, [Direction.canonical(w)], dataset.n)
                if near and near[0].decrease > current.decrease + DECREASE_TOL:
                    current = near[0]
            if current is before:
                break
        ends.append(current)
    return _winner(ends)


def run_search(dataset: Dataset, node, strategy: SearchStrategy) -> Split:
    """Dispatch a search strategy on one node."""
    if strategy.kind == "axis_aligned":
        return search_axis_aligned(dataset, node)
    if strategy.kind == "exhaustive_oblique":
        return search_exhaustive_oblique(
            dataset, node, strategy.sparsity_d, strategy.node_cap
        )
    if strategy.kind == "hill_climb":
        return search_hill_climb(dataset, node, strategy)
    if strategy.kind == "random_projection":
        return search_random_projection(dataset, node, strategy)
    raise ValueError(f"unknown strategy kind {strategy.kind!r}")


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

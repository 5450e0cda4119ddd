"""Split search: SSE decrease, threshold sweeps, and direction strategies.

The quality of a candidate split is the decrease in sum-of-squares error
it buys, normalized by the full sample size n:

    decrease = (SSE(node) - SSE(left) - SSE(right)) / n
             = (n_L * n_R / n(node)) * (mean_L - mean_R)^2 / n

Four search strategies are provided: axis-aligned scan, exhaustive
oblique search over point-triple normals (exact on small nodes), OC1
hill climbing, and sparse random projections.  All are pure functions
of (dataset, node, strategy) and deterministic given the strategy seed.
sparsity_d caps the support of every split they return, so at
sparsity_d=1 each one searches only the axes and reaches the axis
scan's decrease.

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

A direction is sorted at the first node that sweeps it and inherited
below, not sorted again at every node (the presorting of SLIQ and
SPRINT).  A problem that sweeps in blocks of its own and has at most as
many direction rows as its node has rows (k <= m, the split
dataset.projections makes) is sorted and swept in arrays of its own;
in grow's level search its node keeps them, while its level keeps at
most _KEEP_BLOCKS blocks of _BLOCK_ELEMENTS, and its two children
inherit them (_Node.children).  Along a direction the parent kept, a
child's stable order is the parent's filtered by the child's side, ties
still in index order, and its values are the same bits, because
dataset.projections computes each row on its own.  So such a problem of
a child projects and sorts only the direction rows its parent did not
keep, and reads the others off its parent's (_sources), which are freed
once both children have theirs.  The exhaustive oracle (k far above m)
and problems small enough to share a padded block sort every row, as
keeping and filtering would cost them more than it saves.

The exhaustive oracle (_Vertices).  A dichotomy (L, R) of a node's
points that a hyperplane on a support of s <= 3 coordinates strictly
separates is realized by the closed cone of (w, t) with w . x <= t on L
and w . x >= t on R.  Its extreme rays are hyperplanes through s
affinely independent points (Cover, 1965), and the dichotomy is, at
such a hyperplane H, the points below H plus a part Q of H's tie group
T (the points on H), where Q and T - Q are strictly separable within
H.  So the oracle's rows on a support are the normals of its C(m, 3)
point triples (s = 3), the perpendiculars of its C(m, 2) point pairs
(s = 2) or the axis (s = 1), each with its defining points as tie group
(_support_rows).  A row's projections, and the in-plane positions of
its group's points (_separations), come from dataset.projections like
every other direction's; an axis row's are its coordinate as it is.
The sweep sorts each row's projections with its group written equal,
so no boundary falls inside the group, and scores as left sets of
their own (_tie_splits) the rows below the group plus each part Q:
every proper part of a group of exactly its defining points (three
points on a plane are never collinear here), and for a
larger group (coplanar or collinear points, duplicates, several
triples of one plane) the parts that the same search one dimension
down finds (_separations: in a plane, lines through two points of the
group, and cuts along each line).  A point is in a row's group when its
projection lies within _TIE_SLACK u ||N||_1 R of the defining points'
(N bounds the normal's rounding, R is the points' peak magnitude); a
point on the row's line or plane is always within it.  On data whose
normals, projections and in-plane offsets are computed exactly, such as
integer coordinates of magnitude below 2^10, a point off the plane lies
far outside it, so every realizable dichotomy is scored and no other:
the oracle returns the true maximizer.  Elsewhere a tie is decided
within rounding.  A tie split's left sum is the prefix sum below the
group (s - 1 additions by the cumsum, for s rows below it) plus Q's
centred responses added one at a time, s - 1 + |Q| <= m - 2 additions
of at most m terms: within gamma_m A' of the exact sum like every prefix
sum of the sweep (step 2 below), so B covers its gain too.

An oracle split stores a direction that realizes its left set
(_Vertices.stored).  A plain boundary stores its row's normal; a tie
split stores the normal moved into the cell of directions that realize
it, n + eps g, where g . x - c separates Q from T - Q within the plane
and eps is half of what would move a point off the plane across it
(_tilt).  The direction is canonicalized, the node is projected onto
it, and the split is kept only if one side lies wholly below the other
with a valid midpoint threshold, which becomes the stored threshold.  A
tie split stores nothing for a dichotomy that a plain contender of the
same batch stored, so a moved direction stands in for a dichotomy only
where no candidate normal realizes it (_vertex_splits).

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
from typing import NamedTuple, Optional

import numpy as np

# project is not called here; the benchmark's tracer and its tests still
# look for it in this module's namespace.
from .dataset import (
    Dataset,
    Direction,
    _COEFF_SNAP,
    _as_is,
    _integer,
    _moments,
    _real,
    _reals,
    _record,
    _seeded_words,
    canonical_rows,
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

# A level keeps the orders of its problems for their children only up to
# _KEEP_BLOCKS * _BLOCK_ELEMENTS elements (_sources): about 3.1 M, or
# 38 MB of int32 orders and float64 values.  A random-projection level of
# 20,000 rows with 10 axes and 100 draws keeps at most 2.2 M; thousands
# of candidates on thousands of rows would keep hundreds of MB.
_KEEP_BLOCKS = 24

# The exhaustive search rescales a support's points by a power of two
# when the binary exponent of their peak magnitude lies outside
# [-_EXPONENT_BAND, _EXPONENT_BAND] (_rescaled).
_EXPONENT_BAND = 200

# The exhaustive oracle puts a point in a row's tie group when its value
# lies within _TIE_SLACK u ||N||_1 R of the group's (_support_rows): over
# twice the rounding a point exactly on the row's line or plane can show.
_TIE_SLACK = 32.0


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
        record = {**vars(self), "direction": list(self.direction.coefficients)}
        del record["left"]
        return record

    @staticmethod
    def from_dict(data: dict) -> "Split":
        return Split(**_record("split", data, _SPLIT_FIELDS))


@dataclass(frozen=True)
class SearchStrategy:
    """Configuration of one candidate-direction strategy.

    sparsity_d caps the number of nonzero direction coefficients for
    every kind (sparsity_d=1 reduces each one to the axis scan),
    num_candidates is the random-projection draw count, restarts and
    max_iterations budget the hill climb, and node_cap bounds the node
    size the exhaustive search will accept.

    random_projection searches the axes plus num_candidates sparse
    random directions.  Each candidate has a uniformly chosen support of
    size min(sparsity_d, p) and coefficients drawn i.i.d. from {-1, +1},
    scaled to unit norm: _random_sparse_directions reads them from the
    raw stream of PCG64 at the node's seed (grow's node id plus seed),
    which numpy keeps fixed across versions.  The winner rule picks
    between the axis split and the best candidate; with zero candidates
    this reduces to the axis-aligned search.
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
        return SearchStrategy(**_record("strategy", data, _KIND, _STRATEGY_COUNTS))


# The JSON readers of a split's and a strategy's fields; __post_init__
# checks the strategy's kind and bounds.
_SPLIT_FIELDS = dict(
    direction=lambda value: Direction(_reals(value)), threshold=_real, decrease=_real,
    left_count=_integer, right_count=_integer,
)
_KIND = dict(kind=_as_is)
_STRATEGY_COUNTS = dict.fromkeys((f.name for f in fields(SearchStrategy)[1:]), _integer)


@dataclass(frozen=True)
class SuboptimalityReport:
    """Empirical success profile of a strategy against the exact oracle."""

    kappa: float
    trials: int
    success_fraction: float
    oracle_decrease: float
    per_trial_decreases: tuple[float, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {**vars(self), "per_trial_decreases": list(self.per_trial_decreases)}


def _sse(y: np.ndarray) -> float:
    """Sum of squared deviations of y from its mean (dataset._moments)."""
    return _moments(y)[2]


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
    responses sum to sum_left, on a node of m rows summing to total:

        (sum_left^2 / n_left + (total - sum_left)^2 / (m - n_left)
         - total^2 / m) / n_full,

    evaluated in that order, one elementwise pass at a time."""
    gains = np.square(sum_left)
    gains /= n_left
    right = np.square(total - sum_left)
    right /= m - n_left
    gains += right
    gains -= total**2 / m
    gains /= n_full
    return gains


def _sweep_gains(values: np.ndarray, y: np.ndarray, m, n_full: int):
    """Prefix-sum sweep over sorted projections, one direction per row.

    values is (k, M), each row a direction's projections by
    dataset.projections (an oracle row's levels, _Vertices.levels)
    sorted ascending, and y holds the centred responses of the row's
    node in the same order.  m is the node size:
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
    lower, upper = values[:, :-1], values[:, 1:]
    thresholds = lower + upper
    thresholds *= 0.5
    valid = lower < thresholds
    valid &= thresholds < upper
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
    matrix it is searched with; y holds their responses, and mean,
    centred (y minus the mean) and sse are dataset._moments(y).  grow
    stores mean and sse as the tree node's statistics and hands the same
    record to the next level's search, so each node's are computed once.

    sorted is None, or the orders that a keeping sweep (_best_thresholds)
    left: (keys, arrays), where arrays holds an (order, values) pair per
    problem the node kept, the stable orders (int32 node-local indices)
    and the projections in that order, one direction per row, and keys
    maps the bytes of a direction row to (pair, row).  children() hands
    them to both children as inherit, (parent's sorted, left), after it
    has replaced each parent index in the orders by that row's index in
    its own child, bitwise inverted for the right child.  A child's next
    sweep reads the rows it shares with its parent out of them (_sources)
    and drops its inherit.
    """

    __slots__ = ("rows", "y", "mean", "centred", "sse", "_margin", "_features", "sorted", "inherit")

    def __init__(self, y: np.ndarray, rows: np.ndarray):
        self.rows = rows
        self.y = y
        self.mean, self.centred, self.sse = _moments(y)
        self._margin = self._features = self.sorted = self.inherit = None

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

    def children(self, left: np.ndarray) -> tuple:
        """The nodes of the rows that left marks and of the others.  Each
        inherits this node's kept orders, which this node then lets go."""
        nodes = _Node(self.y[left], self.rows[left]), _Node(self.y[~left], self.rows[~left])
        if self.sorted is not None:
            code = np.empty(left.size, dtype=np.int32)
            code[left] = np.arange(nodes[0].y.size, dtype=np.int32)
            code[~left] = ~np.arange(nodes[1].y.size, dtype=np.int32)
            for order, _ in self.sorted[1]:
                # Each element of the result depends only on the index in
                # its own place, so take may write over its indices.
                np.take(code, order, out=order, mode="clip")
            for node, is_left in zip(nodes, (True, False)):
                node.inherit = (self.sorted, is_left)
            self.sorted = None
        return nodes


def _filter(inherit, pair: int, src: np.ndarray, order: np.ndarray, values: np.ndarray):
    """Write a child's stable orders and sorted projections along rows
    src (ascending) of its parent's kept pair into order and values.

    Along a direction, the parent's stable order filtered by the child's
    side is the child's stable order: children() has already mapped each
    parent index to its child index, which keeps their order, so ties
    stay in index order.  The values are the parent's bits, because
    dataset.projections computes each row on its own.  Rows go a few at
    a time, so that no temporary exceeds _BLOCK_ELEMENTS elements.
    """
    (_, arrays), left = inherit
    parent_order, parent_values = arrays[pair]
    step = max(1, _BLOCK_ELEMENTS // parent_order.shape[1])
    for lo in range(0, src.size, step):
        rows = src[lo : lo + step]
        if rows[-1] - rows[0] == rows.size - 1:  # consecutive rows: read in place
            rows = slice(rows[0], rows[-1] + 1)
        mapped = parent_order[rows]
        flat = np.flatnonzero(mapped >= 0 if left else mapped < 0)
        out = order[lo : lo + step].reshape(-1)
        np.take(mapped, flat, out=out, mode="clip")
        if not left:
            np.invert(out, out=out)
        np.take(parent_values[rows], flat, out=values[lo : lo + step].reshape(-1), mode="clip")


class _Source(NamedTuple):
    """The arrays of its own that a problem is sorted and swept in."""

    W: np.ndarray  # the direction rows, the h inherited ones first
    h: int
    order: np.ndarray  # each row's stable order
    values: np.ndarray  # the projections in that order
    perm: Optional[np.ndarray]  # the problem's index of each row of W; None if the same


def _sources(problems, keep: bool) -> list:
    """The _Source of each problem, or None.

    A problem that sweeps in blocks of its own (_packed) and has at most
    as many direction rows as its node has rows (k <= m, the split
    dataset.projections makes between few and many directions) is
    sorted and swept in arrays of its own, order and values, one row per
    direction.  The rows its node inherited come first, grouped by their
    parent's rows, with their stable orders and sorted projections read
    off the parent's (_filter); the sweep fills in the rest.  With keep,
    those arrays become the node's sorted, problem by problem in order
    while the level's kept elements (k x m each) stay within
    _KEEP_BLOCKS * _BLOCK_ELEMENTS.  A problem that is not kept and
    inherited no row sorts in its blocks, as every other problem does,
    since arrays of its own would cost more than they save: a packed
    problem sorts in a block shared with other nodes, and the exhaustive
    oracle's, with k far above m, would not fit.  A node drops its
    inherit once its problems have their rows, so a parent's orders are
    freed as soon as both children have read theirs.
    """
    sources = [None] * len(problems)
    budget = _KEEP_BLOCKS * _BLOCK_ELEMENTS if keep else 0
    by_node = {}
    for q, (node, _) in enumerate(problems):
        by_node.setdefault(id(node), (node, []))[1].append(q)
    for node, qs in by_node.values():
        inherit, node.inherit = node.inherit, None
        m = node.y.size
        keys, arrays = {}, []
        for q in qs:
            W = problems[q][1]
            k = len(W)
            if k > m or _packed(k, m) or isinstance(W, _Vertices):
                continue
            perm, h = None, 0
            if inherit is not None:
                (parent_keys, parent_arrays), _ = inherit
                found = [parent_keys.get(row.tobytes(), (-1, -1)) for row in W]
                pair, src = np.array(found, dtype=np.intp).reshape(k, 2).T
                perm = np.lexsort((src, np.where(pair < 0, len(parent_arrays), pair)))
                h = int(np.count_nonzero(pair >= 0))
                W = W[perm]
            kept = k * m <= budget
            if not kept and h == 0:
                continue
            order, values = np.empty((k, m), dtype=np.int32), np.empty((k, m))
            start = 0
            while start < h:
                j = pair[perm[start]]
                end = start + int(np.count_nonzero(pair == j))
                _filter(inherit, j, src[perm[start:end]], order[start:end], values[start:end])
                start = end
            if kept:
                budget -= k * m
                keys.update((row.tobytes(), (len(arrays), i)) for i, row in enumerate(W))
                arrays.append((order, values))
            sources[q] = _Source(W, h, order, values, perm)
        if arrays:
            node.sorted = (keys, arrays)
    return sources


def _packed(k: int, m: int) -> bool:
    """Whether a problem of k direction rows on a node of m rows shares
    a padded block with others (_blocks)."""
    return k * m <= _PACK_ELEMENTS and k <= _BLOCK_DIRECTIONS


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
        m, k = node.y.size, len(W)
        if m < 2 or k == 0:
            continue
        if _packed(k, m):
            small.append((isinstance(W, _Vertices), m, k, q))
            continue
        step = max(1, min(_BLOCK_DIRECTIONS, _BLOCK_ELEMENTS // m))
        blocks.extend([(q, lo, min(lo + step, k))] for lo in range(0, k, step))
    # Oracle problems pack only with oracle problems.
    small.sort(key=lambda problem: (problem[0], -problem[1]))
    block, rows, width, kind = [], 0, 0, False
    for vertices, m, k, q in small:
        if block and (
            (rows + k) * width > _BLOCK_ELEMENTS
            or rows + k > _BLOCK_DIRECTIONS
            or m < _PACK_FILL * width
            or vertices != kind
        ):
            blocks.append(block)
            block = []
        if not block:
            rows, width, kind = 0, m, vertices
        block.append((q, 0, k))
        rows += k
    if block:
        blocks.append(block)
    return blocks


def _sorted_block(X: np.ndarray, problems, sources, block, which: np.ndarray):
    """(order, sorted values, m, centred responses in that order) of a
    block's direction rows, as (K, M) arrays, M the widest node's size.

    A block of a problem with arrays of its own (_sources) is a view of
    them: its inherited rows are there already, and the others are
    projected (one dataset.projections call), sorted by value, then by
    index (one _stable_order call), and written in.  Any other block is
    projected and sorted whole, into new arrays, a block of several
    nodes padded as _padded pads.
    """
    (q, lo, hi), *_ = block
    node, own = problems[q][0], sources[q]
    if own is not None:
        first = min(max(lo, own.h), hi)
        order, sorted_V = own.order[lo:hi], own.values[lo:hi]
        if first < hi:
            fresh = projections(node.features(X), own.W[first:hi])
            order[first - lo :], sorted_V[first - lo :] = _stable_order(fresh)
    elif len(block) == 1:
        order, sorted_V = _stable_order(projections(node.features(X), problems[q][1][lo:hi]))
    else:
        nodes = [problems[q][0] for q, _, _ in block]
        index = np.zeros((len(nodes), max(node.y.size for node in nodes)), dtype=np.intp)
        for i, node in enumerate(nodes):
            index[i, : node.y.size] = node.rows
        W = np.concatenate([problems[q][1][lo:hi] for q, lo, hi in block])
        return _padded(nodes, which, projections(X, W, index[which]))
    # np.take gathers by int32 orders faster than indexing does.
    return order, sorted_V, node.y.size, np.take(node.centred, order, mode="clip")


def _vertex_block(problems, block, which):
    """_sorted_block of a block of oracle rows (_Vertices): the rows'
    levels in place of projections, padded (_padded) and stably sorted.
    Also returns the rows' (below, tied, size) of _Vertices.levels."""
    nodes = [problems[q][0] for q, _, _ in block]
    V = np.empty((sum(hi - lo for _, lo, hi in block), max(node.y.size for node in nodes)))
    below, tied, size = (np.empty(len(V), dtype=np.intp) for _ in range(3))
    at = 0
    for node, (q, lo, hi) in zip(nodes, block):
        rows = slice(at, at + hi - lo)
        V[rows, : node.y.size], below[rows], tied[rows], size[rows] = problems[q][1].levels(lo, hi)
        at += hi - lo
    return _padded(nodes, which, V) + ((below, tied, size),)


def _padded(nodes, which, V):
    """_sorted_block of a block V of values whose row j holds, first,
    the values at the rows of node nodes[which[j]]: each row is padded
    after its node's own, with +inf values whose centred responses are
    0.0, and stably sorted with its padding last (_stable_order); m is a
    (K, 1) array of node sizes.  V is overwritten."""
    sizes = np.array([node.y.size for node in nodes])
    m = sizes[which][:, None]
    V[np.arange(V.shape[1]) >= m] = np.inf
    centred = np.zeros((len(nodes), V.shape[1]))
    for i, node in enumerate(nodes):
        centred[i, : sizes[i]] = node.centred
    order, sorted_V = _stable_order(V, m)
    return order, sorted_V, m, centred[which[:, None], order]


# The proper nonempty parts of a tie group of exactly its defining
# points, as masks over their places in the group's run of the sorted
# order: two points on a line, or three on a plane that are never
# collinear (_support_rows), so every part is a split.
_GROUP_SPLITS = {
    2: np.array([[1, 0], [0, 1]], dtype=bool),
    3: np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool),
}


class _TieSplits(NamedTuple):
    """A block's tie splits (_tie_splits)."""

    rows: np.ndarray  # each split's block row
    gains: np.ndarray  # its sweep gain
    below: np.ndarray  # the count of the row's values below its tie group
    part: np.ndarray  # the group's places it puts left, from the group's first


def _tie_splits(problems, block, which, offsets, order, y, m, n_full, groups) -> Optional[_TieSplits]:
    """The tie splits of a block of oracle rows (module docstring): for
    each row with a tie group, each part Q of the group that a hyperplane
    moved off the row's normal can separate from the rest, as the left
    set of the rows below the group plus Q.  A group of exactly its
    defining points takes every part (_GROUP_SPLITS), a larger one the
    parts of _Vertices.parts.  Each gain is the sweep's formula on
    the prefix sum below the group plus Q's centred responses, added in
    order of place.  offsets holds each block row's index among its
    problem's rows.  None when the block has no tie group."""
    below, tied, size = groups
    if not tied.any():
        return None
    # Each table of parts, with the block rows it serves: a group of
    # exactly its defining points, or a larger group (the rows of one
    # line or plane share _Vertices.parts' result).
    tables = {k: (table, np.flatnonzero((size == k) & (tied == k))) for k, table in _GROUP_SPLITS.items()}
    for r in np.flatnonzero((size > 1) & (tied > size)).tolist():
        start = int(below[r])
        found = problems[block[which[r]][0]][1].parts(int(offsets[r]), order[r, start : start + int(tied[r])])
        if found and id(found) not in tables:
            tables[id(found)] = np.array([inside for inside, _ in found.values()]), []
        if found:
            tables[id(found)][1].append(r)
    csum = np.cumsum(y, axis=1)
    prefix = np.where(below > 0, csum[np.arange(below.size), np.maximum(below - 1, 0)], 0.0)
    width = int(tied.max())
    rows, sums, counts, parts = [], [], [], []
    for table, r in tables.values():
        r = np.asarray(r, dtype=np.intp)
        if not r.size:
            continue
        k = table.shape[1]
        members = y[r[:, None], below[r, None] + np.arange(k)]
        total = np.repeat(prefix[r, None], len(table), axis=1)
        for j in range(k):  # adding 0.0 leaves a sum as it is
            total += np.where(table[:, j], members[:, j, None], 0.0)
        mask = np.zeros((len(table), width), dtype=bool)
        mask[:, :k] = table
        rows.append(np.repeat(r, len(table)))
        sums.append(total.ravel())
        counts.append((below[r, None] + np.count_nonzero(table, axis=1)).ravel())
        parts.append(np.tile(mask, (r.size, 1)))
    if not rows:
        return None
    rows = np.concatenate(rows)
    gains = _gains(
        np.concatenate(sums), np.concatenate(counts).astype(np.float64), csum[rows, -1],
        m[rows, 0], n_full,
    )
    return _TieSplits(rows, gains, below[rows], np.concatenate(parts))


def _vertex_splits(problem, q: int, found: list, n_full: int, decreases: dict) -> list:
    """The stored splits (_Vertices.stored) of an oracle problem's
    contenders, found as (exact decrease, row, left set, tie split), in
    row order.  A contender's decrease is its dichotomy's: that of its
    left set or of the complement, whichever leaves the node's first row
    right.

    A stored split costs a projection of the node, so contenders are
    stored in decreasing order of decrease, those within 2 DECREASE_TOL
    of the first one left at a time, until the next one lies more than 2
    DECREASE_TOL below the best stored split: none of those can be
    near-best.  Within such a batch the plain contenders go first, and a
    tie split is stored only for a dichotomy that no plain contender
    stored: a moved direction stands in for a dichotomy only when no
    candidate normal realizes it.  A stored split's left set may be the
    complement of the contender's, and gets its own exact decrease.
    """
    node, W = problem
    m = node.y.size
    found = sorted(found, key=lambda contender: (-contender[0], contender[3]))
    out, best, start = [], -np.inf, 0
    while start < len(found) and found[start][0] >= best - 2.0 * DECREASE_TOL:
        end = start
        while end < len(found) and found[end][0] >= found[start][0] - 2.0 * DECREASE_TOL:
            end += 1
        realized = set()
        for tied in (False, True):
            batch = [
                (row, left) for _, row, left, moved in found[start:end]
                if moved == tied and _dichotomy(left) not in realized
            ]
            if not batch:
                continue
            stored = W.stored([row for row, _ in batch], np.array([left for _, left in batch]), tied)
            for (row, _), result in zip(batch, stored):
                if result is None:
                    continue
                coefficients, threshold, left = result
                key = (q, left.tobytes())
                if key not in decreases:
                    decreases[key] = _split_decrease(node.y, left, n_full, node.sse)
                count = int(np.count_nonzero(left))
                split = Split(Direction(coefficients), threshold, decreases[key], count, m - count, left)
                out.append((row, split))
                best = max(best, split.decrease)
                realized.add(_dichotomy(left))
        start = end
    return [split for _, split in sorted(out, key=lambda row: row[0])]


def _dichotomy(left: np.ndarray) -> bytes:
    """The dichotomy of a left set, the same for its complement: the
    bytes of whichever of the two leaves the first row out."""
    return (~left if left[0] else left).tobytes()


def _best_thresholds(X: np.ndarray, problems, n_full: int, keep: bool = False) -> list:
    """The exact near-best splits of each (node, W) problem.

    A problem pairs a _Node of X's rows with a matrix W of direction
    rows, or with the exhaustive oracle's rows (_Vertices).  A row of a
    matrix becomes its split's direction as it is, so callers pass
    canonical rows, as canonical_rows gives.
    The rows of every problem are swept in the blocks of _blocks: each
    block's rows are sorted (_sorted_block: a row the node inherited
    from its parent is read from there, the others are projected and
    stably sorted; _vertex_block for oracle rows), swept (_sweep_gains,
    one cumsum along the rows) and screened under each problem's rising
    floor (module docstring).  A kept row's split sits at its first
    boundary b within DECREASE_TOL of its best gain, and its left set is
    the first b + 1 rows of its order (a valid boundary lies strictly
    between two distinct values); an oracle row's tie splits
    (_tie_splits) are screened as rows of their own.  Each problem's
    contenders get exact decreases once per distinct left set, and an
    oracle problem's its stored splits (_vertex_splits).
    With keep, nodes keep their orders for their children (_sources).
    Returns, for each problem, the splits within DECREASE_TOL of its
    largest exact decrease, in row order, as solving every row exactly
    would; empty when no row has a valid split.  Each split carries its
    left set as a mask (Split.left).
    """
    sources = _sources(problems, keep)
    floor = np.full(len(problems), -np.inf)
    kept = []
    for block in _blocks(problems):
        qs = [q for q, _, _ in block]
        nodes = [problems[q][0] for q in qs]
        counts = [hi - lo for _, lo, hi in block]
        which = np.repeat(np.arange(len(block)), counts)
        offsets = np.concatenate([np.arange(lo, hi) for _, lo, hi in block])
        ties = None
        if isinstance(problems[qs[0]][1], _Vertices):
            order, sorted_V, m, y, groups = _vertex_block(problems, block, which)
            ties = _tie_splits(problems, block, which, offsets, order, y, m, n_full, groups)
        else:
            order, sorted_V, m, y = _sorted_block(X, problems, sources, block, which)
        gains, thresholds, valid = _sweep_gains(sorted_V, y, m, n_full)
        np.copyto(gains, -np.inf, where=~valid)
        top = gains.max(axis=1)
        best = top
        if ties is not None:
            best = top.copy()
            np.maximum.at(best, ties.rows, ties.gains)
        starts = np.cumsum([0] + counts[:-1])
        margins = np.array([node.margin(n_full) for node in nodes])
        floor[qs] = np.maximum(floor[qs], np.maximum.reduceat(best, starts) - margins)
        row_floor = floor[qs][which]
        rows = np.flatnonzero((top >= row_floor) & (row_floor > -np.inf))
        top = top[rows]
        # First boundary within tolerance of the max = smallest threshold.
        boundaries = (gains[rows] >= top[:, None] - DECREASE_TOL).argmax(axis=1)
        cuts = thresholds[rows, boundaries]
        # A row's left set: the rows at or before its boundary in its order.
        width = order.shape[1]
        lefts = np.zeros((rows.size, width), dtype=bool)
        lefts[np.arange(rows.size)[:, None], order[rows]] = np.arange(width) <= boundaries[:, None]
        owners = np.array(qs)[which]
        kept.append((owners[rows], offsets[rows], top, boundaries + 1, cuts, lefts))
        if ties is not None:
            floors = row_floor[ties.rows]
            pick = np.flatnonzero((ties.gains >= floors) & (floors > -np.inf))
            rows = ties.rows[pick]
            # A tie split's left set: the rows below its group, then its part.
            places = np.arange(width) < ties.below[pick, None]
            hit, at = np.nonzero(ties.part[pick])
            places[hit, ties.below[pick][hit] + at] = True
            lefts = np.zeros((pick.size, width), dtype=bool)
            lefts[np.arange(pick.size)[:, None], order[rows]] = places
            kept.append((owners[rows], offsets[rows], ties.gains[pick], None, None, lefts))
    decreases: dict[tuple, float] = {}
    splits = [[] for _ in problems]
    contenders = {}
    for owners, offsets, top, counts, cuts, lefts in kept:
        offsets = offsets.tolist()
        for i in np.flatnonzero(top >= floor[owners]).tolist():
            q = int(owners[i])
            node, W = problems[q]
            m = node.y.size
            left = lefts[i, :m]
            if isinstance(W, _Vertices):
                # A dichotomy's decrease, whichever side a contender puts left.
                key = (q, _dichotomy(left))
                if key not in decreases:
                    decreases[key] = _split_decrease(node.y, ~left if left[0] else left, n_full, node.sse)
                contenders.setdefault(q, []).append((decreases[key], offsets[i], left, counts is None))
                continue
            key = (q, left.tobytes())
            if key not in decreases:
                decreases[key] = _split_decrease(node.y, left, n_full, node.sse)
            perm = None
            if sources[q] is not None:
                W, perm = sources[q].W, sources[q].perm
            b = int(counts[i])
            split = Split(
                direction=Direction(tuple(W[offsets[i]].tolist())),
                threshold=float(cuts[i]),
                decrease=decreases[key],
                left_count=b,
                right_count=m - b,
                left=left,
            )
            splits[q].append(split if perm is None else (int(perm[offsets[i]]), split))
    for q, found in contenders.items():
        splits[q] = _vertex_splits(problems[q], q, found, n_full, decreases)
    # Rows that a problem inherited were swept first: restore row order.
    for q, found in enumerate(splits):
        if sources[q] is not None and sources[q].perm is not None:
            splits[q] = [split for _, split in sorted(found, key=lambda row: row[0])]
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
    """canonical_rows of a matrix's nonzero rows, each distinct row once.

    The rows come out in an arbitrary order, which split search does not
    depend on.  Zeros are written as +0.0, so the copies of a duplicated
    row are bit-identical and it does not matter which one is kept.
    """
    raw = np.asarray(matrix, dtype=np.float64)
    arr = canonical_rows(raw[np.any(raw != 0.0, axis=1)])
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


def _cross(a: np.ndarray, b: np.ndarray, op=np.subtract) -> np.ndarray:
    """The cross products of the rows of a and b, one elementwise product
    and difference per coordinate; with op=np.add, the sums of the same
    products, which bound the cross products' rounding."""
    return np.stack(
        [op(a[:, 1] * b[:, 2], a[:, 2] * b[:, 1]),
         op(a[:, 2] * b[:, 0], a[:, 0] * b[:, 2]),
         op(a[:, 0] * b[:, 1], a[:, 1] * b[:, 0])],
        axis=1,
    )


def _triples(m: int, i: np.ndarray, j: np.ndarray):
    """The index triples i < j < k below m, in lexicographic order, from
    the index pairs i < j in lexicographic order."""
    counts = m - 1 - j
    first = np.repeat(np.cumsum(counts) - counts, counts)
    k = np.repeat(j, counts) + 1 + np.arange(int(counts.sum())) - first
    return np.repeat(i, counts), np.repeat(j, counts), k


def _support_rows(points: np.ndarray, size: int, index: tuple):
    """The oracle's rows on the supports of one size, whose points are
    points (supports x m x size): (owner, normals, defining points, tie
    tolerances), one row each, owner the row's support.  index holds the
    index pairs i < j (size 2) or triples i < j < k (size 3) below m, as
    index arrays.

    size 1: the axis, with no defining point.  size 2: the perpendicular
    (-a_2, a_1) of each nonzero pair difference a = x_j - x_i.  size 3:
    the normal n = a x b, a = x_j - x_i and b = x_k - x_i, of each triple
    that rounding cannot have made collinear: some |n_c| exceeds 8 u N_c,
    where N = |a| x |b| with every product added bounds n's rounding (a
    collinear triple of exactly computed differences gives n = 0).  Rows
    come support by support, each support's in index order.  Each normal
    is oriented as canonical_rows orients it, its first coefficient
    above _COEFF_SNAP of its peak positive, so that the sweep's order is
    its stored direction's.  The tolerance is _TIE_SLACK u ||N||_1 R (N =
    |n| for a pair), R the support's peak magnitude (module docstring).
    """
    count = points.shape[0]
    if size == 1:
        return np.arange(count), np.ones((count, 1)), np.full((count, 1), -1), np.zeros(count)
    a = points[:, index[1]] - points[:, index[0]]
    if size == 2:
        owner, at = np.nonzero(np.any(a != 0.0, axis=2))
        a = a[owner, at]
        normals = np.stack([-a[:, 1], a[:, 0]], axis=1)
        bound = np.abs(normals)
    else:
        b = (points[:, index[2]] - points[:, index[0]]).reshape(-1, 3)
        a = a.reshape(-1, 3)
        normals, bound = _cross(a, b), _cross(np.abs(a), np.abs(b), np.add)
        live = np.any(np.abs(normals) > 8.0 * _UNIT_ROUNDOFF * bound, axis=1)
        owner, at = np.divmod(np.flatnonzero(live), index[0].size)
        normals, bound = normals[live], bound[live]
    defining = np.stack([ends[at] for ends in index], axis=1)
    size_of = np.abs(normals)
    significant = size_of > _COEFF_SNAP * size_of.max(axis=1, keepdims=True, initial=0.0)
    first = normals[np.arange(normals.shape[0]), np.argmax(significant, axis=1)]
    normals = np.where(first[:, None] < 0.0, -normals, normals)
    reach = np.max(np.abs(points), axis=(1, 2))[owner]
    tolerance = _TIE_SLACK * _UNIT_ROUNDOFF * np.add.reduce(bound, axis=1) * reach
    return owner, normals, defining, tolerance


def _cuts(points: np.ndarray, v: np.ndarray, ends: bool):
    """The splits of points along v, each as (inside, g, c) with g . x - c
    < 0 at the points inside marks and > 0 at the others: one at each
    midpoint c between distinct consecutive positions points . v, with
    either side inside.  With ends, also the two constant functionals
    +1 and -1 (g = 0), which put no point and every point inside."""
    (positions,) = projections(points, v[None])
    if ends:
        yield np.zeros(positions.size, dtype=bool), np.zeros_like(v), -1.0
        yield np.ones(positions.size, dtype=bool), np.zeros_like(v), 1.0
    levels = np.sort(positions).tolist()
    for low, high in zip(levels[:-1], levels[1:]):
        if low == high:
            continue
        cut = (low + high) * 0.5
        below = positions < cut
        yield below, v, cut
        yield ~below, -v, -cut


def _tilt(base: np.ndarray, offset: float, levels: np.ndarray, points: np.ndarray,
          g: np.ndarray, c: float, default: float):
    """The functional base . x - offset tilted by g . x - c: (base + eps
    g, offset + eps c), eps half the smallest |levels| (its values at
    points, none zero) over the largest |g . x - c| there, so that no
    point changes sign; eps = default when that largest is 0 or there is
    no point."""
    spread = np.abs(projections(points, g[None])[0] - c)
    eps = default
    if spread.size and spread.max() > 0.0:
        eps = 0.5 * float(np.abs(levels).min()) / float(spread.max())
    return base + eps * g, offset + eps * c


def _separations(points: np.ndarray, normal: np.ndarray):
    """Every split of a tie group, whose points lie on the line or plane
    with this normal, by a line or plane within it, as (inside, witness):
    witness() gives (g, c) with g . x - c < 0 at the points inside marks
    and > 0 at the others.

    On a line (2 coordinates) a split is a cut along it (_cuts).  On a
    plane, it is the search one dimension down: each line through two
    distinct points a and b, with in-plane normal u = normal x (x_b -
    x_a), puts the points with u . (x - x_a) below -tol on one side and
    those above tol on the other (tol bounds the rounding as in
    _support_rows), and cuts the points on the line along it, or leaves
    them on one side.  The witness is sigma u . (x - x_a) tilted by the
    cut's functional (_tilt).  Every split of points in a plane by a
    line can be turned about the points until it passes through two of
    them, so the search meets every split.  Pairs on a line already
    searched give the same splits and are skipped.
    """
    if normal.size == 2:
        for inside, g, c in _cuts(points, np.array([normal[1], -normal[0]]), ends=False):
            yield inside, lambda g=g, c=c: (g, c)
        return
    searched = []  # the lines searched, as bit masks of their points
    for a, b in itertools.combinations(range(points.shape[0]), 2):
        d = points[b] - points[a]
        if not d.any() or any(line >> a & line >> b & 1 for line in searched):
            continue
        u = _cross(normal[None], d[None])[0]
        offsets = points - points[a]
        (across,) = projections(offsets, u[None])
        bound = _cross(np.abs(normal)[None], np.abs(d)[None], np.add)[0]
        tol = _TIE_SLACK * _UNIT_ROUNDOFF * float(np.add.reduce(bound)) * float(np.max(np.abs(offsets)))
        line = np.abs(across) <= tol
        searched.append(sum(1 << i for i in np.flatnonzero(line).tolist()))
        off = np.flatnonzero(~line)
        at, levels, far = float(projections(points[a][None], u[None])[0, 0]), across[off], points[off]
        for sigma in (1.0, -1.0):
            for inside_line, g, c in _cuts(points[line], d, ends=True):
                inside = np.empty(points.shape[0], dtype=bool)
                inside[line] = inside_line
                inside[off] = sigma * levels < 0.0
                yield inside, lambda base=sigma * u, offset=sigma * at, levels=levels, far=far, g=g, c=c: (
                    _tilt(base, offset, levels, far, g, c, 1.0)
                )


class _Vertices:
    """The exhaustive oracle's candidate rows on one node (module
    docstring), with the values its sweep sorts and the splits it stores.

    features is the node's m x p rows, and d <= 3 (_search_level checks
    it).  Each support of at most d coordinates contributes the rows of
    _support_rows on its points (rescaled by _rescaled), in support
    order: the axes, then the pair perpendiculars of each 2-coordinate
    support, then the triple normals of each 3-coordinate support.  A
    row's tie group is its defining points and every point whose value
    lies within its tolerance of theirs: the points on its line or
    plane.
    """

    def __init__(self, features: np.ndarray, d: int):
        self.features = features
        m, p = features.shape
        pairs = np.triu_indices(m, k=1)
        index = {1: (), 2: pairs, 3: _triples(m, *pairs) if d == 3 else ()}
        # Per support size: (supports, their points, first row, owner,
        # normals, defining points, tolerances).
        self.sizes, start = [], 0
        for size in range(1, min(d, p) + 1):
            supports = list(itertools.combinations(range(p), size))
            points = _rescaled(np.moveaxis(features[:, np.array(supports)], 1, 0))
            rows = _support_rows(points, size, index[size])
            self.sizes.append((supports, points, start) + rows)
            start += rows[0].size
        self.count = start
        self._parts = {}

    def __len__(self) -> int:
        return self.count

    def _row(self, r: int):
        """(support, its points, normal, defining points) of row r."""
        for supports, points, start, owner, normals, defining, _ in self.sizes:
            if r < start + owner.size:
                i, t = r - start, owner[r - start]
                return supports[t], points[t], normals[i], defining[i]
        raise IndexError(r)

    def levels(self, lo: int, hi: int):
        """The sweep's values of rows lo..hi - 1 at the node's points, as
        (values, below, tied, size): each row's levels, the projections
        of its support's points onto its normal (dataset.projections),
        with its tie group written equal to its first defining point's
        value; the count of values below that one; the group's size (0
        for an axis); and the support's size.  An axis row's levels are
        its support's points as they are, 1.0 x = x."""
        m = self.features.shape[0]
        values = np.empty((hi - lo, m))
        below, tied, size = (np.zeros(hi - lo, dtype=np.intp) for _ in range(3))
        for _, points, start, owner, normals, defining, tolerance in self.sizes:
            a, b = max(lo, start), min(hi, start + owner.size)
            if a >= b:
                continue
            rows = slice(a - start, b - start)
            size[a - lo : b - lo] = normals.shape[1]
            if normals.shape[1] == 1:
                values[a - lo : b - lo] = points[owner[rows], :, 0]
                continue
            # Rows come support by support: one projection per support.
            V = np.empty((b - a, m))
            cuts = (np.flatnonzero(np.diff(owner[rows])) + 1).tolist()
            for i, j in zip([0, *cuts], [*cuts, b - a]):
                V[i:j] = projections(points[owner[a - start + i]], normals[a - start + i : a - start + j])
            held = defining[rows]
            at = np.arange(b - a)[:, None]
            pivot = V[at, held[:, :1]]
            on = np.abs(V - pivot) <= tolerance[rows, None]
            on[at, held] = True
            V = np.where(on, pivot, V)
            below[a - lo : b - lo] = np.count_nonzero(V < pivot, axis=1)
            tied[a - lo : b - lo] = np.count_nonzero(on, axis=1)
            values[a - lo : b - lo] = V
        return values, below, tied, size

    def parts(self, r: int, members: np.ndarray) -> dict:
        """The proper nonempty parts of row r's tie group (members,
        ascending node indices) that a hyperplane moved off the row's
        normal can put below the rest of the group (_separations), as
        {mask bytes: (mask over members, witness)} with the first witness
        found.  Rows of one support with the same group lie on one line
        or plane, with parallel normals, and share the first one's
        result."""
        support, points, normal, _ = self._row(r)
        key = (support, members.tobytes())
        if key not in self._parts:
            found = self._parts[key] = {}
            for inside, witness in _separations(points[members], normal):
                if inside.any() and not inside.all():
                    found.setdefault(inside.tobytes(), (inside, witness))
        return self._parts[key]

    def _moved(self, r: int, left: np.ndarray):
        """Row r's normal n moved into the cell of directions that realize
        left, which holds part of its tie group: n tilted (_tilt) by the
        first witness g . x - c of parts that separates the group's part
        from the rest within the line or plane, against the levels n . (x
        - x_i) of the points off it, so no other point changes side and
        the part lies below the rest.  The group is the points whose level
        (levels) is the first defining point's.  None if no witness
        separates the part."""
        _, points, w, defining = self._row(r)
        (levels,), _, _, _ = self.levels(r, r + 1)
        pivot = levels[defining[0]]
        on = levels == pivot
        found = self.parts(r, np.flatnonzero(on)).get(left[on].tobytes())
        if found is None:
            return None
        g, c = found[1]()
        out = np.flatnonzero(~on)
        moved, _ = _tilt(w, 0.0, levels[out] - pivot, points[out], g, c, float(np.abs(w).max() / np.abs(g).max()))
        return moved

    def stored(self, rows: list, lefts: np.ndarray, tied: bool) -> list:
        """The stored split of each contender, found on row rows[i] with
        left set lefts[i] (tie splits if tied), as (coefficients,
        threshold, left), or None.

        A plain contender's direction is its row's normal, a tie split's
        the normal moved into its cell (_moved).  Each direction is
        canonicalized and the node's rows are projected onto it; the
        split is kept only if one side, the left set or its complement,
        lies wholly below the other with a valid midpoint threshold (a
        value strictly between the two sides' extremes).  That side is the
        stored left.
        """
        k, p = len(rows), self.features.shape[1]
        raw = np.zeros((k, p))
        for i, r in enumerate(rows):
            support, _, w, _ = self._row(r)
            if tied:
                w = self._moved(r, lefts[i])
            if w is not None:
                raw[i, list(support)] = w
        live = np.flatnonzero(raw.any(axis=1))
        out = [None] * k
        if not live.size:
            return out
        directions = canonical_rows(raw[live])
        values = projections(self.features, directions)
        for side in (lefts[live], ~lefts[live]):
            low = np.where(side, values, -np.inf).max(axis=1)
            high = np.where(side, np.inf, values).min(axis=1)
            threshold = (low + high) * 0.5
            for j in np.flatnonzero((low < threshold) & (threshold < high)).tolist():
                if out[live[j]] is None:
                    out[live[j]] = tuple(directions[j].tolist()), float(threshold[j]), side[j]
        return out


def _rescaled(points: np.ndarray) -> np.ndarray:
    """Each support's points (points[t], m x size) times 2^-e, e the
    binary exponent of their peak magnitude, when |e| > _EXPONENT_BAND.

    A power of two scales exactly, and canonical directions do not see a
    common scale, so this changes no candidate direction of points whose
    scale stays within the band; beyond it, the cross products of
    _support_rows would overflow or underflow.
    """
    _, exponent = np.frexp(np.max(np.abs(points), axis=(1, 2)))
    if np.all(np.abs(exponent) <= _EXPONENT_BAND):
        return points
    return np.ldexp(points, np.where(np.abs(exponent) > _EXPONENT_BAND, -exponent, 0)[:, None, None])


def _random_sparse_directions(seed: int, p: int, sparsity_d: int, count: int) -> np.ndarray:
    """count random sparse unit directions from the seed's raw stream.

    Candidate i reads words i p, ..., i p + p - 1 of
    dataset._seeded_words(seed), one per coordinate.  Its support is the
    d = min(sparsity_d, p) coordinates whose keys, the words' top 63
    bits, come first in _stable_order; a coordinate's sign is its word's
    low bit (1 for +), which the keys do not hold.  Each coefficient is
    then +-1 / sqrt(d).  With count = 0 the seed is not read.
    """
    d = min(sparsity_d, p)
    out = np.zeros((count, p))
    if count == 0:
        return out
    words, _ = _seeded_words(seed, (count, p))
    order, _ = _stable_order(words >> np.uint64(1))
    rows, support = np.arange(count)[:, None], order[:, :d]
    out[rows, support] = np.where(words[rows, support] & np.uint64(1), 1.0, -1.0)
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
    equal).  A row whose U overflows, like a row with x_ij = 0, keeps its
    side at every finite c: left iff (x_ij > 0) == (U_i > 0).  Midpoints
    are 0.5 a + 0.5 b, the bits of 0.5 (a + b) unless that sum overflows
    or the result underflows.  centred is the node's responses minus
    their mean.  Returns (c, gain) for the smallest c within
    DECREASE_TOL of the best gain, or None if no c leaves both sides
    non-empty.
    """
    (rest,) = projections(X, w[None, :])
    x = X[:, j]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        crossings = (threshold - rest) / x
    moving = np.isfinite(crossings)
    if not moving.any():
        return None
    (order,), (U,) = _stable_order(crossings[moving][None, :])
    with np.errstate(over="ignore"):  # an infinite end's midpoint is invalid
        pad = (U[-1] - U[0]) or abs(U[0]) or 1.0
        ends = np.concatenate(([U[0] - pad], U, [U[-1] + pad]))
    step = np.where(x[moving] > 0.0, -1.0, 1.0)[order]
    # The rows on the left at a c below every finite U_i.
    fixed = np.where(x != 0.0, (x > 0.0) == (crossings > 0.0), rest <= threshold)
    left = np.where(moving, x > 0.0, fixed)
    sum_left = np.cumsum(np.concatenate(([centred[left].sum()], step * centred[moving][order])))
    n_left = np.cumsum(np.concatenate(([float(np.count_nonzero(left))], step)))
    mids = 0.5 * ends[:-1] + 0.5 * ends[1:]
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
    """search_hill_climb on one node.  The first climb continues from
    base, the axis split its level solved; the restart directions are
    solved in one _best_thresholds call, one problem each."""
    if strategy.max_iterations == 0:
        return base
    p = X.shape[1]
    d = min(strategy.sparsity_d, p)
    rows = _random_sparse_directions(seed, p, d, strategy.restarts - 1)
    starts = [(node, row[None]) for row in canonical_rows(rows)]
    local = node.features(X)
    ends = []  # each move gains over DECREASE_TOL: base is near-best only as its climb's end
    for near in [[base]] + _best_thresholds(X, starts, n_full):
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
                (near,) = _best_thresholds(X, [(node, canonical_rows(w[None]))], n_full)
                if near and near[0].decrease > current.decrease + DECREASE_TOL:
                    current = near[0]
            if current is before:
                break
        ends.append(current)
    return _winner(ends)


def _search_level(dataset: Dataset, nodes: list, strategy: SearchStrategy, seeds: list,
                  keep: bool = False) -> list:
    """The split strategy picks at each node, or None where it finds no
    valid split.

    nodes are _Node records of dataset's rows; node i draws its random
    candidates, if any, from seeds[i].  The direction rows of every node
    go to one _best_thresholds call, so that nodes too small to fill a
    block share one; only the hill climb's probes are swept node by node.
    With keep, that call keeps each node's orders for its children.
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
        problems = [(node, _Vertices(node.features(X), d)) for node in nodes]
        near = _best_thresholds(X, problems, n, keep)
        return [min(found, key=_tie_key, default=None) for found in near]
    axes = np.eye(p)
    problems = [(node, axes) for node in nodes]
    if strategy.kind == "random_projection":
        problems += [
            (node, _canonical_rows(_random_sparse_directions(seed, p, d, strategy.num_candidates)))
            for node, seed in zip(nodes, seeds)
        ]
    near = _best_thresholds(X, problems, n, keep)
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
    dataset: Dataset, node, sparsity_d: int, node_cap: int = SearchStrategy.node_cap
) -> Split:
    """Exact maximizer of the SSE decrease over sparsity-d hyperplanes.

    Sweeps, for every support of size <= sparsity_d, the normals of its
    point triples, the perpendiculars of its point pairs and its axes
    (_Vertices), each with its tie group kept whole, and scores the parts
    of each group that a hyperplane moved off it can separate as left
    sets of their own.  Every dichotomy of the node that a hyperplane
    with at most sparsity_d nonzero coefficients strictly separates is
    met at a vertex of its cone of hyperplanes, and no other is scored,
    so on data whose normals and projections are computed exactly (for
    example integer coordinates of magnitude below 2^10) the returned
    split is a true maximizer over the restricted space; elsewhere ties
    are decided within rounding (module docstring).  Restricted to small
    instances by node_cap.
    """
    strategy = SearchStrategy(kind="exhaustive_oblique", sparsity_d=sparsity_d, node_cap=node_cap)
    return run_search(dataset, node, strategy)


def search_hill_climb(dataset: Dataset, node, strategy: SearchStrategy) -> Split:
    """OC1 coordinate climb from the axis-aligned optimum.

    Climbs from the best axis split and from restarts - 1 directions of
    _random_sparse_directions, drawn from the seed's raw stream as
    random_projection's candidates are.  A pass moves each coefficient
    in turn (_coefficient_move), re-solves the threshold with
    _best_thresholds and keeps a move that raises the decrease by more
    than DECREASE_TOL.  Once the support holds min(sparsity_d, p)
    coordinates, an outside one enters only in place of the inside one
    of smallest magnitude.  A climb stops after a pass without a move or
    max_iterations passes.  Returns the _winner of the axis split and
    every climb's end; with no iteration budget, the axis split.
    """
    return run_search(dataset, node, replace(strategy, kind="hill_climb"))


def estimate_suboptimality(
    dataset: Dataset, node, strategy: SearchStrategy, kappa: float, trials: int
) -> SuboptimalityReport:
    """Fraction of trials reaching a kappa fraction of the exact optimum.

    The oracle decrease is computed once with the exhaustive search at
    full sparsity (hence p <= 3 is required so the restricted space is
    the whole of R^p); the strategy is re-run with seeds seed .. seed +
    trials - 1, every trial a copy of the node in one _search_level
    call.  A trial that finds no valid split achieves 0.0.
    Deterministic strategies yield a fraction of 0 or 1: a strategy
    that draws no random direction (axis, exhaustive, a hill climb
    without restarts, random projection without candidates) is searched
    once and its split repeated, and an exhaustive one at sparsity >= p
    repeats the oracle's split.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dataset.p > 3:
        raise ValueError("sub-optimality estimation needs p <= 3 for the exact oracle")
    oracle = search_exhaustive_oblique(dataset, node, dataset.p, strategy.node_cap)
    seeded = (strategy.kind == "hill_climb" and strategy.restarts > 1) or (
        strategy.kind == "random_projection" and strategy.num_candidates > 0
    )
    if strategy.kind == "exhaustive_oblique" and strategy.sparsity_d >= dataset.p:
        splits = [oracle] * trials
    elif seeded:
        seeds = [strategy.seed + trial for trial in range(trials)]
        splits = _search_level(dataset, [_Node.of(dataset, node)] * trials, strategy, seeds)
    else:
        splits = _search_level(dataset, [_Node.of(dataset, node)], strategy, [strategy.seed]) * trials
    decreases = tuple(0.0 if split is None else split.decrease for split in splits)
    successes = sum(achieved >= kappa * oracle.decrease - DECREASE_TOL for achieved in decreases)
    return SuboptimalityReport(
        kappa=kappa,
        trials=trials,
        success_fraction=successes / trials,
        oracle_decrease=oracle.decrease,
        per_trial_decreases=decreases,
    )

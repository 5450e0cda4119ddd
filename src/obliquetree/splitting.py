"""Split search: SSE decrease, threshold sweeps, and direction strategies.

The quality of a candidate split is the decrease in sum-of-squares error
it buys, normalized by the full sample size n:

    decrease = (SSE(node) - SSE(left) - SSE(right)) / n
             = (n_L * n_R / n(node)) * (mean_L - mean_R)^2 / n

Four search strategies are provided: axis-aligned scan, exhaustive
oblique search over the vertex dichotomies of the node's points (exact
on small nodes), OC1 hill climbing, and sparse random projections.  All
are pure functions of (dataset, node, strategy) and deterministic given
the strategy seed.
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
H: a vertex dichotomy.  The oracle meets them in two ways.

Sweep rows.  A support of one coordinate gives its axis, one of two
coordinates the perpendiculars of its C(m, 2) point pairs, and, on a
node of fewer than _PENCIL_ROWS rows, one of three coordinates the
normals of its C(m, 3) point triples, each row with its defining points
as tie group (_support_rows).  A row's values are its support's points
projected onto it by dataset.projections (an axis row's are its
coordinate as it is); the sweep sorts them with the group written
equal, so no boundary falls inside the group, and scores as left sets
of their own (_tie_splits) the rows below the group plus each part Q of
it that a hyperplane moved off the row's normal separates: every proper
part of a group of exactly its defining points (three points on a plane
are never collinear here), and for a larger group (coplanar or
collinear points, duplicates) the parts that the same search one
dimension down finds (_separations).  A point is in a row's group when
its value lies within _TIE_SLACK u ||N||_1 R of the defining points' (N
bounds the normal's rounding, R is the points' peak magnitude); a point
on the row's line or plane is always within it.

Pencils (s = 3, nodes of _PENCIL_ROWS rows or more).  Each pair i < j
of distinct points of a support is a pencil: a plane turning about the
line through x_i and x_j (_cells).  Each point k off the line crosses
it once per half-turn, at the plane through i, j and k, whose normal
is n_k = (x_j - x_i) x (x_k - x_i).  The crossings are ordered by the
angle of n_k about the line; a point
is in the crossing group of its neighbour in that order when the
orientation test n_k . (x_l - x_i) lies within _TIE_SLACK u ||N_k||_1 R
of zero, and a point whose n_k lies within 8 u N_k of zero is on the
line.  Between two crossings the side set is fixed, so one prefix sum
of each side's points in angle order gives the left sum of every cell,
and each cell is scored with every cut of the line's points (i, j,
duplicates and collinear points, taken in order along the line, none
and all included) put on its left.  A cell's dichotomy is a vertex
dichotomy of the plane through i, j and the crossing group on either
side of it: the points below that plane plus the part Q of its group
that the line ij, moved within the plane by the cut, separates.
Conversely every dichotomy that a plane strictly separates is a cell's:
move the plane until it passes through two points a and b with no
other point on it off their line, and pencil ab holds it.  So the
cells of the C(m, 2) pencils, of at most m - 2 crossings each, score
the dichotomies of the support's C(m, 3) triple rows, and no search
within a plane is needed.  Small nodes keep the triple rows, which
share the sweep rows' blocks, as the pencils' fixed cost per level
outweighs what they save there (_PENCIL_ROWS).

On data whose normals, projections and orientation tests are computed
exactly, such as integer coordinates of magnitude below 2^10, a point
off a row's line or plane or a pencil's plane lies far outside the
tolerance, and the angles of two distinct planes of a pencil differ by
over 2^-47, far more than their rounding, so a crossing group is a run
of neighbours; each half-turn starts after its largest gap in angle, so
no group spans the start.  Every realizable dichotomy is then scored
and no other: the
oracle returns the true maximizer.  Elsewhere a tie is decided within
rounding.  A tie split's left sum is the sweep's prefix sum below the
group (s - 1 additions by the cumsum, for s rows below it) plus Q's
centred responses added one at a time, s - 1 + |Q| <= m - 2 additions;
a cell's is a prefix sum of its side's points before the cell plus a
suffix sum of those after it, plus a prefix or suffix of the line's
points: at most m terms added in a tree of height below m.  Either is
within gamma_m A' of the exact sum like every prefix sum of the sweep
(step 2 below), so B covers its gain too.

An oracle split stores a direction that realizes its left set
(_Vertices.stored).  A contender names the row it was found on: a sweep
row, or the triple i < j < k of the plane next to its cell, taking the
plane where the cell's part is empty or the whole group when there is
one.  A plain contender (a sweep row's boundary, or a cell whose part
is empty or whole) stores its row's normal, for a triple the cross
product (x_j - x_i) x (x_k - x_i), as a triple row stores it; a tie
split stores the normal moved into the cell of directions that realize
it, n + eps g, where g . x - c separates Q from T - Q within the line
or plane and eps is half of what would move a point off it across it
(_tilt).  The direction is canonicalized, the node is projected onto
it, and the split is kept only if one side lies wholly below the other
with a valid midpoint threshold, which becomes the stored threshold.  A
tie split stores nothing for a dichotomy that a plain contender of the
same batch stored, so a moved direction stands in for a dichotomy only
where no candidate normal realizes it (_vertex_splits).  When no
contender of a node stores a split (canonical_rows' snap can break the
directions of columns of very different scales), the node is screened
again without them, so that the next-best candidates, the axes among
them, become contenders (_rescreen): the oracle never returns less than
the axis scan, nor less at sparsity d than at d - 1.

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
   (centring costs u |w_i| per row).  So is any sum of at most m terms
   of z added in a tree of height below m, as a pencil's cell sums and
   its node total (np.add.reduce) are: each term takes part in fewer
   than m additions (Higham, ch. 4).  The right sum, total minus left,
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

# A node of at least _PENCIL_ROWS rows sweeps each 3-coordinate support
# as the pencils of its point pairs (_cells); a smaller one as the
# normals of its point triples, among its sweep rows.  One oracle search
# (sparsity 3) took 1.55 ms with triple rows and 1.90 ms with pencils at
# 12 rows, 3.0 ms and 2.3 ms at 16 rows, and 24 ms and 11 ms at 32 (best
# of 200 runs, 2-CPU container): the pencils save work per triple but
# add fixed cost per level, which small nodes do not repay.
_PENCIL_ROWS = 16

# A block of pencils (_cells) holds at most _PENCIL_ELEMENTS places
# (pencils x node rows), and scores its cells in arrays of at most
# _CELL_ELEMENTS (places x cuts of the line's points): every cut at once
# when each line holds its two points (4 cuts), fewer at a time on lines
# through many points.  Blocks of 2^15 places swept the 8,128 pencils of
# 128 points in 284 ms against 372 ms for 2^17 (2-CPU container).
_PENCIL_ELEMENTS = 2**15
_CELL_ELEMENTS = 2**17

# _rescreen's first quota of candidates, which grows fourfold per pass.
_RESCREEN_QUOTA = 64

# The exhaustive search rescales a support's points by a power of two
# when the binary exponent of their peak magnitude lies outside
# [-_EXPONENT_BAND, _EXPONENT_BAND] (_rescaled).
_EXPONENT_BAND = 200

# The exhaustive oracle puts a point in a row's tie group when its value
# lies within _TIE_SLACK u ||N||_1 R of the group's (_support_rows), and
# in a pencil's crossing group when its orientation test does (_cells):
# over twice the rounding a point exactly on the line or plane can show.
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
    Each side is gathered by index, as tree._partition gathers rows.
    """
    y_left, y_right = y.take(left.nonzero()[0]), y.take((~left).nonzero()[0])
    return (sse_node - _sse(y_left) - _sse(y_right)) / n_full


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


def _sweep_gains(values: np.ndarray, y: np.ndarray, m, n_full: int, csum=None):
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
    csum, if given, is np.cumsum(y, axis=1), which the caller shares
    with _tie_splits.  Returns (gains, thresholds, valid) over the M-1
    boundaries; a boundary is valid only when its midpoint lies strictly
    between two distinct consecutive values.
    """
    if csum is None:
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
        inherits this node's kept orders, which this node then lets go.

        Both sides are gathered by index, as tree._partition gathers
        them, which is several times faster than a boolean mask on large
        near-even splits and gives the same arrays."""
        sides = left.nonzero()[0], (~left).nonzero()[0]
        nodes = tuple(_Node(self.y.take(side), self.rows.take(side)) for side in sides)
        if self.sorted is not None:
            code = np.empty(left.size, dtype=np.int32)
            code.put(sides[0], np.arange(sides[0].size, dtype=np.int32))
            code.put(sides[1], ~np.arange(sides[1].size, dtype=np.int32))
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


def _blocks(problems, elements: int = _BLOCK_ELEMENTS) -> list:
    """The sweep's blocks, as lists of (problem, first row, end row).

    A problem of at most _PACK_ELEMENTS projections (direction rows x
    node rows) goes whole into a block shared with others, widest node
    first, while the block stays within `elements` projections and
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
        step = max(1, min(_BLOCK_DIRECTIONS, elements // m))
        blocks.extend([(q, lo, min(lo + step, k))] for lo in range(0, k, step))
    # Oracle problems pack only with oracle problems.
    small.sort(key=lambda problem: (problem[0], -problem[1]))
    block, rows, width, kind = [], 0, 0, False
    for vertices, m, k, q in small:
        if block and (
            (rows + k) * width > elements
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
    """_sorted_block of a block of oracle sweep rows (_Vertices): the
    rows' levels in place of projections, padded (_padded) and stably
    sorted.  Also returns the rows' (below, tied, size) of
    _Vertices.levels."""
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


def _tie_splits(problems, block, which, offsets, order, y, csum, m, n_full, groups) -> Optional[_TieSplits]:
    """The tie splits of a block of oracle sweep rows (module docstring):
    for each row with a tie group, each part Q of the group that a
    hyperplane moved off the row's normal can separate from the rest, as
    the left set of the rows below the group plus Q.  A group of exactly
    its defining points takes every part (_GROUP_SPLITS), a larger one
    the parts of _Vertices.parts.  Each gain is the sweep's formula on
    the sweep's prefix sum below the group (csum, np.cumsum(y, axis=1))
    plus Q's centred responses, added in order of place.  offsets holds
    each block row's index among its problem's rows.  None when the
    block has no tie group."""
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


class _Cells(NamedTuple):
    """The cells of a block of pencils (_cells), one row per pencil, its
    places running over the node's rows (and the block's padding)."""

    pencil: np.ndarray  # (support, i, j) of each pencil
    size: np.ndarray  # its node's row count
    total: np.ndarray  # the sum of its node's centred responses
    order: np.ndarray  # its crossing points by angle from its start, then the others
    crossings: np.ndarray  # the count of its crossing points
    minus: np.ndarray  # at each place of order, a crossing point on the left of every cell after it
    plus: np.ndarray  # ... and one on the left of every cell before it
    sums: np.ndarray  # the centred responses left of the cell after each place
    counts: np.ndarray  # and their count (as floats)
    cell: np.ndarray  # whether a crossing group ends at the place
    line: np.ndarray  # the points on the pencil's line, along it (ell of L places)
    ell: np.ndarray  # their count
    cut_sums: np.ndarray  # each cut of the line's points: the sum of the part it puts left
    cut_counts: np.ndarray  # its count
    cut_valid: np.ndarray  # whether it is a cut


def _cells(problems, block, which) -> _Cells:
    """Rotate a plane about the line through points i and j of each
    pencil (support, i, j) of a block (module docstring): its crossing
    points, their groups, and the left sums of its cells and of the cuts
    of its line's points.

    A point k off the line crosses the plane at the angle of n_k =
    (x_j - x_i) x (x_k - x_i), the normal of the plane through i, j and
    k.  n_k is perpendicular to d = x_j - x_i, so its two coordinates
    other than d's largest, (u, v), fix it, and the plane's angle is
    that of (u, v) or (-u, -v), whichever lies in the upper half-plane;
    a point whose pair was negated (upper False) lies on the other side
    of the line within the plane.  The points are ordered by angle, from
    the largest gap between consecutive angles on, so that no crossing
    group spans the start, and a point moved past the end changes side
    (upper flips).
    Consecutive points of that order are in one crossing group when the
    orientation test n_k . (x_l - x_i) lies within _TIE_SLACK u ||N_k||_1
    R of zero (N_k bounds n_k's rounding, as in _support_rows).  The
    cell after a place t holds, on its left, the minus points at or
    before t and the plus points after it: two prefix sums, one of each
    kind, added.  A point whose normal lies within 8 u N_k of zero is
    on the line, as are i and j; its cuts are the prefixes and suffixes
    of the line's points along d, taken at distinct positions, with the
    empty and the whole set among them.
    """
    nodes = [problems[q][0] for q, _, _ in block]
    size = np.array([node.y.size for node in nodes])[which]
    K, M = which.size, int(size.max())
    points, z = np.empty((3, K, M)), np.zeros((K, M))  # coordinate first: each a contiguous slab
    reach, total = np.empty(K), np.empty(K)
    pencil = np.empty((K, 3), dtype=np.intp)
    at = 0
    for node, (q, lo, hi) in zip(nodes, block):
        W, m, rows = problems[q][1], node.y.size, slice(at, at + hi - lo)
        _, solid, solid_reach = W.solids
        pencil[rows] = W.pencils[lo:hi]
        t, i = pencil[rows, 0], pencil[rows, 1]
        points[:, rows, :m] = np.moveaxis(solid[t], 2, 0)
        points[:, rows, m:] = solid[t, i].T[:, :, None]  # padding: copies of x_i, on the line
        z[rows, :m] = node.centred
        reach[rows], total[rows] = solid_reach[t], np.add.reduce(node.centred)
        at += hi - lo
    rows, pos = np.arange(K), np.arange(M)
    base = points[:, rows, pencil[:, 1]]
    d = points[:, rows, pencil[:, 2]] - base
    a = points - base[:, :, None]
    n = _cross(d[:, :, None], a)
    bound = _cross(np.abs(d)[:, :, None], np.abs(a), np.add)
    largest = np.argmax(np.abs(d), axis=0)[:, None]
    u = np.where(largest == 0, n[1], np.where(largest == 1, n[2], n[0]))
    v = np.where(largest == 0, n[2], np.where(largest == 1, n[0], n[1]))
    pad = pos >= size[:, None]
    live = (np.abs(n[0]) > 8.0 * _UNIT_ROUNDOFF * bound[0]) | (np.abs(n[1]) > 8.0 * _UNIT_ROUNDOFF * bound[1])
    live |= np.abs(n[2]) > 8.0 * _UNIT_ROUNDOFF * bound[2]
    line = ~(live & ((u != 0.0) | (v != 0.0))) & ~pad
    event = ~line & ~pad
    upper = (v > 0.0) | ((v == 0.0) & (u > 0.0))
    angle = np.arctan2(np.where(upper, v, -v), np.where(upper, u, -u))
    g = np.count_nonzero(event, axis=1)
    order, angle = _stable_order(np.where(event, angle, np.inf), g[:, None])
    # Start after the largest gap between consecutive angles, the gap
    # across pi included.
    with np.errstate(invalid="ignore"):
        gaps = np.where(pos[:-1] < (g - 1)[:, None], np.diff(angle, axis=1), -np.inf)
        across = angle[:, 0] + np.pi - angle[rows, np.maximum(g - 1, 0)]
    first = np.where(across >= gaps.max(axis=1, initial=-np.inf), 0, np.argmax(gaps, axis=1) + 1)
    src = np.where(pos < g[:, None], (pos + first[:, None]) % np.maximum(g, 1)[:, None], pos)
    order = np.take_along_axis(order, src, axis=1)
    # Flat indices of the places' points, to gather per-point arrays.
    flat = (order + (rows * M)[:, None]).ravel()

    def placed(values):
        return values.ravel().take(flat).reshape(K, M)

    up = placed(upper) ^ (src < first[:, None])
    crossing = pos < g[:, None]
    minus, plus = crossing & ~up, crossing & up
    # Crossing groups: runs of consecutive points on one plane.
    det = sum(placed(n[c])[:, :-1] * placed(a[c])[:, 1:] for c in range(3))
    slack = placed(bound[0] + bound[1] + bound[2])[:, :-1]
    joined = np.abs(det) <= _TIE_SLACK * _UNIT_ROUNDOFF * slack * reach[:, None]
    cell = np.ones((K, M), dtype=bool)
    cell[:, :-1] = ~joined
    cell[rows, np.maximum(g - 1, 0)] = True
    cell &= crossing
    z_at = placed(z)
    # The cell after place t: minus points at or before t, plus points after.
    sums = np.cumsum(np.where(minus, z_at, 0.0), axis=1)
    after = np.cumsum(np.where(plus, z_at, 0.0)[:, ::-1], axis=1)[:, ::-1]
    sums[:, :-1] += after[:, 1:]
    counts = np.cumsum(minus, axis=1) - np.cumsum(plus, axis=1) + np.count_nonzero(plus, axis=1)[:, None]
    counts = counts.astype(np.float64)
    # The line's points along d, and their cuts: prefixes of 0 to L
    # points, then suffixes from 1 to L - 1.  The line's points are
    # gathered to the front of each row before they are sorted.
    along = a[0] * d[0][:, None] + a[1] * d[1][:, None] + a[2] * d[2][:, None]
    ell = np.count_nonzero(line, axis=1)
    L = int(ell.max())
    hit, col = np.nonzero(line)
    place = np.arange(hit.size) - np.repeat(np.cumsum(ell) - ell, ell)
    front = np.full((K, L), np.inf)
    front[hit, place] = along[hit, col]
    line_order = np.zeros((K, L), dtype=np.intp)
    line_order[hit, place] = col
    order_on_line, along = _stable_order(front, ell[:, None])
    line_order = np.take_along_axis(line_order, order_on_line, axis=1)
    on = np.arange(L) < ell[:, None]
    zl = np.where(on, z.ravel().take((line_order + (rows * M)[:, None]).ravel()).reshape(K, L), 0.0)
    apart = (along[:, :-1] < along[:, 1:]) & on[:, 1:]
    cut_sums = np.concatenate([np.zeros((K, 1)), np.cumsum(zl, axis=1), np.cumsum(zl[:, ::-1], axis=1)[:, ::-1][:, 1:]], axis=1)
    cut_counts = np.concatenate([np.broadcast_to(np.arange(L + 1.0), (K, L + 1)), ell[:, None] - np.arange(1.0, L)], axis=1)
    prefix = np.arange(L + 1)
    cut_valid = np.concatenate([(prefix == 0) | (prefix == ell[:, None]), apart], axis=1)
    cut_valid[:, 1:L] |= apart
    return _Cells(pencil, size, total, order, g, minus, plus, sums, counts, cell,
                  line_order, ell, cut_sums, cut_counts, cut_valid)


def _cell_gains(cells: _Cells, lo: int, hi: int, n_full: int) -> np.ndarray:
    """The sweep gains of the cells of a block of pencils (_cells) with
    cuts lo..hi - 1 of their line's points put left, as a (pencils,
    places, cuts) array; -inf where no crossing group ends at the place,
    the cut is none, or a side is empty."""
    left = cells.sums[:, :, None] + cells.cut_sums[:, None, lo:hi]
    n_left = cells.counts[:, :, None] + cells.cut_counts[:, None, lo:hi]
    m = cells.size[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = _gains(left, n_left, cells.total[:, None, None], m, n_full)
    ok = cells.cell[:, :, None] & cells.cut_valid[:, None, lo:hi] & (n_left >= 1.0) & (n_left <= m - 1)
    np.copyto(gains, -np.inf, where=~ok)
    return gains


def _cell_candidates(problems, block, which, cells: _Cells, k, t, c, gains) -> _Kept:
    """The _Kept of the cells (pencil k, after place t, cut c) of a block
    of pencils: each left set, and the triple (_Vertices._row) of a
    crossing next to the cell, the group that ends at t or the next one,
    whose vertex dichotomy the cell's is.  The cell's left set is the
    points left of that plane plus a part Q of its group and line; a
    plain one when Q is empty or the whole group, a tie split otherwise.
    The plain crossing is taken when there is one, the earlier one
    first; the triple's third point is its group's lowest row."""
    M = cells.order.shape[1]
    pos, at = np.arange(M), np.arange(k.size)[:, None]
    lefts = np.zeros((k.size, M), dtype=bool)
    lefts[at, cells.order[k]] = np.where(pos <= t[:, None], cells.minus[k], cells.plus[k])
    L = cells.line.shape[1]
    place = np.arange(L)
    part = np.where(c[:, None] <= L, place < c[:, None], place >= (c - L)[:, None])
    hit, on = np.nonzero(part & (place < cells.ell[k, None]))
    lefts[hit, cells.line[k[hit], on]] = True
    # The groups around the cell: the one ending at t, and the next one
    # (the first past the last place, with the sides swapped).
    wrap = t + 1 >= cells.crossings[k]
    ends = cells.cell[k]
    here = np.where(ends & (pos < t[:, None]), pos + 1, 0).max(axis=1), t + 1
    after = np.where(wrap, 0, t + 1)
    nxt = after, np.argmax(ends & (pos >= after[:, None]), axis=1) + 1

    def holds(kind, span):
        run = (pos >= span[0][:, None]) & (pos < span[1][:, None])
        return np.any(kind[k] & run, axis=1)

    empty, full = c == 0, c == cells.ell[k]
    plain_here = (~holds(cells.minus, here) & empty) | (~holds(cells.plus, here) & full)
    next_minus, next_plus = holds(cells.minus, nxt), holds(cells.plus, nxt)
    plain_next = np.where(
        wrap, (~next_minus & empty) | (~next_plus & full), (~next_plus & empty) | (~next_minus & full)
    )
    use_next = ~plain_here & plain_next
    lo, hi = np.where(use_next, nxt[0], here[0]), np.where(use_next, nxt[1], here[1])
    third = np.where((pos >= lo[:, None]) & (pos < hi[:, None]), cells.order[k], M).min(axis=1)
    support, i, j = cells.pencil[k].T
    triple = np.sort(np.stack([i, j, third], axis=1), axis=1)
    m = cells.size[k].astype(np.int64)
    count = np.array([problems[q][1].count for q, _, _ in block])[which][k]
    ids = count + ((support * m + triple[:, 0]) * m + triple[:, 1]) * m + triple[:, 2]
    owners = np.array([q for q, _, _ in block])[which][k]
    return _Kept(owners, ids, gains, lefts, None, None, ~(plain_here | plain_next))


class _Kept(NamedTuple):
    """The candidates a block kept under its problems' floors (_screen)."""

    owners: np.ndarray  # each candidate's problem
    rows: np.ndarray  # its row of W, or its oracle row (_Vertices._row)
    gains: np.ndarray  # its sweep gain
    lefts: np.ndarray  # its left set, a mask over its node's rows and the block's padding
    counts: Optional[np.ndarray]  # a matrix row's left count, at its boundary
    cuts: Optional[np.ndarray]  # a matrix row's threshold there
    moved: Optional[np.ndarray]  # whether an oracle candidate is a tie split


def _best_thresholds(X: np.ndarray, problems, n_full: int, keep: bool = False) -> list:
    """The exact near-best splits of each (node, W) problem.

    A problem pairs a _Node of X's rows with a matrix W of direction
    rows, or with the exhaustive oracle's candidates (_Vertices).  A row
    of a matrix becomes its split's direction as it is, so callers pass
    canonical rows, as canonical_rows gives.  Every candidate is swept
    and screened once under its problem's rising floor (_screen); the
    contenders, those at or above the last floor, get exact decreases
    once per distinct left set, and an oracle problem's contenders their
    stored splits (_vertex_splits).  An oracle problem none of whose
    contenders stored a split is screened again below them (_rescreen).
    With keep, nodes keep their orders for their children (_sources).
    Returns, for each problem, the splits within DECREASE_TOL of its
    largest exact decrease, in row order, as solving every row exactly
    would; empty when no row has a valid split.  Each split carries its
    left set as a mask (Split.left).
    """
    sources = _sources(problems, keep)
    kept, floor = _screen(X, problems, sources, n_full)
    splits, failed = _resolve(problems, sources, kept, floor, n_full)
    for q in failed:
        splits[q] = _rescreen(X, problems[q], float(floor[q]), n_full)
    return [_near_best(found) for found in splits]


def _screen(X: np.ndarray, problems, sources, n_full: int, ceiling=None, quota=None):
    """Sweep every problem's candidates once, in blocks, under rising
    floors: returns (kept, floor), the _Kept of each block and each
    problem's last floor.

    The pencils of oracle problems go first (_blocks of them, _cells),
    as they hold the largest gains.  Then the rows of every problem are
    swept in the blocks of _blocks: each block's rows are sorted
    (_sorted_block: a row the node inherited from its parent is read
    from there, the others are projected and stably sorted; _vertex_block
    for oracle sweep rows), swept (_sweep_gains, one cumsum along the
    rows, which an oracle row's tie splits (_tie_splits) share).  A row's
    candidate is its first boundary b within DECREASE_TOL of its best
    gain, and its left set is the first b + 1 rows of its order (a valid
    boundary lies strictly between two distinct values); an oracle
    row's tie splits and a pencil's cells are candidates of their own.
    A problem's floor is its best gain so far minus its node's margin
    (module docstring), and a block keeps the candidates at or above it.

    ceiling, an array over the problems, drops every candidate whose
    gain reaches its problem's; quota, for a single problem, sets the
    floor by the quota-th largest gain so far in place of the largest.
    """
    floor = np.full(len(problems), -np.inf)
    pool = np.empty(0)  # the quota largest gains so far
    kept = []

    def row_floor(qs, which, counts, best, gains):
        """Raise the floors of the block's problems qs by its rows' best
        gains (problem qs[i] owns the counts[i] rows where which == i;
        gains holds all of the block's candidate gains), and return each
        row's floor."""
        nonlocal pool
        margins = np.array([problems[q][0].margin(n_full) for q in qs])
        if quota is None:
            starts = np.cumsum([0] + counts[:-1])
            floor[qs] = np.maximum(floor[qs], np.maximum.reduceat(best, starts) - margins)
        else:
            pool = np.concatenate([pool, gains[gains > -np.inf]])
            pool = -np.partition(-pool, quota - 1)[:quota] if pool.size >= quota else pool
            if pool.size >= quota:
                floor[qs] = np.maximum(floor[qs], pool.min() - margins)
        return floor[qs][which]

    def capped(gains, which_rows):
        if ceiling is not None:
            np.copyto(gains, -np.inf, where=gains >= ceiling[which_rows])
        return gains

    def layout(block):
        qs = [q for q, _, _ in block]
        counts = [hi - lo for _, lo, hi in block]
        which = np.repeat(np.arange(len(block)), counts)
        offsets = np.concatenate([np.arange(lo, hi) for _, lo, hi in block])
        return qs, counts, which, offsets, np.array(qs)[which]

    pencils = [(node, W.pencils if isinstance(W, _Vertices) else ()) for node, W in problems]
    for block in _blocks(pencils, _PENCIL_ELEMENTS):
        qs, counts, which, _, owners = layout(block)
        cells = _cells(problems, block, which)
        K, M = cells.order.shape
        C = cells.cut_sums.shape[1]
        step = max(1, _CELL_ELEMENTS // (K * M))
        for lo in range(0, C, step):
            gains = capped(_cell_gains(cells, lo, min(lo + step, C), n_full), owners[:, None, None])
            floors = row_floor(qs, which, counts, gains.reshape(K, -1).max(axis=1), gains.ravel())
            k, t, c = np.nonzero((gains >= floors[:, None, None]) & (gains > -np.inf))
            if k.size:
                kept.append(_cell_candidates(problems, block, which, cells, k, t, c + lo, gains[k, t, c]))

    for block in _blocks(problems):
        qs, counts, which, offsets, owners = layout(block)
        ties = None
        if isinstance(problems[qs[0]][1], _Vertices):
            order, sorted_V, m, y, groups = _vertex_block(problems, block, which)
            csum = np.cumsum(y, axis=1)
            ties = _tie_splits(problems, block, which, offsets, order, y, csum, m, n_full, groups)
            gains, thresholds, valid = _sweep_gains(sorted_V, y, m, n_full, csum)
        else:
            order, sorted_V, m, y = _sorted_block(X, problems, sources, block, which)
            gains, thresholds, valid = _sweep_gains(sorted_V, y, m, n_full)
        np.copyto(gains, -np.inf, where=~valid)
        top = capped(gains.max(axis=1), owners)
        best, every = top, top
        if ties is not None:
            capped(ties.gains, owners[ties.rows])
            best = top.copy()
            np.maximum.at(best, ties.rows, ties.gains)
            every = np.concatenate([top, ties.gains])
        floors = row_floor(qs, which, counts, best, every)
        rows = np.flatnonzero((top >= floors) & (top > -np.inf))
        top = top[rows]
        # First boundary within tolerance of the max = smallest threshold.
        boundaries = (gains[rows] >= top[:, None] - DECREASE_TOL).argmax(axis=1)
        cuts = thresholds[rows, boundaries]
        # A row's left set: the rows at or before its boundary in its order.
        width = order.shape[1]
        lefts = np.zeros((rows.size, width), dtype=bool)
        lefts[np.arange(rows.size)[:, None], order[rows]] = np.arange(width) <= boundaries[:, None]
        moved = np.zeros(rows.size, dtype=bool)
        kept.append(_Kept(owners[rows], offsets[rows], top, lefts, boundaries + 1, cuts, moved))
        if ties is not None:
            floors = floors[ties.rows]
            pick = np.flatnonzero((ties.gains >= floors) & (ties.gains > -np.inf))
            rows = ties.rows[pick]
            # A tie split's left set: the rows below its group, then its part.
            places = np.arange(width) < ties.below[pick, None]
            hit, at = np.nonzero(ties.part[pick])
            places[hit, ties.below[pick][hit] + at] = True
            lefts = np.zeros((pick.size, width), dtype=bool)
            lefts[np.arange(pick.size)[:, None], order[rows]] = places
            moved = np.ones(pick.size, dtype=bool)
            kept.append(_Kept(owners[rows], offsets[rows], ties.gains[pick], lefts, None, None, moved))
    return kept, floor


def _resolve(problems, sources, kept, floor, n_full: int):
    """The exact splits of the contenders among kept (_screen), those at
    or above their problem's floor: (splits, failed), the splits of each
    problem in row order, and the oracle problems that had contenders but
    none of whose contenders stored a split."""
    decreases: dict[tuple, float] = {}
    splits = [[] for _ in problems]
    contenders, named = {}, set()
    for owners, offsets, top, lefts, counts, cuts, moved in kept:
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
                # Cells of several pencils name one triple and dichotomy,
                # which stores one split.
                if (key, offsets[i]) not in named:
                    named.add((key, offsets[i]))
                    contenders.setdefault(q, []).append((decreases[key], offsets[i], left, bool(moved[i])))
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
    return splits, [q for q in contenders if not splits[q]]


def _rescreen(X: np.ndarray, problem, ceiling: float, n_full: int) -> list:
    """The stored splits of an oracle problem none of whose contenders
    stored one, at gains up to ceiling (its floor): screen the problem
    again without them, so that the next-best candidates, the axes among
    them, become contenders, until some store a split.

    Each pass drops every candidate tried so far, those whose gain
    reaches the ceiling, and admits the largest quota of the rest, down
    to the quota-th largest gain less the node's margin, with the quota
    growing fourfold from pass to pass.  Once a pass stores a split whose
    decrease E lies within the margin of its floor, one more pass below
    that floor admits the near-best candidates that it left out.  The
    axes always store their splits, so this ends with a split whenever
    the node has a valid one.
    """
    found, quota = [], _RESCREEN_QUOTA
    while True:
        kept, floor = _screen(X, [problem], [None], n_full, np.array([ceiling]), None if found else quota)
        if not kept:
            return found
        (splits,), _ = _resolve([problem], [None], kept, floor, n_full)
        if found:
            return found + splits
        found = splits
        margin = problem[0].margin(n_full)
        if found and max(split.decrease for split in found) - margin >= floor[0]:
            return found
        ceiling, quota = float(floor[0]), 4 * quota


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


def _cross(a: np.ndarray, b: np.ndarray, op=np.subtract):
    """The three coordinates of the cross products of a and b, whose
    first axis holds the three coordinates (broadcast over the others),
    one elementwise product and difference per coordinate; with
    op=np.add, the sums of the same products, which bound the cross
    products' rounding.  np.stack makes them one array."""
    return (
        op(a[1] * b[2], a[2] * b[1]),
        op(a[2] * b[0], a[0] * b[2]),
        op(a[0] * b[1], a[1] * b[0]),
    )


def _oriented(normals: np.ndarray, bound: np.ndarray, reach):
    """Rows normals oriented as canonical_rows orients them, the first
    coefficient above _COEFF_SNAP of the peak positive, so that a sweep's
    order is its stored direction's; and their tie tolerances _TIE_SLACK
    u ||N||_1 R, N = bound the rows' rounding bounds and R = reach the
    peak magnitude of their points (module docstring)."""
    size_of = np.abs(normals)
    significant = size_of > _COEFF_SNAP * size_of.max(axis=1, keepdims=True, initial=0.0)
    first = normals[np.arange(normals.shape[0]), np.argmax(significant, axis=1)]
    normals = np.where(first[:, None] < 0.0, -normals, normals)
    return normals, _TIE_SLACK * _UNIT_ROUNDOFF * np.add.reduce(bound, axis=1) * reach


def _triples(m: int, i: np.ndarray, j: np.ndarray):
    """The index triples i < j < k below m, in lexicographic order, from
    the index pairs i < j in lexicographic order."""
    counts = m - 1 - j
    first = np.repeat(np.cumsum(counts) - counts, counts)
    k = np.repeat(j, counts) + 1 + np.arange(int(counts.sum())) - first
    return np.repeat(i, counts), np.repeat(j, counts), k


def _support_rows(points: np.ndarray, size: int, index: tuple):
    """The oracle's sweep rows on the supports of one size, whose points
    are points (supports x m x size): (owner, normals, defining points,
    tie tolerances), one row each, owner the row's support.  index holds
    the index pairs i < j (size 2) or triples i < j < k (size 3) below
    m, as index arrays.

    size 1: the axis, with no defining point.  size 2: the perpendicular
    (-a_2, a_1) of each nonzero pair difference a = x_j - x_i.  size 3:
    the normal n = a x b, a = x_j - x_i and b = x_k - x_i, of each triple
    that rounding cannot have made collinear: some |n_c| exceeds 8 u N_c,
    where N = |a| x |b| with every product added bounds n's rounding (a
    collinear triple of exactly computed differences gives n = 0).
    Normals are oriented, with their tolerances (N = |n| for a pair), by
    _oriented.  Rows come support by support, each support's in index
    order.
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
        b = (points[:, index[2]] - points[:, index[0]]).reshape(-1, 3).T
        a = a.reshape(-1, 3).T
        normals, bound = np.stack(_cross(a, b), axis=1), np.stack(_cross(np.abs(a), np.abs(b), np.add), axis=1)
        live = np.any(np.abs(normals) > 8.0 * _UNIT_ROUNDOFF * bound, axis=1)
        owner, at = np.divmod(np.flatnonzero(live), index[0].size)
        normals, bound = normals[live], bound[live]
    defining = np.stack([ends[at] for ends in index], axis=1)
    normals, tolerance = _oriented(normals, bound, np.max(np.abs(points), axis=(1, 2))[owner])
    return owner, normals, defining, tolerance


def _tied(V: np.ndarray, defining: np.ndarray, tolerance: np.ndarray):
    """Rows V of a row's values with its tie group, its defining points
    and every point within its tolerance of the first one's value,
    written equal to that value: (values, below, tied, on), the count of
    values below the group's, the group's size and its mask."""
    at = np.arange(V.shape[0])[:, None]
    pivot = V[at, defining[:, :1]]
    on = np.abs(V - pivot) <= tolerance[:, None]
    on[at, defining] = True
    V = np.where(on, pivot, V)
    return V, np.count_nonzero(V < pivot, axis=1), np.count_nonzero(on, axis=1), on


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
        u = np.stack(_cross(normal, d))
        offsets = points - points[a]
        (across,) = projections(offsets, u[None])
        bound = np.stack(_cross(np.abs(normal), np.abs(d), np.add))
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
    """The exhaustive oracle's candidates on one node (module docstring):
    its sweep rows with the values its sweep sorts, its pencils, and the
    splits it stores.

    features is the node's m x p rows, and d <= 3 (_search_level checks
    it).  The sweep rows are, in support order, the axes, the pair
    perpendiculars of each 2-coordinate support and, on fewer than
    _PENCIL_ROWS rows, the triple normals of each 3-coordinate support
    (_support_rows on the support's points, rescaled by _rescaled).  A
    sweep row's tie group is its defining points and every point whose
    value lies within its tolerance of theirs: the points on its line or
    plane.  With d = 3 on _PENCIL_ROWS rows or more, solids holds the
    3-coordinate supports, their rescaled points and the points' peak
    magnitudes, and pencils one row (support, i, j) for each pair i < j
    of distinct points of each (_cells sweeps them).  A pencil's
    candidate names the triple i < j < k of its crossing, row count +
    ((t m + i) m + j) m + k of support t: its normal and tie group are
    those of the plane through the three points, as a triple row's are.
    """

    def __init__(self, features: np.ndarray, d: int):
        self.features = features
        m, p = features.shape
        pairs = np.triu_indices(m, k=1)
        # Per support size: (supports, their points, first row, owner,
        # normals, defining points, tolerances).
        pencils = min(d, p) == 3 and m >= _PENCIL_ROWS
        index = {1: (), 2: pairs, 3: () if pencils or min(d, p) < 3 else _triples(m, *pairs)}
        self.sizes, start = [], 0
        for size in range(1, min(d, p, 2 if pencils else 3) + 1):
            supports, points = _supports(features, size)
            rows = _support_rows(points, size, index[size])
            self.sizes.append((supports, points, start) + rows)
            start += rows[0].size
        self.count = start
        self.solids, self.pencils = None, np.zeros((0, 3), dtype=np.intp)
        if pencils:
            supports, points = _supports(features, 3)
            owner, at = np.nonzero(np.any(points[:, pairs[1]] != points[:, pairs[0]], axis=2))
            self.solids = supports, points, np.max(np.abs(points), axis=(1, 2))
            self.pencils = np.stack([owner, pairs[0][at], pairs[1][at]], axis=1)
        self._parts, self._triples = {}, {}

    def __len__(self) -> int:
        return self.count

    def _row(self, r: int):
        """(support, its points, normal, defining points, tolerance) of
        row r: a sweep row, or a pencil's triple (_name)."""
        if r >= self.count:
            self._name([r])
            return self._triples[r]
        for supports, points, start, owner, normals, defining, tolerance in self.sizes:
            if r < start + owner.size:
                i, t = r - start, owner[r - start]
                return supports[t], points[t], normals[i], defining[i], tolerance[i]
        raise IndexError(r)

    def _name(self, rows) -> None:
        """Compute, together, the _row of each triple among rows not yet
        known: the cross product (x_j - x_i) x (x_k - x_i) of its rescaled
        points, oriented, with its tolerance (_oriented)."""
        new = sorted({r for r in rows if r >= self.count and r not in self._triples})
        if not new:
            return
        m = self.features.shape[0]
        t, rest = np.divmod(np.array(new) - self.count, m**3)
        defining = np.stack([rest // (m * m), rest // m % m, rest % m], axis=1)
        supports, points, reach = self.solids
        x = points[t[:, None], defining]
        a, b = (x[:, 1] - x[:, 0]).T, (x[:, 2] - x[:, 0]).T
        normals, bound = np.stack(_cross(a, b), axis=1), np.stack(_cross(np.abs(a), np.abs(b), np.add), axis=1)
        normals, tolerance = _oriented(normals, bound, reach[t])
        for r, s, row, normal, slack in zip(new, t.tolist(), defining, normals, tolerance):
            self._triples[r] = supports[s], points[s], normal, row, slack

    def levels(self, lo: int, hi: int):
        """The sweep's values of sweep rows lo..hi - 1 at the node's
        points, as (values, below, tied, size): each row's levels, the
        projections of its support's points onto its normal
        (dataset.projections), with its tie group written equal to its
        first defining point's value (_tied); the count of values below
        that one; the group's size (0 for an axis); and the support's
        size.  An axis row's levels are its support's points as they
        are, 1.0 x = x."""
        m = self.features.shape[0]
        values = np.empty((hi - lo, m))
        below, tied, size = (np.zeros(hi - lo, dtype=np.intp) for _ in range(3))
        for _, points, start, owner, normals, defining, tolerance in self.sizes:
            a, b = max(lo, start), min(hi, start + owner.size)
            if a >= b:
                continue
            rows, out = slice(a - start, b - start), slice(a - lo, b - lo)
            size[out] = normals.shape[1]
            if normals.shape[1] == 1:
                values[out] = points[owner[rows], :, 0]
                continue
            # Rows come support by support: one projection per support.
            V = np.empty((b - a, m))
            cuts = (np.flatnonzero(np.diff(owner[rows])) + 1).tolist()
            for i, j in zip([0, *cuts], [*cuts, b - a]):
                V[i:j] = projections(points[owner[a - start + i]], normals[a - start + i : a - start + j])
            values[out], below[out], tied[out], _ = _tied(V, defining[rows], tolerance[rows])
        return values, below, tied, size

    def parts(self, r: int, members: np.ndarray) -> dict:
        """The proper nonempty parts of row r's tie group (members,
        ascending node indices) that a hyperplane moved off the row's
        normal can put below the rest of the group (_separations), as
        {mask bytes: (mask over members, witness)} with the first witness
        found.  Rows of one support with the same group lie on one line
        or plane, with parallel normals, and share the first one's
        result."""
        support, points, normal, _, _ = self._row(r)
        key = (support, members.tobytes())
        if key not in self._parts:
            found = self._parts[key] = {}
            every = 2**members.size - 2  # the search stops once it has found every proper part
            for inside, witness in _separations(points[members], normal):
                if inside.any() and not inside.all():
                    found.setdefault(inside.tobytes(), (inside, witness))
                    if len(found) == every:
                        break
        return self._parts[key]

    def _moved(self, r: int, left: np.ndarray):
        """Row r's normal n moved into the cell of directions that realize
        left, which holds part of its tie group: n tilted (_tilt) by the
        first witness g . x - c of parts that separates the group's part
        from the rest within the line or plane, against the levels n . (x
        - x_i) of the points off it, so no other point changes side and
        the part lies below the rest.  The group is the one _tied finds
        on the row's levels.  When left holds the points above the
        group, as a pencil's cell may, the part of its complement is
        moved below.  None if no witness separates the part."""
        _, points, w, defining, tolerance = self._row(r)
        (levels,), _, _, (on,) = _tied(projections(points, w[None]), defining[None], tolerance[None])
        pivot = levels[defining[0]]
        if np.any(left & (levels > pivot)):
            left = ~left
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
        self._name(rows)
        for i, r in enumerate(rows):
            support, _, w, _, _ = self._row(r)
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


def _supports(features: np.ndarray, size: int):
    """The supports of `size` coordinates, in combinations order, and
    their points (supports x m x size), rescaled (_rescaled)."""
    supports = list(itertools.combinations(range(features.shape[1]), size))
    return supports, _rescaled(np.moveaxis(features[:, np.array(supports)], 1, 0))


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

    Sweeps, for every support of size <= sparsity_d, its axes and the
    perpendiculars of its point pairs, each with its tie group kept
    whole and the parts of the group that a line moved off it separates
    scored as left sets of their own, and rotates a plane about the line
    through each pair of its points, scoring every cell between two
    crossings (_Vertices).  Every dichotomy of the node that a
    hyperplane with at most sparsity_d nonzero coefficients strictly
    separates is met at a vertex of its cone of hyperplanes, and no
    other is scored, so on data whose normals and projections are
    computed exactly (for example integer coordinates of magnitude below
    2^10) the returned split is a true maximizer over the restricted
    space; elsewhere ties are decided within rounding (module
    docstring).  Restricted to small instances by node_cap.
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

    The oracle decrease is computed once, in a _search_level call at
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
    sample = _Node.of(dataset, node)
    exact = SearchStrategy(kind="exhaustive_oblique", sparsity_d=dataset.p, node_cap=strategy.node_cap)
    (oracle,) = _search_level(dataset, [sample], exact, [exact.seed])
    if oracle is None:
        raise NoValidSplitError("no valid split on this node")
    seeded = (strategy.kind == "hill_climb" and strategy.restarts > 1) or (
        strategy.kind == "random_projection" and strategy.num_candidates > 0
    )
    if strategy.kind == "exhaustive_oblique" and strategy.sparsity_d >= dataset.p:
        splits = [oracle] * trials
    elif seeded:
        seeds = [strategy.seed + trial for trial in range(trials)]
        splits = _search_level(dataset, [sample] * trials, strategy, seeds)
    else:
        splits = _search_level(dataset, [sample], strategy, [strategy.seed]) * trials
    decreases = tuple(0.0 if split is None else split.decrease for split in splits)
    successes = sum(achieved >= kappa * oracle.decrease - DECREASE_TOL for achieved in decreases)
    return SuboptimalityReport(
        kappa=kappa,
        trials=trials,
        success_fraction=successes / trials,
        oracle_decrease=oracle.decrease,
        per_trial_decreases=decreases,
    )

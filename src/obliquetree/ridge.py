"""Ridge-function models: evaluation, exact total variation, generators.

A RidgeModel is an intercept plus a sum of univariate components, each
composed with a direction: g(x) = c + Sum_k h_k(x . a_k).  Component
kinds are restricted to shapes whose derivative sign changes have closed
forms, so the total variation of h_k over an interval is computed
exactly by splitting at the critical points and summing the monotone
increments.

The capacity norm of a model on a node sums the component variations
over the node's empirical projection intervals.  Note this is the norm
of the *given* representation, not the infimum over all equivalent
representations, so it upper-bounds the tightest possible value; it is
also exactly the quantity that the split-quality lower bounds control.

Model values and the norm's intervals project with dataset.projections,
the kernel that split search and routing use, so a point's value depends
neither on the rows evaluated with it nor on the BLAS build.  Linear,
relu and cubic profiles use only elementwise products and sums (the
cubic one multiplies z out rather than calling numpy's power), so their
values are also the same at every numpy SIMD level.  The sigmoid profile
calls np.exp, whose last bits change with the SIMD level; the sine
profile calls np.sin, which numpy does not promise to keep either.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    _NO_FIELDS, Dataset, Direction, _as_is, _json_text, _list, _named, _points, _real, _reals,
    _record, _seeded_words, projections, validate_index_set,
)
from .tree import _column_major, node_rows

COMPONENT_KINDS = ("linear", "relu", "sigmoid", "sine", "cubic")

_DEFAULT_PARAMS = {
    "linear": {"slope": 1.0},
    "relu": {"slope": 1.0, "kink": 0.0},
    "sigmoid": {"amplitude": 1.0, "gain": 1.0, "center": 0.0},
    "sine": {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0},
    "cubic": {"c3": 1.0, "c2": 0.0, "c1": 0.0, "c0": 0.0},
}


def parse_domain_box(domain_box) -> tuple[tuple[float, float], ...]:
    """A domain box as (lo, hi) float pairs, one per coordinate: a JSON
    list of [lo, hi] lists of finite numbers (from Python, tuples or
    arrays too)."""
    return _list(_list(_real, 2))(domain_box)


@dataclass(frozen=True)
class RidgeComponent:
    """One univariate shape composed with a direction."""

    kind: str
    direction: Direction
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        given = _record(f"{self.kind} parameters", self.parameters, _NO_FIELDS, _READERS[self.kind])
        object.__setattr__(self, "parameters", {**_DEFAULT_PARAMS[self.kind], **given})

    def profile(self, z):
        """The univariate shape h(z), vectorized over z."""
        z = np.asarray(z, dtype=np.float64)
        q = self.parameters
        if self.kind == "linear":
            return q["slope"] * z
        if self.kind == "relu":
            return q["slope"] * np.maximum(z - q["kink"], 0.0)
        if self.kind == "sigmoid":
            return q["amplitude"] / (1.0 + np.exp(-q["gain"] * (z - q["center"])))
        if self.kind == "sine":
            return q["amplitude"] * np.sin(q["frequency"] * z + q["phase"])
        # Products, not numpy's vectorized power, whose z**3 has other
        # last bits at other SIMD levels.
        return q["c3"] * (z * z * z) + q["c2"] * (z * z) + q["c1"] * z + q["c0"]

    def critical_points(self, lo: float, hi: float) -> list[float]:
        """Interior points where the shape's derivative can change sign."""
        q = self.parameters
        if self.kind == "relu":
            return [q["kink"]] if lo < q["kink"] < hi else []
        if self.kind == "sine":
            freq, phase = q["frequency"], q["phase"]
            if freq == 0.0 or q["amplitude"] == 0.0:
                return []
            # Extrema at freq*z + phase = pi/2 + k*pi; handle either sign of freq.
            u1, u2 = freq * lo + phase, freq * hi + phase
            u_lo, u_hi = min(u1, u2), max(u1, u2)
            k_lo = math.ceil((u_lo - math.pi / 2) / math.pi)
            k_hi = math.floor((u_hi - math.pi / 2) / math.pi)
            points = [(math.pi / 2 + k * math.pi - phase) / freq for k in range(k_lo, k_hi + 1)]
            return sorted(z for z in points if lo < z < hi)
        if self.kind == "cubic":
            a, b, c = 3.0 * q["c3"], 2.0 * q["c2"], q["c1"]
            roots: list[float] = []
            if a == 0.0:
                if b != 0.0:
                    roots = [-c / b]
            else:
                disc = b * b - 4.0 * a * c
                if disc > 0.0:
                    s = math.sqrt(disc)
                    roots = [(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)]
                elif disc == 0.0:
                    roots = [-b / (2.0 * a)]
            return sorted(z for z in roots if lo < z < hi)
        return []  # linear and sigmoid are monotone

    def to_dict(self) -> dict:
        direction = list(self.direction.coefficients)
        return {**vars(self), "parameters": dict(self.parameters), "direction": direction}


@dataclass(frozen=True)
class RidgeModel:
    components: tuple[RidgeComponent, ...]
    intercept: float = 0.0

    def __post_init__(self):
        if not self.components:
            raise ValueError("model needs at least one component")
        dims = {len(c.direction.coefficients) for c in self.components}
        if len(dims) != 1:
            raise ValueError("components disagree on dimension")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def p(self) -> int:
        return len(self.components[0].direction.coefficients)

    def to_dict(self) -> dict:
        return {**vars(self), "components": [c.to_dict() for c in self.components]}

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "RidgeModel":
        return RidgeModel(**_record("ridge model", data, _MODEL_FIELDS, _INTERCEPT))

    @staticmethod
    def from_json(text: str) -> "RidgeModel":
        return RidgeModel.from_dict(json.loads(text))


# The readers of each kind's parameters, and of a model's and a
# component's JSON fields; RidgeComponent checks the kind and reads the
# parameters, from JSON or from Python.
_READERS = {kind: dict.fromkeys(defaults, _real) for kind, defaults in _DEFAULT_PARAMS.items()}
_COMPONENT_FIELDS = dict(kind=_as_is, direction=lambda value: Direction.canonical(_reals(value)))
_PARAMETERS = dict(parameters=_as_is)
_MODEL_FIELDS = dict(components=_list(
    lambda entry: RidgeComponent(**_record("component", entry, _COMPONENT_FIELDS, _PARAMETERS))
))
_INTERCEPT = dict(intercept=_real)


@dataclass(frozen=True)
class TVReport:
    """Per-component total variations over node intervals, plus their sum."""

    per_component: tuple[tuple[RidgeComponent, tuple[float, float], float], ...]
    total: float


def eval_ridge(model: RidgeModel, x) -> float:
    """Model value at a single point: eval_ridge_batch of one row."""
    return float(eval_ridge_batch(model, _points(x, model.p, one=True))[0])


def eval_ridge_batch(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    """Model values at the rows of X: one projections call, on a column-major
    copy of a large batch (tree._column_major), then each profile."""
    W = _directions(model)
    X = _column_major(_points(X, model.p), W)
    out = np.full(X.shape[0], model.intercept)
    for comp, z in zip(model.components, projections(X, W)):
        out += comp.profile(z)
    return out


def _directions(model: RidgeModel) -> np.ndarray:
    return np.array([comp.direction.coefficients for comp in model.components])


def total_variation(component: RidgeComponent, interval) -> float:
    """Exact variation of the component's shape over [lo, hi].

    The interval is split at the shape's critical points; on each
    monotone piece the variation is the absolute increment, so the sum
    is exact up to floating point.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("interval endpoints must be finite")
    if lo > hi:
        raise ValueError("interval must satisfy lo <= hi")
    if lo == hi:
        return 0.0
    knots = [lo] + component.critical_points(lo, hi) + [hi]
    values = component.profile(np.asarray(knots))
    return float(np.sum(np.abs(np.diff(values))))


def l1_tv_norm(model: RidgeModel, dataset: Dataset, node) -> TVReport:
    """Capacity norm of the model over a node's empirical hull.

    Each component contributes its variation over the interval spanned
    by the node's projections onto that component's direction; the total
    is their sum.  A singleton node has zero-length intervals and norm 0.
    """
    idx = validate_index_set(node, dataset.n)
    if dataset.p != model.p:
        raise ValueError(f"model has dimension {model.p}, dataset p={dataset.p}")
    rows = []
    total = 0.0
    block = projections(dataset.features, _directions(model), idx)
    for comp, values in zip(model.components, block):
        interval = (float(values.min()), float(values.max()))
        tv = total_variation(comp, interval)
        rows.append((comp, interval, tv))
        total += tv
    return TVReport(per_component=tuple(rows), total=total)


def generate_dataset(
    model: RidgeModel, n: int, noise_std: float, domain_box, seed: int
) -> Dataset:
    """Sample x uniformly on a box and y from the model plus Gaussian noise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(noise_std) and noise_std >= 0):  # NaN fails every comparison
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    box = _named("domain_box", parse_domain_box, domain_box)
    if len(box) != model.p:
        raise ValueError(f"domain box must have {model.p} sides")
    lows, highs = np.array(box).T
    with np.errstate(over="ignore"):
        widths = highs - lows
    if not (np.isfinite(widths) & (widths >= 0)).all():
        raise ValueError("invalid domain box: each side needs lo <= hi and a finite hi - lo")
    words, bits = _seeded_words(seed, (n, model.p))
    # Generator.uniform's formula (samples keep their bits), block by block in
    # the words' memory: a whole-sample temporary would double peak memory.
    X = words.view(np.float64)
    for s in range(0, n, 4096):
        X[s : s + 4096] = lows + widths * ((words[s : s + 4096] >> np.uint64(11)) * 2.0**-53)
    y = eval_ridge_batch(model, X)
    if noise_std > 0:
        # The one draw not from the raw stream: a normal needs exp and log,
        # and the library has no kernels for them with fixed bits on every CPU.
        y = y + np.random.Generator(bits).normal(0.0, noise_std, size=n)
    return Dataset(X, y)


def node_tv_profile(model: RidgeModel, tree, dataset: Dataset, q: float):
    """Per-leaf capacity norms and their q-th power sum.

    Used to find the smallest (V, q) pair for which the grown tree's
    leaf norms satisfy Sum_t norm_t^q <= V^q empirically.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    per_leaf = _leaf_norms(model, tree, dataset, node_rows(tree, dataset))
    return per_leaf, _power_sum(per_leaf, q)


def _leaf_norms(model: RidgeModel, tree, dataset: Dataset, rows: dict) -> list[float]:
    """The capacity norm of the model on each leaf, in leaf-id order;
    rows is node_rows of tree, or of a tree that tree is a subtree of."""
    return [l1_tv_norm(model, dataset, rows[nid]).total for nid in tree.leaf_ids()]


def _power_sum(per_leaf, q: float) -> float:
    """Sum_t norm_t^q over the given leaf norms."""
    return float(sum(v**q for v in per_leaf))


def node_size_profile(tree) -> tuple[int, float]:
    """Largest terminal node size and the implied balancedness factor.

    With K the realized depth, the factor A = 2^K * max_t n(t) / n makes
    max_t n(t) = A * n / 2^K hold exactly for this tree.
    """
    max_size = max(tree.nodes[nid].count for nid in tree.leaf_ids())
    factor = (2**tree.max_depth_reached) * max_size / tree.n
    return max_size, factor


def leaf_intervals_1d(tree, dataset: Dataset) -> dict[int, tuple[float, float]]:
    """Tree-induced interval of each leaf for 1-D data.

    Intersects the ancestor threshold constraints and clips to the root
    empirical hull, so the leaf intervals tile the hull exactly (unlike
    per-leaf empirical hulls, which leave gaps between leaves).
    """
    if tree.p != 1:
        raise ValueError("leaf intervals are defined for p = 1")
    root_lo = float(dataset.features[:, 0].min())
    root_hi = float(dataset.features[:, 0].max())
    out: dict[int, tuple[float, float]] = {}
    stack = [(tree.root_id, root_lo, root_hi)]
    while stack:
        nid, lo, hi = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out[nid] = (lo, hi)
            continue
        # 1-D directions are canonically +1, so the threshold is in x units.
        b = node.split.threshold
        stack.append((node.left_child, lo, min(hi, b)))
        stack.append((node.right_child, max(lo, b), hi))
    return out


def leaf_additivity_gap_1d(model: RidgeModel, tree, dataset: Dataset) -> float:
    """|sum of leaf norms - root norm| on the tree's 1-D interval partition.

    Because the intervals tile the root hull and variation is additive
    over abutting intervals, the gap is zero up to floating point.
    """
    intervals = leaf_intervals_1d(tree, dataset)
    root_lo = float(dataset.features[:, 0].min())
    root_hi = float(dataset.features[:, 0].max())
    leaf_sum = 0.0
    root_total = 0.0
    for comp in model.components:
        root_total += total_variation(comp, (root_lo, root_hi))
        for lo, hi in intervals.values():
            leaf_sum += total_variation(comp, (lo, hi))
    return abs(leaf_sum - root_total)

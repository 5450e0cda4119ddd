"""Rate experiments, bound checks, and IMSE estimation.

run_rate_experiment asserts, per realization, that the excess training
error of the depth-K tree stays below norm^2 / (kappa * K), where norm
is the target model's capacity norm over the training hull.  That bound
is only guaranteed when the split search is exact (exhaustive oblique at
full sparsity, kappa = 1), so those preconditions are enforced.  The
fast-decay comparison and the pruning/IMSE experiments hold in
expectation with unknown constants, so they are reported, not asserted.

All reports are deterministic functions of their config: same seed, same
bytes (the wall-time metadata field aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dataset import (
    Dataset, _integer, _json_text, _list, _real, _reals, _record, root_index_set,
    validate_index_set,
)
from .pruning import _grid_scores, _holdout_fit
from .ridge import (
    RidgeModel,
    _leaf_norms,
    _power_sum,
    eval_ridge_batch,
    generate_dataset,
    l1_tv_norm,
    node_size_profile,
    parse_domain_box,
)
from .splitting import NoValidSplitError, SearchStrategy, _Node, _search_level
from .tree import Tree, _depth_scores, _mse, grow, node_rows, predict_batch, prune_to_depth, route

_BOUND_SLACK = 1e-9
_Q_GRID = (2.1, 2.5, 3.0, 4.0)


class BoundViolationError(AssertionError):
    """A per-realization guarantee failed; carries the finished report."""

    def __init__(self, message: str, report: "RateReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ExperimentConfig:
    model: RidgeModel
    n: int
    noise_std: float
    seed: int
    strategy: SearchStrategy
    depth_range: tuple[int, int]
    domain_box: tuple[tuple[float, float], ...]
    lambda_grid: tuple[float, ...] = ()
    mc_size: int = 2000
    holdout_fraction: float = 0.3
    min_node_size: int = 1

    def __post_init__(self):
        lo, hi = self.depth_range
        if not 0 <= lo <= hi:
            raise ValueError("depth range must satisfy 0 <= lo <= hi")
        if self.n < 1 or self.mc_size < 1:
            raise ValueError("counts must be >= 1")

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "model": self.model.to_dict(),
            "strategy": self.strategy.to_dict(),
            "depth_range": list(self.depth_range),
            "domain_box": [list(side) for side in self.domain_box],
            "lambda_grid": list(self.lambda_grid),
        }

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        return ExperimentConfig(**_record("experiment config", data, _CONFIG_FIELDS, _DEFAULTED))


# The JSON readers of a config's fields: those without a default, and
# those whose absence leaves ExperimentConfig's default.
_CONFIG_FIELDS = dict(
    model=RidgeModel.from_dict, n=_integer, noise_std=_real, seed=_integer,
    strategy=SearchStrategy.from_dict, depth_range=_list(_integer, 2), domain_box=parse_domain_box,
)
_DEFAULTED = dict(lambda_grid=_reals, mc_size=_integer, holdout_fraction=_real, min_node_size=_integer)


@dataclass
class RateReport:
    """Per-depth rows plus config echo and wall time."""

    kind: str
    config: ExperimentConfig
    rows: list[dict]
    summary: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {**vars(self), "config": self.config.to_dict()}

    def to_json(self) -> str:
        return _json_text(self.to_dict())

    def write(self, prefix: str) -> None:
        """Write <prefix>.json plus a JSON-lines and flat CSV row mirror."""
        with open(f"{prefix}.json", "w") as handle:
            handle.write(self.to_json())
        with open(f"{prefix}.jsonl", "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        if self.rows:
            columns = sorted(self.rows[0])
            with open(f"{prefix}.csv", "w") as handle:
                handle.write(",".join(columns) + "\n")
                for row in self.rows:
                    handle.write(",".join(repr(row[c]) for c in columns) + "\n")


def estimate_imse(
    tree: Tree, model: RidgeModel, mc_size: int, domain_box, seed: int
) -> tuple[float, float]:
    """Monte Carlo integrated squared error of a tree against a model.

    Returns (estimate, standard error) over mc_size uniform draws.
    """
    sample = _imse_sample(model, mc_size, domain_box, seed)
    return _imse(sample, predict_batch(tree, sample.features))


def _imse_sample(model: RidgeModel, mc_size: int, domain_box, seed: int) -> Dataset:
    """estimate_imse's Monte Carlo sample, drawn once per experiment and
    shared by every tree it scores."""
    if mc_size < 1:
        raise ValueError("mc_size must be >= 1")
    return generate_dataset(model, mc_size, 0.0, domain_box, seed)


def _imse(sample: Dataset, pred: np.ndarray) -> tuple[float, float]:
    """(estimate, standard error) of the squared error of predictions
    at the sample's points."""
    sq = (sample.response - pred) ** 2
    stderr = float(sq.std(ddof=1) / np.sqrt(sample.n)) if sample.n > 1 else 0.0
    return float(sq.mean()), stderr


def _realization(config: ExperimentConfig, what: str, lowest: int, exact_bound: bool = False):
    """The preconditions, then the one realization of a noiseless rate
    experiment: the sample, its capacity norm, one grow at the deepest
    depth, its node_rows, and (depth, tree, training error) of each
    prefix from depth lowest on, every error read off that one routing.
    The sample is noiseless, so a prefix's training error is also its
    excess error.  exact_bound adds the norm^2/K bound's needs."""
    if config.strategy.kind != "exhaustive_oblique":
        raise ValueError(f"{what} requires the exhaustive_oblique strategy")
    if exact_bound and (config.model.p > 3 or config.strategy.sparsity_d < config.model.p):
        raise ValueError(f"{what} requires full sparsity with p <= 3")
    if exact_bound and config.n > config.strategy.node_cap:
        raise ValueError("n exceeds the exhaustive search cap")
    if config.noise_std != 0.0:
        raise ValueError(f"{what} requires noiseless data")
    start = time.perf_counter()
    dataset = generate_dataset(config.model, config.n, 0.0, config.domain_box, config.seed)
    norm = l1_tv_norm(config.model, dataset, root_index_set(dataset)).total
    full = grow(dataset, config.strategy, config.depth_range[1], config.min_node_size)
    rows = node_rows(full, dataset)
    depths = range(lowest, config.depth_range[1] + 1)
    errors = _depth_scores(full, rows, depths, partial(_mse, dataset.response))
    prefixes = [(depth, prune_to_depth(full, depth), err) for depth, err in zip(depths, errors)]
    return start, dataset, norm, full, rows, prefixes


def run_rate_experiment(config: ExperimentConfig) -> RateReport:
    """Excess-training-error decay against the norm^2/K guarantee.

    Grows once at the deepest requested K with the exact exhaustive
    search and reads shallower trees off as prefixes.  Every row records
    the excess error and the bound; a violation raises BoundViolationError
    after the full report is assembled.
    """
    start, _, norm, full, _, prefixes = _realization(
        config, "rate experiment", config.depth_range[0], True
    )
    sample = _imse_sample(config.model, config.mc_size, config.domain_box, config.seed + 7001)
    imses = _depth_scores(
        full, route(full, sample.features), [depth for depth, _, _ in prefixes], partial(_imse, sample)
    )
    rows = []
    violations = []
    for (depth, tree, err), (imse, imse_se) in zip(prefixes, imses):
        bound = norm**2 / max(depth, 1)  # kappa = 1 under the preconditions
        ok = err <= bound * (1.0 + _BOUND_SLACK) + _BOUND_SLACK
        if depth >= 1 and not ok:
            violations.append(depth)
        rows.append({
            "depth": depth, "train_error": err, "excess_error": err, "bound": bound,
            "bound_satisfied": bool(depth < 1 or ok), "leaf_count": tree.leaf_count(),
            "imse": imse, "imse_se": imse_se,
        })
    report = RateReport(
        kind="rate",
        config=config,
        rows=rows,
        summary={"capacity_norm": norm, "violations": violations},
        wall_time_s=time.perf_counter() - start,
    )
    if violations:
        raise BoundViolationError(
            f"excess error exceeded the norm^2/K bound at depths {violations}", report
        )
    return report


def run_fast_rate_experiment(config: ExperimentConfig) -> RateReport:
    """Fast-decay comparison with diagnostics measured on the run itself.

    The balancedness factor A and capacity norm V come from the realized
    trees; q is the smallest grid value whose leaf-norm power sums stay
    below V^q at every depth.  The comparison row records whether the
    excess error sits below A * V^2 / 4^((K-1)/q); the underlying result
    bounds expectations, so nothing is asserted here.
    """
    if config.depth_range[1] < 1:
        raise ValueError("fast rate experiment needs a depth range with a depth >= 1")
    start, dataset, norm, _, training_rows, prefixes = _realization(
        config, "fast rate experiment", max(config.depth_range[0], 1)
    )
    q_grid = sorted(set(_Q_GRID) | ({float(config.model.p)} if config.model.p > 2 else set()))
    leaf_norms = [_leaf_norms(config.model, tree, dataset, training_rows) for _, tree, _ in prefixes]
    chosen_q = next(
        (q for q in q_grid if all(_power_sum(v, q) <= norm**q * (1 + 1e-12) for v in leaf_norms)),
        None,
    )
    balances = [node_size_profile(tree)[1] for _, tree, _ in prefixes]
    balance = max(balances)
    rows = []
    for (depth, tree, err), norms, factor in zip(prefixes, leaf_norms, balances):
        bound = balance * norm**2 / 4.0 ** ((depth - 1) / chosen_q) if chosen_q else None
        rows.append({
            "depth": depth, "train_error": err, "excess_error": err, "fast_bound": bound,
            "fast_bound_satisfied": (None if bound is None else bool(err <= bound)),
            "balance_factor": factor, "max_leaf_norm": max(norms),
            "leaf_norm_power_sum": _power_sum(norms, chosen_q if chosen_q else _Q_GRID[0]),
            "leaf_count": tree.leaf_count(),
        })
    return RateReport(
        kind="fast_rate",
        config=config,
        rows=rows,
        summary={
            "capacity_norm": norm,
            "q": chosen_q,
            "balance_factor": balance,
            "q_grid": list(q_grid),
        },
        wall_time_s=time.perf_counter() - start,
    )


def verify_impurity_bound(
    dataset: Dataset, model: RidgeModel, nodes, node_cap: int = SearchStrategy.node_cap
) -> list[dict]:
    """Margins of the split-quality lower bound on the given nodes.

    For each node with positive excess risk R(t) (its mean-squared
    response residual around the node mean minus its residual around the
    model), the exact best decrease must be at least
    w(t) * R(t)^2 / norm(t)^2.  Returns one row per eligible node with
    the achieved margin lhs - rhs; nodes with R(t) <= 0 are skipped.
    Every node must be an index set (dataset.validate_index_set), and
    all are checked before any is read.
    The eligible nodes share one exhaustive search call at sparsity p.
    """
    if dataset.p > 3:
        raise ValueError("impurity bound check needs p <= 3 for the exact oracle")
    rows, eligible = [], []
    for idx in [validate_index_set(node, dataset.n) for node in nodes]:
        y = dataset.response[idx]
        g = eval_ridge_batch(model, dataset.features[idx])
        excess = float(np.mean((y - y.mean()) ** 2) - np.mean((y - g) ** 2))
        rows.append({"size": int(idx.size), "excess": excess, "skipped": excess <= 0.0})
        if not rows[-1]["skipped"]:
            eligible.append((rows[-1], _Node(y, idx)))
    oracle = SearchStrategy(kind="exhaustive_oblique", sparsity_d=dataset.p, node_cap=node_cap)
    samples = [sample for _, sample in eligible]
    splits = _search_level(dataset, samples, oracle, [oracle.seed] * len(samples))
    for (row, sample), split in zip(eligible, splits):
        if split is None:
            raise NoValidSplitError("no valid split on this node")
        weight = sample.rows.size / dataset.n
        norm_t = l1_tv_norm(model, dataset, sample.rows).total
        rhs = weight * row["excess"] ** 2 / norm_t**2 if norm_t > 0 else 0.0
        row.update(oracle_decrease=split.decrease, rhs=rhs, margin=split.decrease - rhs)
    return rows


def run_pruning_experiment(config: ExperimentConfig) -> RateReport:
    """Holdout penalty selection versus fixed-depth fits, measured by IMSE.

    Grows on the non-holdout rows, selects the penalty on the holdout
    rows, and tabulates (lambda, leaf count, holdout error, IMSE) along
    the grid next to the fixed-depth IMSE curve.
    """
    if not config.lambda_grid:
        raise ValueError("pruning experiment needs a lambda grid")
    start = time.perf_counter()
    dataset = generate_dataset(
        config.model, config.n, config.noise_std, config.domain_box, config.seed
    )
    k_lo, k_hi = config.depth_range
    lam_star, hold_errors, full, sequence = _holdout_fit(
        dataset, config.strategy, k_hi, config.lambda_grid, config.holdout_fraction,
        config.seed + 1, config.min_node_size,
    )
    sample = _imse_sample(config.model, config.mc_size, config.domain_box, config.seed + 7002)
    reached, imse_of = route(full, sample.features), partial(_imse, sample)
    grid_imses = _grid_scores(full, sequence, config.lambda_grid, reached, imse_of)
    # Leaf counts are read off the sequence and the node depths, with no
    # subtree built: the subtree for lam collapses the first prefix(lam)
    # steps, and prune_to_depth(full, depth) keeps as leaves the nodes at
    # that depth and the leaves above it.
    leaves = [sequence.initial_leaf_count] + [step.leaf_count_after for step in sequence.steps]
    rows = [
        {"lambda": lam, "leaf_count": leaves[sequence.prefix(lam)],
         "holdout_error": hold_err, "imse": imse, "imse_se": imse_se}
        for lam, hold_err, (imse, imse_se) in zip(config.lambda_grid, hold_errors, grid_imses)
    ]
    depths = range(k_lo, k_hi + 1)
    fixed = [
        {"depth": depth, "imse": imse, "imse_se": imse_se,
         "leaf_count": sum(nd.depth == depth or (nd.is_leaf and nd.depth < depth)
                           for nd in full.nodes.values())}
        for depth, (imse, imse_se) in zip(depths, _depth_scores(full, reached, depths, imse_of))
    ]
    # _holdout_fit picks lam_star from the grid, and 0 <= k_lo <= k_hi.
    star = rows[config.lambda_grid.index(lam_star)]
    return RateReport(
        kind="pruning",
        config=config,
        rows=rows,
        summary={
            "lambda_star": lam_star,
            "pruned_imse": star["imse"],
            "pruned_imse_se": star["imse_se"],
            "pruned_leaf_count": star["leaf_count"],
            "fixed_depth": fixed,
            "root_imse": fixed[0]["imse"] if k_lo == 0 else None,
            "best_fixed_imse": min(r["imse"] for r in fixed),
        },
        wall_time_s=time.perf_counter() - start,
    )

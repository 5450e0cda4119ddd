"""Seeded inputs, timed passes and output checks of the benchmark workloads.

Every workload is a closed loop with one client: a pass runs its
operations back to back, each after the previous one returned.  A run
prepares ``instances`` independent inputs from the seed and cycles its
passes over them, because the cost of one input varies with the data
(the exact oracle's near-tie re-solves most of all); a metric is the
median over instances of each instance's median, so it does not depend
on how many passes fit into the run.

Each end-to-end operation metric is owned by one workload, whose passes
measure it at the large shape that stresses it.  The other workloads
measure it at a small shared shape (the ``probe`` shape) between their
passes, so every workload reports every end-to-end metric and a
change that speeds up the large shape while adding fixed cost per call
shows on the small one.  Probes run only in untraced runs: the traced
run measures the passes alone, so a layer absent from a workload reads
zero there.

The library is always reached through module attributes
(``tree.grow``), never through names bound at import time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from types import SimpleNamespace

import numpy as np

from obliquetree import cli, dataset, experiments, pruning, ridge, splitting, stumps, tree

OP_METRICS = (
    "fit_axis_s",
    "fit_projection_s",
    "fit_hillclimb_s",
    "predict_rows_per_s",
    "rate_experiment_s",
    "train_cmd_s",
    "prune_cmd_s",
)

# Shapes of one pass.  "full" is what the benchmark measures; "smoke" is
# a tiny version that exercises the same code in about a second.
SHAPES = {
    "full": {
        "fit_large": dict(
            instances=4, n=20000, noise=0.1, axis_depth=8, proj_depth=6,
            proj_candidates=100, hill_n=2500, hill_depth=3, hill_iterations=5,
            predict_rows=200000, predict_repeats=5,
        ),
        "exact_oracle": dict(instances=12, n=32, max_depth=5, mc_size=2000),
        "cli_prune": dict(
            instances=4, n=4000, noise=0.3, depth=9, grid=10, holdout=0.3,
        ),
        "probe": dict(
            n=1000, noise=0.1, axis_depth=4, proj_depth=3, proj_candidates=20,
            hill_n=200, hill_depth=2, hill_iterations=1, predict_rows=50000,
            rate_n=12, rate_depth=3, rate_mc=500, cli_n=600, cli_depth=5, grid=3,
            instances=8, rate_instances=32,
        ),
    },
    "smoke": {
        "fit_large": dict(
            instances=2, n=1500, noise=0.1, axis_depth=4, proj_depth=3,
            proj_candidates=10, hill_n=300, hill_depth=2, hill_iterations=1,
            predict_rows=3000, predict_repeats=2,
        ),
        "exact_oracle": dict(instances=2, n=12, max_depth=3, mc_size=200),
        "cli_prune": dict(
            instances=2, n=300, noise=0.3, depth=4, grid=3, holdout=0.3,
        ),
        "probe": dict(
            n=200, noise=0.1, axis_depth=2, proj_depth=2, proj_candidates=5,
            hill_n=80, hill_depth=1, hill_iterations=1, predict_rows=2000,
            rate_n=10, rate_depth=2, rate_mc=100, cli_n=150, cli_depth=3, grid=2,
            instances=2, rate_instances=2,
        ),
    },
}

_MODELS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models.json")
_IDENTITY_TOL = 1e-9
_TRAINING_ERROR_RTOL = 1e-9
_PREDICT_SAMPLE = 200

# Purposes of derived seeds, so two inputs of one instance never share one.
_DATA, _HILL_DATA, _STRATEGY, _FRESH, _PRUNE = range(5)


def sub_seed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for one input of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def load_models() -> dict:
    with open(_MODELS_PATH) as handle:
        specs = json.load(handle)
    return {name: ridge.RidgeModel.from_dict(spec) for name, spec in specs.items()}


def _box(p: int):
    return tuple((-1.0, 1.0) for _ in range(p))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Failed(Exception):
    """An operation returned but its result says it failed."""


class Recorder:
    """Times operations and counts attempts, failures and failed checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, dict[int, list[float]]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def time(self, metric: str, instance: int, fn, *args, rows: int | None = None, **kwargs):
        """Run one operation; record seconds, or rows per second if rows is set.

        A raised exception is a failed operation: it is counted and the
        pass goes on with None in place of the result.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is a measured outcome
            self.fail(f"{metric}[{instance}]: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_op()
        self.add(metric, instance, rows / elapsed if rows else elapsed)
        return result

    def add(self, metric: str, instance: int, value: float):
        self.samples.setdefault(metric, {}).setdefault(instance, []).append(value)

    def fail(self, message: str):
        self.failures.append(message)

    def check(self, name: str, ok: bool):
        if not ok:
            self.fail(f"check failed: {name}")

    def value(self, metric: str) -> float:
        """Median over instances of the per-instance median."""
        per_instance = self.samples[metric].values()
        return float(statistics.median(statistics.median(v) for v in per_instance))

    def summary(self, metric: str) -> dict:
        pooled = sorted(v for values in self.samples[metric].values() for v in values)
        out = {"value": self.value(metric), "samples": len(pooled),
               "instances": len(self.samples[metric])}
        # The highest percentile with at least ten samples beyond it.
        if len(pooled) >= 20:
            pct = int(100 * (1 - 10 / len(pooled)))
            out[f"p{pct}"] = float(np.percentile(pooled, pct))
        return out


# Median times of Reference.run (the array part, and the whole kernel) on
# the 2-CPU machine the benchmark was tuned on, when lightly loaded.
REFERENCE_S = {"array": 0.012, "whole": 0.021}


class Reference:
    """A fixed kernel, independent of obliquetree, timed between passes.

    The machine's speed drifts by tens of percent over minutes when other
    tenants load it.  The median time of this kernel over a run measures
    that speed, and run.py scales the run's timings by REFERENCE_S / that
    median.  The kernel mixes the library's kinds of work: projections, a
    lexsort and prefix sums over 20 000 rows (the array part), then a
    Python loop with dict updates and JSON encoding.  Operations on large
    arrays track the array part alone; all others track the whole kernel.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.X = rng.standard_normal((20000, 10))
        self.w = rng.standard_normal(10)
        self.y = rng.standard_normal(20000)
        self.values = [float(v) for v in self.y]

    def run(self) -> dict[str, float]:
        start = time.perf_counter()
        for _ in range(4):
            proj = self.X @ self.w
            order = np.lexsort((np.arange(proj.size), proj))
            csum = np.cumsum(self.y[order])
            (csum[:-1] ** 2 / np.arange(1, proj.size)).max()
        middle = time.perf_counter()
        buckets: dict[int, float] = {}
        for i, v in enumerate(self.values):
            buckets[i % 97] = buckets.get(i % 97, 0.0) + v * v
        json.dumps(self.values[:5000])
        return {"array": middle - start, "whole": time.perf_counter() - start}


def _cli(argv: list[str]) -> int:
    code = cli.main(argv)
    if code != 0:
        raise Failed(f"obliquetree {argv[0]} exited with {code}")
    return code


def _read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _remove(*paths: str):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _rate_config(model, n, max_depth, mc_size, seed):
    return experiments.ExperimentConfig(
        model=model,
        n=n,
        noise_std=0.0,
        seed=seed,
        strategy=splitting.SearchStrategy(kind="exhaustive_oblique", sparsity_d=model.p),
        depth_range=(1, max_depth),
        domain_box=_box(model.p),
        mc_size=mc_size,
    )


def _grid(size: int) -> str:
    return ",".join(repr(float(v)) for v in np.geomspace(1e-5, 1e-1, size))


def _rate_digest(report) -> str:
    payload = report.to_dict()
    payload.pop("wall_time_s")  # the one field that is not a function of the config
    return _sha(json.dumps(payload, sort_keys=True).encode())


# ---------------------------------------------------------------------------
# fit_large: large nodes, few directions.

def _setup_fit_large(seed, shape, models, workdir):
    instances = []
    for k in range(shape["instances"]):
        instances.append(
            SimpleNamespace(
                data=ridge.generate_dataset(
                    models["ridge_p10"], shape["n"], shape["noise"], _box(10),
                    sub_seed(seed, k, _DATA),
                ),
                hill_data=ridge.generate_dataset(
                    models["ridge_p5"], shape["hill_n"], shape["noise"], _box(5),
                    sub_seed(seed, k, _HILL_DATA),
                ),
                strategy_seed=sub_seed(seed, k, _STRATEGY),
            )
        )
    fresh = ridge.generate_dataset(
        models["ridge_p10"], shape["predict_rows"], 0.0, _box(10), sub_seed(seed, _FRESH)
    ).features
    return SimpleNamespace(shape=shape, instances=instances, fresh=fresh)


def _pass_fit_large(inputs, k, rec):
    shape, inst = inputs.shape, inputs.instances[k]
    axis = splitting.SearchStrategy(kind="axis_aligned")
    projection = splitting.SearchStrategy(
        kind="random_projection", sparsity_d=2,
        num_candidates=shape["proj_candidates"], seed=inst.strategy_seed,
    )
    hill = splitting.SearchStrategy(
        kind="hill_climb", max_iterations=shape["hill_iterations"], seed=inst.strategy_seed,
    )
    out = {
        "axis": rec.time("fit_axis_s", k, tree.grow, inst.data, axis, shape["axis_depth"]),
        "projection": rec.time(
            "fit_projection_s", k, tree.grow, inst.data, projection, shape["proj_depth"]
        ),
        "hillclimb": rec.time(
            "fit_hillclimb_s", k, tree.grow, inst.hill_data, hill, shape["hill_depth"]
        ),
        "predictions": None,
    }
    if out["projection"] is not None:
        rows = inputs.fresh.shape[0]
        for _ in range(shape["predict_repeats"]):
            out["predictions"] = rec.time(
                "predict_rows_per_s", k, tree.predict_batch, out["projection"],
                inputs.fresh, rows=rows,
            )
    return out


def _check_fit_large(inputs, k, out, rec):
    inst = inputs.instances[k]
    digests = {}
    for name, data in (("axis", inst.data), ("projection", inst.data), ("hillclimb", inst.hill_data)):
        grown = out[name]
        if grown is None:
            continue
        leaf_sse = sum(grown.nodes[nid].sse for nid in grown.leaf_ids()) / data.n
        err = tree.training_error(grown, data)
        rec.check(
            f"{name}[{k}] training error equals summed leaf SSE / n",
            abs(err - leaf_sse) <= _TRAINING_ERROR_RTOL * max(abs(leaf_sse), 1e-300),
        )
        text = tree.to_json(grown)
        rec.check(f"{name}[{k}] JSON round trip", tree.to_json(tree.from_json(text)) == text)
        digests[f"{name}[{k}]"] = _sha(text.encode())
    preds = out["predictions"]
    if preds is not None:
        rows = np.random.default_rng(k).choice(
            inputs.fresh.shape[0], size=min(_PREDICT_SAMPLE, inputs.fresh.shape[0]), replace=False
        )
        single = np.array([tree.predict(out["projection"], inputs.fresh[i]) for i in rows])
        rec.check(f"predict_batch[{k}] agrees with predict", np.array_equal(single, preds[rows]))
        digests[f"predictions[{k}]"] = _sha(preds.tobytes())
    return digests


# ---------------------------------------------------------------------------
# exact_oracle: tiny nodes, a huge number of directions.

def _setup_exact_oracle(seed, shape, models, workdir):
    model = models["ridge_p3"]
    instances = []
    for k in range(shape["instances"]):
        data_seed = sub_seed(seed, k, _DATA)
        config = _rate_config(model, shape["n"], shape["max_depth"], shape["mc_size"], data_seed)
        # The same sample run_rate_experiment draws from its config.
        data = ridge.generate_dataset(model, shape["n"], 0.0, config.domain_box, data_seed)
        instances.append(SimpleNamespace(config=config, data=data))
    return SimpleNamespace(shape=shape, instances=instances)


def _verify_identities(data, strategy, max_depth):
    grown = []

    def grow_and_keep(*args):
        grown.append(tree.grow(*args))
        return grown[-1]

    residuals = stumps.verify_training_recursion(data, strategy, max_depth, grow_fn=grow_and_keep)
    full = grown[0]
    gram = stumps.verify_orthonormality(stumps.build_expansion(full, data), data)
    impurity, _ = stumps.verify_impurity_identity(full, data)
    return SimpleNamespace(tree=full, residuals=residuals, gram=gram, impurity=impurity)


def _pass_exact_oracle(inputs, k, rec):
    inst = inputs.instances[k]
    report = rec.time("rate_experiment_s", k, experiments.run_rate_experiment, inst.config)
    identities = rec.time(
        "verify_s", k, _verify_identities, inst.data, inst.config.strategy,
        inputs.shape["max_depth"],
    )
    return {"report": report, "identities": identities}


def _check_exact_oracle(inputs, k, out, rec):
    digests = {}
    if out["report"] is not None:
        rec.check(f"rate[{k}] bound holds at every depth", not out["report"].summary["violations"])
        digests[f"rate_report[{k}]"] = _rate_digest(out["report"])
    ident = out["identities"]
    if ident is not None:
        rec.check(f"recursion[{k}] residuals <= 1e-9", max(ident.residuals) <= _IDENTITY_TOL)
        rec.check(f"orthonormality[{k}] <= 1e-9", ident.gram <= _IDENTITY_TOL)
        rec.check(f"impurity identity[{k}] <= 1e-9", ident.impurity <= _IDENTITY_TOL)
        digests[f"depth_tree[{k}]"] = _sha(tree.to_json(ident.tree).encode())
    return digests


# ---------------------------------------------------------------------------
# cli_prune: the command-line path, dominated by pruning.

def _setup_cli_prune(seed, shape, models, workdir):
    instances = []
    for k in range(shape["instances"]):
        data = ridge.generate_dataset(
            models["ridge_p5"], shape["n"], shape["noise"], _box(5), sub_seed(seed, k, _DATA)
        )
        csv_path = os.path.join(workdir, f"cli-{k}.csv")
        dataset.save_csv(data, csv_path)
        instances.append(
            SimpleNamespace(
                data=data,
                csv=csv_path,
                tree=os.path.join(workdir, f"cli-{k}-tree.json"),
                pruned=os.path.join(workdir, f"cli-{k}-pruned.json"),
                stumps=os.path.join(workdir, f"cli-{k}-stumps.json"),
                prune_seed=sub_seed(seed, k, _PRUNE),
            )
        )
    return SimpleNamespace(shape=shape, instances=instances, grid=_grid(shape["grid"]))


def _pass_cli_prune(inputs, k, rec):
    shape, inst = inputs.shape, inputs.instances[k]
    _remove(inst.tree, inst.pruned, inst.stumps)
    rec.time("train_cmd_s", k, _cli, [
        "train", inst.csv, "--depth", str(shape["depth"]), "--out", inst.tree,
    ])
    rec.time("prune_cmd_s", k, _cli, [
        "prune", inst.tree, inst.csv, "--grid", inputs.grid,
        "--holdout", repr(shape["holdout"]), "--seed", str(inst.prune_seed), "--out", inst.pruned,
    ])
    rec.time("stumps_cmd_s", k, _cli, ["stumps", inst.tree, inst.csv, "--out", inst.stumps])
    return {name: path for name, path in
            (("tree", inst.tree), ("pruned", inst.pruned), ("stumps", inst.stumps))
            if os.path.exists(path)}


def _check_cli_prune(inputs, k, out, rec):
    inst = inputs.instances[k]
    digests = {}
    for name, path in out.items():
        digests[f"{name}[{k}]"] = _sha(_read_bytes(path))
    if "tree" in out:
        payload = _read_json(out["tree"])
        grown = tree.from_dict(payload)
        rec.check(f"tree[{k}] reloads", tree.to_dict(grown) == payload)
        if "pruned" in out:
            pruned = _read_json(out["pruned"])
            lam = pruned["lambda"]
            reference = tree.to_dict(pruning.select_subtree(grown, inst.data, lam))
            rec.check(f"pruned[{k}] selected equals select_subtree at its lambda",
                      pruned["selected"] == reference)
            rec.check(f"pruned[{k}] lambda is on the grid",
                      lam in [float(v) for v in inputs.grid.split(",")])
    if "stumps" in out:
        report = _read_json(out["stumps"])
        for key in ("gram_deviation", "impurity_deviation", "reconstruction_deviation"):
            rec.check(f"stumps[{k}] {key} <= 1e-9", report[key] <= _IDENTITY_TOL)
    return digests


# ---------------------------------------------------------------------------
# Probes: every operation metric at one small shape.

def _probe_instance(seed, k, shape, models, workdir):
    p5 = models["ridge_p5"]
    tag = 100 + k  # probe instances draw seeds apart from the pass instances
    data = ridge.generate_dataset(
        p5, shape["n"], shape["noise"], _box(5), sub_seed(seed, tag, _DATA)
    )
    projection = splitting.SearchStrategy(
        kind="random_projection", sparsity_d=2,
        num_candidates=shape["proj_candidates"], seed=sub_seed(seed, tag, _STRATEGY),
    )
    inst = SimpleNamespace(
        data=data,
        hill_data=dataset.subset(data, np.arange(min(shape["hill_n"], data.n))),
        projection=projection,
        tree=tree.grow(data, projection, shape["proj_depth"]),
        fresh=ridge.generate_dataset(
            p5, shape["predict_rows"], 0.0, _box(5), sub_seed(seed, tag, _FRESH)
        ).features,
        csv=os.path.join(workdir, f"probe-{k}.csv"),
        tree_path=os.path.join(workdir, f"probe-{k}-tree.json"),
        pruned_path=os.path.join(workdir, f"probe-{k}-pruned.json"),
    )
    cli_data = ridge.generate_dataset(
        p5, shape["cli_n"], 0.3, _box(5), sub_seed(seed, tag, _PRUNE)
    )
    dataset.save_csv(cli_data, inst.csv)
    return inst


def setup_probe(seed, shape, models, workdir):
    """Inputs for every operation at the probe shape, one set per instance.

    A small rate experiment's cost swings by a factor of three with the
    sample (the number of near-tied directions), so that operation cycles
    over its own, larger set of configurations, which cost nothing to set up.
    """
    return SimpleNamespace(
        shape=shape,
        grid=_grid(shape["grid"]),
        instances=[
            _probe_instance(seed, k, shape, models, workdir) for k in range(shape["instances"])
        ],
        # Probe instances draw no hill-climb data, so that seed tag is free.
        rates=[
            _rate_config(models["ridge_p3"], shape["rate_n"], shape["rate_depth"],
                         shape["rate_mc"], sub_seed(seed, 100 + j, _HILL_DATA))
            for j in range(shape["rate_instances"])
        ],
    )


def probe_round(probe, r, rec, metrics):
    """One call of each operation in `metrics`, for probe round r."""
    shape = probe.shape
    k = r % len(probe.instances)
    inst = probe.instances[k]
    for metric in metrics:
        if metric == "fit_axis_s":
            rec.time(metric, k, tree.grow, inst.data,
                     splitting.SearchStrategy(kind="axis_aligned"), shape["axis_depth"])
        elif metric == "fit_projection_s":
            rec.time(metric, k, tree.grow, inst.data, inst.projection, shape["proj_depth"])
        elif metric == "fit_hillclimb_s":
            strategy = splitting.SearchStrategy(
                kind="hill_climb", max_iterations=shape["hill_iterations"]
            )
            rec.time(metric, k, tree.grow, inst.hill_data, strategy, shape["hill_depth"])
        elif metric == "predict_rows_per_s":
            rec.time(metric, k, tree.predict_batch, inst.tree, inst.fresh,
                     rows=inst.fresh.shape[0])
        elif metric == "rate_experiment_s":
            j = r % len(probe.rates)
            rec.time(metric, j, experiments.run_rate_experiment, probe.rates[j])
        elif metric == "train_cmd_s":
            rec.time(metric, k, _cli, ["train", inst.csv, "--depth", str(shape["cli_depth"]),
                                       "--out", inst.tree_path])
        elif metric == "prune_cmd_s":
            # Prunes the tree the last train call wrote; OP_METRICS lists train first.
            rec.time(metric, k, _cli, ["prune", inst.tree_path, inst.csv, "--grid", probe.grid,
                                       "--holdout", "0.3", "--out", inst.pruned_path])


WORKLOADS = {
    # `speed` names the Reference timing that scales the workload's own
    # metrics; probes and set-ups are scaled by the whole kernel.
    "fit_large": SimpleNamespace(
        owned=("fit_axis_s", "fit_projection_s", "fit_hillclimb_s", "predict_rows_per_s"),
        speed="array",
        setup=_setup_fit_large, run_pass=_pass_fit_large, check=_check_fit_large,
    ),
    "exact_oracle": SimpleNamespace(
        owned=("rate_experiment_s",),
        speed="whole",
        setup=_setup_exact_oracle, run_pass=_pass_exact_oracle, check=_check_exact_oracle,
    ),
    "cli_prune": SimpleNamespace(
        owned=("train_cmd_s", "prune_cmd_s"),
        speed="whole",
        setup=_setup_cli_prune, run_pass=_pass_cli_prune, check=_check_cli_prune,
    ),
}

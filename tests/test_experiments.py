import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obliquetree import (
    Dataset,
    Direction,
    ExperimentConfig,
    RidgeComponent,
    RidgeModel,
    SearchStrategy,
    estimate_imse,
    eval_ridge_batch,
    generate_dataset,
    grow,
    l1_tv_norm,
    run_fast_rate_experiment,
    run_pruning_experiment,
    run_rate_experiment,
    search_exhaustive_oblique,
    training_error,
    verify_impurity_bound,
)

EXHAUSTIVE = SearchStrategy(kind="exhaustive_oblique", sparsity_d=2, node_cap=64)
AXIS = SearchStrategy(kind="axis_aligned")


def e(p, j):
    coeffs = [0.0] * p
    coeffs[j] = 1.0
    return Direction(tuple(coeffs))


def linear_ridge_config(seed=0, n=32, depth=(0, 5)):
    model = RidgeModel(
        (RidgeComponent("linear", Direction.canonical([1.0, 1.0]), {"slope": 1.0}),)
    )
    return ExperimentConfig(
        model=model,
        n=n,
        noise_std=0.0,
        seed=seed,
        strategy=EXHAUSTIVE,
        depth_range=depth,
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        mc_size=500,
    )


def test_rate_experiment_linear_ridge_bound_holds():
    report = run_rate_experiment(linear_ridge_config(seed=4))
    assert report.summary["violations"] == []
    errors = [row["train_error"] for row in report.rows]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    for row in report.rows:
        if row["depth"] >= 1:
            assert row["excess_error"] <= row["bound"] * (1 + 1e-9) + 1e-9


def test_a_bound_violation_raises_with_the_full_report(monkeypatch):
    # The bound cannot fail honestly under the enforced preconditions, so
    # shrink the capacity norm that run_rate_experiment reads: every depth
    # K >= 1 whose error exceeds the tiny norm^2/K is then a violation.
    from dataclasses import replace

    from obliquetree import experiments

    real = experiments.l1_tv_norm
    monkeypatch.setattr(experiments, "l1_tv_norm", lambda *args: replace(real(*args), total=1e-6))
    config = linear_ridge_config(seed=4, depth=(0, 3))
    with pytest.raises(experiments.BoundViolationError) as raised:
        run_rate_experiment(config)
    report = raised.value.report
    violations = report.summary["violations"]
    assert [row["depth"] for row in report.rows] == [0, 1, 2, 3]
    assert violations and 0 not in violations
    assert [row["depth"] for row in report.rows if not row["bound_satisfied"]] == violations
    assert report.rows[0]["excess_error"] > report.rows[0]["bound"]
    assert str(violations) in str(raised.value)


def test_rate_experiment_constant_model():
    model = RidgeModel((RidgeComponent("linear", e(2, 0), {"slope": 0.0}),), intercept=2.0)
    config = ExperimentConfig(
        model=model,
        n=16,
        noise_std=0.0,
        seed=1,
        strategy=EXHAUSTIVE,
        depth_range=(0, 3),
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        mc_size=100,
    )
    report = run_rate_experiment(config)
    for row in report.rows:
        assert row["excess_error"] == pytest.approx(0.0, abs=1e-12)
        assert row["imse"] == pytest.approx(0.0, abs=1e-15)


def test_rate_experiment_step_target_unit_variation():
    # Near-step sigmoid in one dimension: capacity norm 1, so the excess
    # error must fall under 1/K.
    model = RidgeModel(
        (RidgeComponent("sigmoid", e(1, 0), {"amplitude": 1.0, "gain": 400.0, "center": 0.5}),)
    )
    config = ExperimentConfig(
        model=model,
        n=48,
        noise_std=0.0,
        seed=3,
        strategy=SearchStrategy(kind="exhaustive_oblique", sparsity_d=1, node_cap=64),
        depth_range=(1, 5),
        domain_box=((0.0, 1.0),),
        mc_size=200,
    )
    report = run_rate_experiment(config)
    norm = report.summary["capacity_norm"]
    assert norm == pytest.approx(1.0, abs=1e-6)
    for row in report.rows:
        assert row["excess_error"] <= 1.0 / row["depth"] + 1e-9


def test_rate_experiment_rows_match_serialized_recomputation():
    # Report rows must agree with the training error recomputed from the
    # round-tripped (serialized) tree within 1e-10.
    config = linear_ridge_config(seed=8, depth=(0, 4))
    report = run_rate_experiment(config)
    dataset = generate_dataset(config.model, config.n, 0.0, config.domain_box, config.seed)
    full = grow(dataset, config.strategy, 4)
    from obliquetree import prune_to_depth
    from obliquetree.tree import from_json, to_json

    for row in report.rows:
        tree = from_json(to_json(prune_to_depth(full, row["depth"])))
        assert row["train_error"] == pytest.approx(
            training_error(tree, dataset), rel=1e-10, abs=1e-14
        )


def test_rate_experiment_precondition_validation():
    config = linear_ridge_config()
    with pytest.raises(ValueError):
        run_rate_experiment(
            ExperimentConfig(
                model=config.model,
                n=config.n,
                noise_std=0.0,
                seed=0,
                strategy=AXIS,
                depth_range=(0, 2),
                domain_box=config.domain_box,
            )
        )
    with pytest.raises(ValueError):
        run_rate_experiment(
            ExperimentConfig(
                model=config.model,
                n=100,
                noise_std=0.0,
                seed=0,
                strategy=EXHAUSTIVE,
                depth_range=(0, 2),
                domain_box=config.domain_box,
            )
        )


def test_rate_report_deterministic():
    a = run_rate_experiment(linear_ridge_config(seed=11)).to_dict()
    b = run_rate_experiment(linear_ridge_config(seed=11)).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fast_rate_additive_1d_profile():
    model = RidgeModel(
        (RidgeComponent("sine", e(1, 0), {"frequency": 3.0}),), intercept=0.1
    )
    config = ExperimentConfig(
        model=model,
        n=40,
        noise_std=0.0,
        seed=2,
        strategy=SearchStrategy(kind="exhaustive_oblique", sparsity_d=1, node_cap=64),
        depth_range=(1, 4),
        domain_box=((-1.0, 1.0),),
        mc_size=200,
    )
    report = run_fast_rate_experiment(config)
    # In one dimension the leaf norms are sub-additive, so the smallest
    # grid q already satisfies the profile.
    assert report.summary["q"] == 2.1
    assert report.summary["capacity_norm"] > 0
    for row in report.rows:
        assert row["fast_bound"] is not None
        assert row["leaf_norm_power_sum"] <= report.summary["capacity_norm"] ** 2.1 * (1 + 1e-9)


def test_fast_rate_rejects_a_depth_range_without_a_depth_of_one():
    # Depth 0 has no balance factor or fast bound: (0, 0) leaves no row.
    with pytest.raises(ValueError, match="depth >= 1"):
        run_fast_rate_experiment(linear_ridge_config(depth=(0, 0)))


def test_fast_rate_balance_factor_reported():
    config = linear_ridge_config(seed=5, depth=(1, 4))
    report = run_fast_rate_experiment(config)
    # The summary factor is the uniform (max over depths) realization.
    assert report.summary["balance_factor"] == pytest.approx(
        max(row["balance_factor"] for row in report.rows)
    )
    # Per-row factors satisfy the defining identity max_size = A*n/2^K.
    from obliquetree import node_size_profile, prune_to_depth

    dataset = generate_dataset(config.model, config.n, 0.0, config.domain_box, config.seed)
    full = grow(dataset, config.strategy, 4)
    for row in report.rows:
        tree = prune_to_depth(full, row["depth"])
        max_size, factor = node_size_profile(tree)
        assert row["balance_factor"] == pytest.approx(factor)
        assert factor * config.n / 2**tree.max_depth_reached == pytest.approx(max_size)


def test_leaf_size_diagnostic_worked_example():
    # Leaf sizes {5, 5, 495, 495} at depth 2 on n = 1000: factor 1.98 <= 2.
    n = 1000
    x = np.arange(n, dtype=float).reshape(-1, 1)
    y = np.concatenate(
        [np.full(5, -100.0), np.full(5, -99.0), np.zeros(495), np.ones(495)]
    )
    tree = grow(Dataset(x, y), AXIS, max_depth=2)
    sizes = sorted(tree.nodes[nid].count for nid in tree.leaf_ids())
    assert sizes == [5, 5, 495, 495]
    from obliquetree import node_size_profile

    max_size, factor = node_size_profile(tree)
    assert max_size == 495
    assert factor == pytest.approx(1.98, abs=1e-12)
    assert factor <= 2.0


def test_impurity_bound_d1_step(d1):
    # Root of the step data against a near-step model: lhs 0.25, rhs
    # w * R^2 / norm^2 = 1 * 0.0625 / 1.
    model = RidgeModel(
        (RidgeComponent("sigmoid", e(1, 0), {"amplitude": 1.0, "gain": 400.0, "center": 2.5}),)
    )
    rows = verify_impurity_bound(d1, model, [np.arange(4)])
    row = rows[0]
    assert not row["skipped"]
    assert row["excess"] == pytest.approx(0.25, abs=1e-9)
    assert row["oracle_decrease"] == pytest.approx(0.25, rel=1e-9)
    assert row["rhs"] == pytest.approx(0.0625, abs=1e-6)
    assert row["margin"] >= -1e-9


def test_impurity_bound_constant_model_skipped(d1):
    model = RidgeModel((RidgeComponent("linear", e(1, 0), {"slope": 0.0}),))
    rows = verify_impurity_bound(d1, model, [np.arange(4)])
    assert rows[0]["skipped"]


def test_impurity_bound_random_nodes():
    rng = np.random.default_rng(42)
    model = RidgeModel(
        (
            RidgeComponent("sine", Direction.canonical([2.0, 1.0]), {"frequency": 2.0}),
            RidgeComponent("relu", e(2, 1), {"slope": 1.5}),
        )
    )
    data = generate_dataset(model, 120, 0.0, [(-1, 1), (-1, 1)], seed=7)
    nodes = []
    for _ in range(20):
        size = int(rng.integers(4, 31))
        nodes.append(np.sort(rng.choice(120, size=size, replace=False)))
    rows = verify_impurity_bound(data, model, nodes)
    checked = [r for r in rows if not r["skipped"]]
    assert checked, "expected at least one node with positive excess"
    for row in checked:
        assert row["margin"] >= -1e-9


@pytest.mark.parametrize(
    "node", [[-1], [7, 7], [25], [3, 1], []], ids=["negative", "repeated", "past_n", "unsorted", "empty"]
)
def test_impurity_bound_rejects_a_bad_node_before_reading_it(node):
    # Each node is validated before its responses are read: [-1] and
    # [7, 7] used to come back as skipped rows, and [25] to raise an
    # IndexError, on this 20-row sample.
    model = RidgeModel((RidgeComponent("linear", e(1, 0), {"slope": 1.0}),))
    data = generate_dataset(model, 20, 0.0, [(0, 1)], seed=3)
    with pytest.raises(ValueError):
        verify_impurity_bound(data, model, [np.arange(20), node])


def test_estimate_imse_hand_cases():
    model = RidgeModel((RidgeComponent("linear", e(1, 0), {"slope": 1.0}),))
    data = generate_dataset(model, 200, 0.0, [(0, 1)], seed=15)
    root_only = grow(data, AXIS, max_depth=0)
    imse, se = estimate_imse(root_only, model, 20_000, [(0, 1)], seed=16)
    assert abs(imse - 1.0 / 12.0) <= 3 * se + 1e-3
    # A constant model fit by a root-only tree has zero IMSE.
    const = RidgeModel((RidgeComponent("linear", e(1, 0), {"slope": 0.0}),), intercept=3.0)
    cdata = generate_dataset(const, 50, 0.0, [(0, 1)], seed=17)
    ctree = grow(cdata, AXIS, max_depth=3)
    cimse, _ = estimate_imse(ctree, const, 500, [(0, 1)], seed=18)
    assert cimse == 0.0
    single, se1 = estimate_imse(root_only, model, 1, [(0, 1)], seed=19)
    assert single >= 0.0 and se1 == 0.0


def test_pruning_experiment_noiseless_keeps_fit():
    model = RidgeModel(
        (RidgeComponent("sigmoid", e(2, 0), {"gain": 300.0, "center": 0.5}),)
    )
    config = ExperimentConfig(
        model=model,
        n=200,
        noise_std=0.0,
        seed=21,
        strategy=AXIS,
        depth_range=(0, 3),
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        lambda_grid=(1e-6, 1e-4, 1e-2),
        mc_size=2000,
        holdout_fraction=0.3,
    )
    report = run_pruning_experiment(config)
    best_fixed = report.summary["best_fixed_imse"]
    assert report.summary["pruned_imse"] <= best_fixed + 2 * report.summary["pruned_imse_se"] + 1e-6


def test_pruning_experiment_pure_noise_prunes():
    model = RidgeModel((RidgeComponent("linear", e(2, 0), {"slope": 0.0}),))
    config = ExperimentConfig(
        model=model,
        n=150,
        noise_std=1.0,
        seed=31,
        strategy=AXIS,
        depth_range=(0, 4),
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        lambda_grid=tuple(float(v) for v in np.geomspace(1e-4, 2.0, 12)),
        mc_size=4000,
        holdout_fraction=0.3,
    )
    report = run_pruning_experiment(config)
    root_imse = report.summary["root_imse"]
    pruned = report.summary["pruned_imse"]
    assert pruned <= root_imse + 2 * report.summary["pruned_imse_se"]


def test_pruning_experiment_deterministic():
    model = RidgeModel((RidgeComponent("linear", e(2, 0), {"slope": 1.0}),))
    config = ExperimentConfig(
        model=model,
        n=80,
        noise_std=0.3,
        seed=41,
        strategy=AXIS,
        depth_range=(0, 3),
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        lambda_grid=(1e-4, 1e-2, 0.5),
        mc_size=300,
    )
    a = run_pruning_experiment(config).to_dict()
    b = run_pruning_experiment(config).to_dict()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_config_json_round_trip():
    config = linear_ridge_config(seed=77)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back == config


def test_report_write_files(tmp_path):
    report = run_rate_experiment(linear_ridge_config(seed=51, depth=(0, 2)))
    prefix = str(tmp_path / "out")
    report.write(prefix)
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["kind"] == "rate"
    lines = (tmp_path / "out.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(report.rows)
    csv_text = (tmp_path / "out.csv").read_text().splitlines()
    assert len(csv_text) == len(report.rows) + 1


def reference_verify_impurity_bound(dataset, model, nodes, node_cap=64):
    """verify_impurity_bound with one exhaustive search per eligible node."""
    rows = []
    for node in nodes:
        idx = np.asarray(node, dtype=np.int64)
        y = dataset.response[idx]
        g = eval_ridge_batch(model, dataset.features[idx])
        excess = float(np.mean((y - y.mean()) ** 2) - np.mean((y - g) ** 2))
        if excess <= 0.0:
            rows.append({"size": int(idx.size), "excess": excess, "skipped": True})
            continue
        oracle = search_exhaustive_oblique(dataset, idx, dataset.p, node_cap)
        norm_t = l1_tv_norm(model, dataset, idx).total
        rhs = idx.size / dataset.n * excess**2 / norm_t**2 if norm_t > 0 else 0.0
        rows.append(
            {
                "size": int(idx.size),
                "excess": excess,
                "skipped": False,
                "oracle_decrease": oracle.decrease,
                "rhs": rhs,
                "margin": oracle.decrease - rhs,
            }
        )
    return rows


IMPURITY_MODELS = {
    1: RidgeModel((RidgeComponent("sigmoid", e(1, 0), {"gain": 8.0, "center": 0.2}),)),
    2: RidgeModel(
        (
            RidgeComponent("sine", Direction.canonical([2.0, 1.0]), {"frequency": 2.0}),
            RidgeComponent("relu", e(2, 1), {"slope": 1.5}),
        )
    ),
    3: RidgeModel((RidgeComponent("sine", Direction.canonical([1.0, 1.5, -0.5]), {"frequency": 1.0}),)),
}


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    noise=st.sampled_from([0.0, 0.3]),
    grid=st.booleans(),
)
def test_impurity_bound_rows_match_one_search_per_node(seed, p, noise, grid):
    # The eligible nodes share one exhaustive search call, in padded
    # blocks when they are small.  A node of one row is skipped, as noisy
    # nodes may be; nodes overlap, and one is listed twice.
    rng = np.random.default_rng(seed)
    model = IMPURITY_MODELS[p]
    data = generate_dataset(model, 40, noise, [(-1, 1)] * p, seed=int(rng.integers(1000)))
    if grid:
        data = Dataset(np.round(data.features * 2.0), data.response)
    nodes = [np.sort(rng.choice(40, size=int(rng.integers(1, 17)), replace=False)) for _ in range(8)]
    nodes += [nodes[0], np.arange(12), np.arange(6, 18), np.array([5])]
    got = verify_impurity_bound(data, model, nodes)
    want = reference_verify_impurity_bound(data, model, nodes)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got[-1]["skipped"]

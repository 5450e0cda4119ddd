"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` shows one green row per criterion instead.
"""

import json
import time

import numpy as np
import pytest

from obliquetree import (
    Dataset,
    Direction,
    ExperimentConfig,
    RidgeComponent,
    RidgeModel,
    SearchStrategy,
    build_expansion,
    estimate_suboptimality,
    generate_dataset,
    grow,
    l1_tv_norm,
    leaf_additivity_gap_1d,
    node_size_profile,
    root_index_set,
    run_rate_experiment,
    select_subtree,
    total_variation,
    training_error,
    verify_impurity_bound,
    verify_impurity_identity,
    verify_orthonormality,
    verify_training_recursion,
    weakest_link_sequence,
)
from obliquetree.cli import main
from obliquetree.stumps import verify_expansion_reconstruction

from test_pruning import brute_force_best, retained_internals

GRAM_TOL = 1e-9
RECON_TOL = 1e-9
IMPURITY_TOL = 1e-9
RECURSION_TOL = 1e-9
MARGIN_TOL = -1e-9
TV_REL_TOL = 1e-4
ADDITIVITY_TOL = 1e-9
CORPUS_RUNTIME_S = 10.0
RATE_RUNTIME_S = 300.0

_corpus_cache = {}


def _strategy_for(i, n, p):
    if i % 4 == 0:
        return SearchStrategy(kind="axis_aligned")
    if i % 4 == 1:
        return SearchStrategy(
            kind="random_projection", sparsity_d=min(2, p), num_candidates=30, seed=i
        )
    if i % 4 == 2 and p <= 3:  # corpus() caps these nodes at 40 rows
        return SearchStrategy(kind="exhaustive_oblique", sparsity_d=min(2, p), node_cap=64)
    return SearchStrategy(kind="hill_climb", sparsity_d=min(2, p), restarts=2, max_iterations=1, seed=i)


def corpus():
    """50 random (dataset, tree) pairs covering n <= 200, p <= 5,
    depths <= 5, and all four strategies."""
    if "trees" in _corpus_cache:
        return _corpus_cache["trees"], _corpus_cache["build_time"]
    start = time.perf_counter()
    items = []
    rng = np.random.default_rng(2024)
    for i in range(50):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(20, 201))
        depth = int(rng.integers(1, 6))
        strategy = _strategy_for(i, n, p)
        if strategy.kind == "exhaustive_oblique":
            n = min(n, 40)
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        if i % 3 == 0:
            y = rng.standard_normal(n)
        else:
            w = rng.standard_normal(p)
            y = np.tanh(X @ w) + 0.2 * rng.standard_normal(n)
        data = Dataset(X, y)
        tree = grow(data, strategy, max_depth=depth)
        items.append((data, tree))
    build_time = time.perf_counter() - start
    _corpus_cache["trees"] = items
    _corpus_cache["build_time"] = build_time
    return items, build_time


def test_criterion_1_orthonormality():
    items, build_time = corpus()
    start = time.perf_counter()
    worst = 0.0
    for data, tree in items:
        expansion = build_expansion(tree, data)
        worst = max(worst, verify_orthonormality(expansion, data))
    elapsed = build_time + (time.perf_counter() - start)
    ok = worst <= GRAM_TOL and elapsed < CORPUS_RUNTIME_S
    print(
        f"[criterion 1] {'PASS' if ok else 'FAIL'} orthonormality: "
        f"max Gram deviation {worst:.3e} (tol {GRAM_TOL}), {elapsed:.2f}s"
    )
    assert worst <= GRAM_TOL
    assert elapsed < CORPUS_RUNTIME_S


def test_criterion_2_expansion_reconstruction():
    items, _ = corpus()
    rng = np.random.default_rng(7)
    worst = 0.0
    for data, tree in items:
        fresh = rng.uniform(-1.5, 1.5, size=(1000, data.p))
        worst = max(worst, verify_expansion_reconstruction(tree, data, fresh))
    ok = worst <= RECON_TOL
    print(
        f"[criterion 2] {'PASS' if ok else 'FAIL'} expansion identity: "
        f"max pointwise deviation {worst:.3e} (tol {RECON_TOL})"
    )
    assert worst <= RECON_TOL


def test_criterion_3_impurity_identity():
    items, _ = corpus()
    worst = 0.0
    for data, tree in items:
        dev, _node = verify_impurity_identity(tree, data)
        worst = max(worst, dev)
    ok = worst <= IMPURITY_TOL
    print(
        f"[criterion 3] {'PASS' if ok else 'FAIL'} impurity identity: "
        f"max relative deviation {worst:.3e} (tol {IMPURITY_TOL})"
    )
    assert worst <= IMPURITY_TOL


def test_criterion_4_training_recursion():
    worst = 0.0
    rng = np.random.default_rng(17)
    for seed in range(6):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(30, 120))
        X = rng.uniform(-1, 1, size=(n, p))
        y = np.sin(2 * X[:, 0]) + 0.3 * rng.standard_normal(n)
        data = Dataset(X, y)
        for strategy in (
            SearchStrategy(kind="axis_aligned"),
            SearchStrategy(kind="random_projection", sparsity_d=min(2, p), num_candidates=20, seed=seed),
        ):
            residuals = verify_training_recursion(data, strategy, 6)
            worst = max(worst, max(residuals))
    ok = worst <= RECURSION_TOL
    print(
        f"[criterion 4] {'PASS' if ok else 'FAIL'} training recursion: "
        f"max residual {worst:.3e} (tol {RECURSION_TOL})"
    )
    assert worst <= RECURSION_TOL


def _random_ridge_model(rng):
    kinds = ["linear", "relu", "sigmoid", "sine"]
    comps = []
    for _ in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        direction = Direction.canonical(rng.standard_normal(2))
        if kind == "linear":
            params = {"slope": float(rng.uniform(-2, 2))}
        elif kind == "relu":
            params = {"slope": float(rng.uniform(-2, 2)), "kink": float(rng.uniform(-0.5, 0.5))}
        elif kind == "sigmoid":
            params = {"amplitude": float(rng.uniform(0.5, 2)), "gain": float(rng.uniform(1, 6)), "center": float(rng.uniform(-0.3, 0.3))}
        else:
            params = {"amplitude": float(rng.uniform(0.5, 1.5)), "frequency": float(rng.uniform(0.5, 4)), "phase": float(rng.uniform(0, 6))}
        comps.append(RidgeComponent(kind, direction, params))
    return RidgeModel(tuple(comps), intercept=float(rng.uniform(-1, 1)))


def test_criterion_5_training_bound_exact_search():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    violations = 0
    runs = 0
    for seed in range(20):
        model = _random_ridge_model(rng)
        config = ExperimentConfig(
            model=model,
            n=int(rng.integers(24, 65)),
            noise_std=0.0,
            seed=seed,
            strategy=SearchStrategy(kind="exhaustive_oblique", sparsity_d=2, node_cap=64),
            depth_range=(1, 6),
            domain_box=((-1.0, 1.0), (-1.0, 1.0)),
            mc_size=50,
        )
        report = run_rate_experiment(config)
        runs += len(report.rows)
        violations += len(report.summary["violations"])
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < RATE_RUNTIME_S
    print(
        f"[criterion 5] {'PASS' if ok else 'FAIL'} norm^2/K training bound: "
        f"{violations} violations over {runs} depth rows, 20 seeds, {elapsed:.1f}s"
    )
    assert violations == 0
    assert elapsed < RATE_RUNTIME_S


def test_criterion_6_impurity_bound_random_nodes():
    rng = np.random.default_rng(66)
    checked = 0
    worst_margin = np.inf
    while checked < 200:
        model = _random_ridge_model(rng)
        data = generate_dataset(
            model, 60, float(rng.uniform(0, 0.2)), [(-1, 1), (-1, 1)], seed=int(rng.integers(1 << 30))
        )
        nodes = []
        for _ in range(10):
            size = int(rng.integers(4, 31))
            nodes.append(np.sort(rng.choice(60, size=size, replace=False)))
        for row in verify_impurity_bound(data, model, nodes):
            if row["skipped"]:
                continue
            checked += 1
            worst_margin = min(worst_margin, row["margin"])
            if checked == 200:
                break
    ok = worst_margin >= MARGIN_TOL
    print(
        f"[criterion 6] {'PASS' if ok else 'FAIL'} impurity bound: "
        f"200 nodes, worst margin {worst_margin:.3e} (tol {MARGIN_TOL})"
    )
    assert worst_margin >= MARGIN_TOL


def test_criterion_7_suboptimality_profile(d2):
    root = root_index_set(d2)
    axis = SearchStrategy(kind="axis_aligned")
    exhaustive = SearchStrategy(kind="exhaustive_oblique", sparsity_d=2)
    at_07 = estimate_suboptimality(d2, root, axis, 0.7, 3).success_fraction
    at_08 = estimate_suboptimality(d2, root, axis, 0.8, 3).success_fraction
    at_10 = estimate_suboptimality(d2, root, exhaustive, 1.0, 2).success_fraction
    ok = (at_07, at_08, at_10) == (1.0, 0.0, 1.0)
    print(
        f"[criterion 7] {'PASS' if ok else 'FAIL'} sub-optimality profile: "
        f"axis@0.7={at_07}, axis@0.8={at_08}, exhaustive@1.0={at_10} (hand ratio 0.75)"
    )
    assert (at_07, at_08, at_10) == (1.0, 0.0, 1.0)


def test_criterion_8_pruning_brute_force_equivalence():
    rng = np.random.default_rng(88)
    trees_checked = 0
    seed = 0
    mismatches = 0
    alpha_violations = 0
    while trees_checked < 100:
        seed += 1
        n = int(rng.integers(20, 70))
        p = int(rng.integers(1, 4))
        X = rng.uniform(-1, 1, size=(n, p))
        y = rng.standard_normal(n)
        data = Dataset(X, y)
        tree = grow(data, SearchStrategy(kind="axis_aligned"), max_depth=4)
        internal = sum(1 for nd in tree.nodes.values() if not nd.is_leaf)
        if not 1 <= internal <= 12:
            continue
        trees_checked += 1
        seq = weakest_link_sequence(tree, data)
        alphas = [s.critical_alpha for s in seq.steps]
        if not all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:])):
            alpha_violations += 1
        energy = float(np.mean(data.response**2))
        grid = energy * np.geomspace(1e-6, 1.0, 20)
        for lam in grid:
            chosen = select_subtree(tree, data, float(lam))
            (obj_bf, leaves_bf), retained_bf = brute_force_best(tree, float(lam))
            objective = training_error(chosen, data) + lam * chosen.leaf_count()
            if (
                abs(objective - obj_bf) > 1e-10 * max(1.0, abs(obj_bf))
                or chosen.leaf_count() != leaves_bf
                or retained_internals(chosen) != retained_bf
            ):
                mismatches += 1
    ok = mismatches == 0 and alpha_violations == 0
    print(
        f"[criterion 8] {'PASS' if ok else 'FAIL'} pruning correctness: "
        f"100 trees x 20 lambdas, {mismatches} brute-force mismatches, "
        f"{alpha_violations} alpha-order violations"
    )
    assert mismatches == 0
    assert alpha_violations == 0


def test_criterion_9_tv_oracle_and_additivity():
    rng = np.random.default_rng(99)
    e1 = Direction((1.0,))
    kinds = ["linear", "relu", "sigmoid", "sine", "cubic"]
    worst_rel = 0.0
    for trial in range(100):
        kind = kinds[trial % len(kinds)]
        if kind == "linear":
            params = {"slope": float(rng.uniform(-3, 3))}
        elif kind == "relu":
            params = {"slope": float(rng.uniform(-2, 2)), "kink": float(rng.uniform(-1, 1))}
        elif kind == "sigmoid":
            params = {"amplitude": float(rng.uniform(0.5, 3)), "gain": float(rng.uniform(-4, 4)), "center": float(rng.uniform(-1, 1))}
        elif kind == "sine":
            params = {"amplitude": float(rng.uniform(0.5, 2)), "frequency": float(rng.uniform(-5, 5)), "phase": float(rng.uniform(0, 6))}
        else:
            params = {"c3": float(rng.uniform(-1, 1)), "c2": float(rng.uniform(-1, 1)), "c1": float(rng.uniform(-1, 1)), "c0": 0.0}
        comp = RidgeComponent(kind, e1, params)
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(0.1, 5))
        exact = total_variation(comp, (lo, hi))
        z = np.linspace(lo, hi, 100_001)
        approx = float(np.sum(np.abs(np.diff(comp.profile(z)))))
        rel = abs(exact - approx) / max(approx, 1e-12)
        worst_rel = max(worst_rel, rel)
    model = RidgeModel(
        (RidgeComponent("sine", e1, {"frequency": 4.0, "amplitude": 1.5}),
         RidgeComponent("cubic", e1, {"c3": 0.3, "c1": -1.0})),
    )
    data = generate_dataset(model, 64, 0.0, [(-2, 2)], seed=5)
    worst_gap = 0.0
    for depth in (1, 2, 3, 5):
        tree = grow(data, SearchStrategy(kind="axis_aligned"), max_depth=depth)
        worst_gap = max(worst_gap, leaf_additivity_gap_1d(model, tree, data))
    ok = worst_rel <= TV_REL_TOL and worst_gap <= ADDITIVITY_TOL
    print(
        f"[criterion 9] {'PASS' if ok else 'FAIL'} total-variation oracle: "
        f"worst grid mismatch {worst_rel:.3e} (tol {TV_REL_TOL}), "
        f"1-D additivity gap {worst_gap:.3e} (tol {ADDITIVITY_TOL})"
    )
    assert worst_rel <= TV_REL_TOL
    assert worst_gap <= ADDITIVITY_TOL


def test_criterion_10_leaf_size_worked_example():
    n = 1000
    x = np.arange(n, dtype=float).reshape(-1, 1)
    y = np.concatenate(
        [np.full(5, -100.0), np.full(5, -99.0), np.zeros(495), np.ones(495)]
    )
    tree = grow(Dataset(x, y), SearchStrategy(kind="axis_aligned"), max_depth=2)
    sizes = sorted(tree.nodes[nid].count for nid in tree.leaf_ids())
    max_size, factor = node_size_profile(tree)
    ok = sizes == [5, 5, 495, 495] and abs(factor - 1.98) <= 1e-12 and factor <= 2.0
    print(
        f"[criterion 10] {'PASS' if ok else 'FAIL'} leaf-size diagnostic: "
        f"sizes {sizes}, factor {factor} (expected 1.98 <= 2)"
    )
    assert sizes == [5, 5, 495, 495]
    assert factor == pytest.approx(1.98, abs=1e-12)
    assert factor <= 2.0


def _strip_wall_time(payload):
    if isinstance(payload, dict):
        return {k: _strip_wall_time(v) for k, v in payload.items() if k != "wall_time_s"}
    if isinstance(payload, list):
        return [_strip_wall_time(v) for v in payload]
    return payload


def test_criterion_11_cli_determinism(tmp_path):
    d2_csv = tmp_path / "d2.csv"
    d2_csv.write_text("x1,x2,y\n0,0,0\n1,0,1\n0,1,1\n1,1,2\n")
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(50, 2))
    y = (X[:, 0] + X[:, 1] > 1).astype(float) + 0.1 * rng.standard_normal(50)
    noisy_csv = tmp_path / "noisy.csv"
    from obliquetree import save_csv

    save_csv(Dataset(X, y), noisy_csv)
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps(
            {
                "intercept": 0.0,
                "components": [
                    {"kind": "linear", "parameters": {"slope": 1.0}, "direction": [1.0, 1.0]}
                ],
            }
        )
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "model": json.loads(model_path.read_text()),
                "n": 24,
                "noise_std": 0.0,
                "seed": 9,
                "strategy": {"kind": "exhaustive_oblique", "sparsity_d": 2, "node_cap": 64},
                "depth_range": [0, 3],
                "domain_box": [[0, 1], [0, 1]],
                "mc_size": 200,
            }
        )
    )
    tree_path = tmp_path / "tree.json"
    main(["train", str(noisy_csv), "--depth", "3", "--out", str(tree_path)])

    commands = {
        "train": ["train", str(noisy_csv), "--depth", "3", "--strategy", "random_projection", "--sparsity", "2", "--candidates", "40", "--seed", "5"],
        "prune": ["prune", str(tree_path), str(noisy_csv), "--grid", "0.001,0.01,0.1", "--seed", "2"],
        "stumps": ["stumps", str(tree_path), str(noisy_csv)],
        "subopt": ["subopt", str(d2_csv), "--strategy", "random_projection", "--sparsity", "2", "--kappa", "0.9", "--trials", "5", "--seed", "4"],
    }
    all_ok = True
    for name, argv in commands.items():
        outputs = []
        for run in range(2):
            out = tmp_path / f"{name}_{run}.json"
            code = main(argv + ["--out", str(out)])
            assert code == 0, name
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            all_ok = False
    for run in range(2):
        prefix = tmp_path / f"exp_{run}"
        assert main(["experiment", str(config_path), "--kind", "rate", "--out", str(prefix)]) == 0
    exp = [
        json.dumps(_strip_wall_time(json.loads((tmp_path / f"exp_{r}.json").read_text())), sort_keys=True)
        for r in range(2)
    ]
    if exp[0] != exp[1]:
        all_ok = False
    gen = []
    for run in range(2):
        out = tmp_path / f"gen_{run}.csv"
        assert main(["generate", str(model_path), "--n", "30", "--box", "[[0,1],[0,1]]", "--seed", "6", "--out", str(out)]) == 0
        gen.append(out.read_bytes())
    if gen[0] != gen[1]:
        all_ok = False
    print(
        f"[criterion 11] {'PASS' if all_ok else 'FAIL'} CLI determinism: "
        f"train/prune/stumps/subopt/experiment/generate byte-identical across reruns"
    )
    assert all_ok

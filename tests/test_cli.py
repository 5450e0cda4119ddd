import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obliquetree
from obliquetree import Dataset, SearchStrategy, save_csv
from obliquetree.cli import _strategy_from_args, build_parser, main

D1_CSV = "x,y\n1,0\n2,0\n3,1\n4,1\n"

MODEL_SPEC = {
    "intercept": 0.0,
    "components": [
        {"kind": "linear", "parameters": {"slope": 1.0}, "direction": [1.0, 1.0]}
    ],
}


def write_d1(tmp_path):
    path = tmp_path / "d1.csv"
    path.write_text(D1_CSV)
    return str(path)


def write_json(tmp_path, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return str(path)


def strip_wall_time(payload):
    if isinstance(payload, dict):
        return {
            k: strip_wall_time(v) for k, v in payload.items() if k != "wall_time_s"
        }
    if isinstance(payload, list):
        return [strip_wall_time(v) for v in payload]
    return payload


def test_train_writes_tree(tmp_path, capsys):
    csv = write_d1(tmp_path)
    out = tmp_path / "tree.json"
    code = main(["train", csv, "--depth", "2", "--out", str(out)])
    assert code == 0
    tree = json.loads(out.read_text())
    assert tree["nodes"][0]["split"]["threshold"] == 2.5


def test_train_stdout(tmp_path, capsys):
    csv = write_d1(tmp_path)
    assert main(["train", csv, "--depth", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_depth_reached"] == 1


def test_prune_fixed_lambda(tmp_path):
    csv = write_d1(tmp_path)
    tree_path = tmp_path / "tree.json"
    main(["train", csv, "--depth", "1", "--out", str(tree_path)])
    out = tmp_path / "pruned.json"
    code = main(["prune", str(tree_path), csv, "--lambda", "0.3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["sequence"]["steps"]) == 1
    selected = payload["selected"]
    assert all(node["split"] is None for node in selected["nodes"] if node["node_id"] == 0)


def test_prune_holdout_grid(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(60, 2))
    y = (X[:, 0] > 0.5).astype(float) + 0.05 * rng.standard_normal(60)
    csv = tmp_path / "noisy.csv"
    save_csv(Dataset(X, y), csv)
    tree_path = tmp_path / "tree.json"
    main(["train", str(csv), "--depth", "3", "--out", str(tree_path)])
    out = tmp_path / "pruned.json"
    code = main(
        ["prune", str(tree_path), str(csv), "--grid", "0.001,0.01,0.1", "--holdout", "0.3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lambda"] in [0.001, 0.01, 0.1]
    assert len(payload["holdout_errors"]) == 3


def test_stumps_command(tmp_path):
    csv = write_d1(tmp_path)
    tree_path = tmp_path / "tree.json"
    main(["train", csv, "--depth", "1", "--out", str(tree_path)])
    out = tmp_path / "stumps.json"
    assert main(["stumps", str(tree_path), csv, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gram_deviation"] <= 1e-9
    assert payload["impurity_deviation"] <= 1e-9
    assert payload["reconstruction_deviation"] <= 1e-9
    assert payload["expansion"]["coefficients"] == [0.5, -0.5]


def test_stumps_rejects_data_the_tree_was_not_grown_on(tmp_path, capsys):
    # Same shape, other rows: routing them through the tree's splits
    # gives node counts other than the stored ones.
    rng = np.random.default_rng(0)
    paths = []
    for name in ("data.csv", "other.csv"):
        paths.append(str(tmp_path / name))
        save_csv(Dataset(rng.uniform(size=(60, 2)), rng.standard_normal(60)), paths[-1])
    tree_path = tmp_path / "tree.json"
    assert main(["train", paths[0], "--depth", "3", "--out", str(tree_path)]) == 0
    capsys.readouterr()
    assert main(["stumps", str(tree_path), paths[1]]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: routed counts disagree with stored counts\n")


def test_stumps_builds_its_expansion_once(tmp_path, monkeypatch):
    # Building the expansion routes every training row; the Gram,
    # impurity and reconstruction checks all read the command's one.
    csv = write_d1(tmp_path)
    tree_path = str(tmp_path / "tree.json")
    assert main(["train", csv, "--depth", "2", "--out", tree_path]) == 0
    calls = []
    build = obliquetree.stumps.build_expansion
    monkeypatch.setattr(obliquetree.stumps, "build_expansion", lambda *a: calls.append(a) or build(*a))
    assert main(["stumps", tree_path, csv, "--out", str(tmp_path / "stumps.json")]) == 0
    assert len(calls) == 1


def test_subopt_command(tmp_path):
    # D2 on disk.
    csv = tmp_path / "d2.csv"
    csv.write_text("x1,x2,y\n0,0,0\n1,0,1\n0,1,1\n1,1,2\n")
    out = tmp_path / "subopt.json"
    code = main(
        ["subopt", str(csv), "--strategy", "axis_aligned", "--kappa", "0.7", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["success_fraction"] == 1.0



def test_subopt_at_sparsity_3_splits_anisotropic_columns(tmp_path):
    # ROADMAP item 14's input: column 1 scaled by 2^45.  Every first
    # contender of the oracle fails to store its split; screened again,
    # the node still splits, so subopt exits 0 at the oracle's decrease.
    rng = np.random.default_rng(2)
    X = rng.uniform(-1.0, 1.0, size=(40, 3))
    y = np.sin(X @ np.array([1.0, 1.5, -0.5])) + 0.1 * rng.standard_normal(40)
    X[:, 1] *= 2.0**45
    csv, out = tmp_path / "aniso.csv", tmp_path / "subopt.json"
    save_csv(Dataset(X, y), str(csv))
    argv = ["subopt", str(csv), "--strategy", "exhaustive_oblique", "--sparsity", "3", "--kappa", "1.0"]
    assert main(argv + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["success_fraction"] == 1.0
    assert payload["oracle_decrease"] > 0.3093

def test_generate_then_train(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(MODEL_SPEC))
    csv = tmp_path / "gen.csv"
    code = main(
        ["generate", str(model_path), "--n", "40", "--box", "[[0,1],[0,1]]", "--seed", "5", "--out", str(csv)]
    )
    assert code == 0
    assert main(["train", str(csv), "--depth", "2"]) == 0


def test_experiment_command(tmp_path):
    config = {
        "model": MODEL_SPEC,
        "n": 24,
        "noise_std": 0.0,
        "seed": 9,
        "strategy": {"kind": "exhaustive_oblique", "sparsity_d": 2, "node_cap": 64},
        "depth_range": [0, 3],
        "domain_box": [[0, 1], [0, 1]],
        "mc_size": 200,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    prefix = tmp_path / "report"
    code = main(["experiment", str(config_path), "--kind", "rate", "--out", str(prefix)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["summary"]["violations"] == []
    # --mc overrides the config's Monte Carlo size.
    code = main(["experiment", str(config_path), "--kind", "rate", "--mc", "37", "--out", str(prefix)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["mc_size"] == 37


def test_exit_codes_input_errors(tmp_path):
    assert main(["train", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,oops\n")
    assert main(["train", str(bad)]) == 1
    assert main(["nonsense"]) == 1
    # NaN passed both `< 0` and `> 0` as false and wrote noiseless data.
    spec = write_json(tmp_path, MODEL_SPEC)
    for noise in ("nan", "inf", "-1"):
        argv = ["generate", spec, "--n", "5", "--noise", noise, "--box", "[[0, 1], [0, 1]]",
                "--out", str(tmp_path / "g.csv")]
        assert main(argv) == 1
    assert not (tmp_path / "g.csv").exists()


D2_CSV = "x1,x2,y\n1,0,0\n2,1,0\n3,0,1\n4,1,1\n"


def set_root(key, **fields):
    def corrupt(tree):
        root = tree["nodes"][0]
        (root[key] if key else root).update(fields)

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(lambda tree: tree["strategy"].update(bogus=1), "bogus", id="unknown_strategy_key"),
        pytest.param(lambda tree: tree["nodes"][1].update(sse=float("nan")), "node 1", id="nan_sse"),
        pytest.param(lambda tree: tree["strategy"].update(sparsity_d="2"), "sparsity_d", id="string_sparsity"),
        pytest.param(set_root("split", threshold=float("nan")), "node 0", id="nan_threshold"),
        pytest.param(set_root("split", decrease=float("inf")), "node 0", id="inf_decrease"),
        pytest.param(set_root("split", direction=[0.0, 0.0]), "node 0", id="zero_direction"),
        pytest.param(set_root("split", direction=[1.0]), "node 0", id="short_direction"),
        pytest.param(set_root("split", direction=[-3.0, 0.0]), "node 0", id="non_canonical_direction"),
        pytest.param(set_root(None, left_child=99), "node 0", id="dangling_child"),
        pytest.param(set_root(None, left_child=True), "node 0", id="boolean_child"),
        pytest.param(set_root(None, depth=[1]), "node 0 depth", id="list_depth"),
        pytest.param(lambda tree: tree.update(p=None), "p: ", id="null_p"),
        pytest.param(lambda tree: tree.update(nodes=None), "nodes", id="null_nodes"),
        pytest.param(set_root("split", direction=5), "direction", id="number_direction"),
        pytest.param(set_root(None, split=[1]), "node 0 split", id="list_split"),
        pytest.param(set_root("split", direction=[1e200, 1e200]), "node 0", id="overflowing_direction"),
        pytest.param(set_root(None, left_child=0), "node 0", id="root_is_its_own_child"),
        pytest.param(lambda tree: tree["nodes"].append(dict(tree["nodes"][1], node_id=3)), "node 3", id="orphan_leaf"),
        pytest.param(lambda tree: tree.update(root_id=7), "root_id 7", id="missing_root"),
        pytest.param(lambda tree: tree["nodes"][2].update(depth=2), "node 2", id="child_depth"),
        pytest.param(set_root("split", left_count=7), "node 0 split counts", id="split_count"),
        # Unchecked, a root count below n gives stumps a Gram deviation of 1/3.
        pytest.param(set_root(None, count=3), "node 0 child counts", id="root_count"),
        pytest.param(lambda tree: tree.update(n=3), "root node 0", id="n"),
        # Unchecked, prune --grid takes a stored depth of 40 as its holdout depth.
        pytest.param(lambda tree: tree.update(max_depth_reached=40), "max_depth_reached 40", id="max_depth"),
        # Strings, floats and bools used to be coerced, unknown keys
        # ignored, and 1e400 ended in an OverflowError traceback.
        pytest.param(lambda tree: tree.update(p=1e400), "tree p: expected an integer, got inf", id="overflowing_p"),
        pytest.param(lambda tree: tree.update(n=4.7), "tree n: expected an integer, got 4.7", id="float_n"),
        pytest.param(lambda tree: tree.update(n="4"), "tree n: expected an integer, got '4'", id="string_n"),
        pytest.param(lambda tree: tree["nodes"][1].update(depth=True), "tree node 1 depth: expected an integer, got True", id="true_depth"),
        pytest.param(set_root(None, count=4.0), "tree node 0 count: expected an integer, got 4.0", id="float_count"),
        pytest.param(set_root("split", left_count=2.5), "tree node 0 split left_count: expected an integer", id="float_left_count"),
        pytest.param(set_root("split", threshold="2.5"), "tree node 0 split threshold: expected a finite number", id="string_threshold"),
        pytest.param(lambda tree: tree.update(bogus=1), "tree has unknown key 'bogus'", id="unknown_tree_key"),
        pytest.param(set_root(None, index_set=[0, 1, 2, 3]), "tree node 0 has unknown key 'index_set'", id="stored_index_set"),
        pytest.param(set_root("split", bogus=1), "tree node 0 split has unknown key 'bogus'", id="unknown_split_key"),
        pytest.param(lambda tree: tree["nodes"][1].pop("mean"), "tree node 1 has no 'mean'", id="missing_mean"),
        # Both used to load: the dict kept the last entry of node 1, and
        # to_dict wrote the leaf's stray child id back.
        pytest.param(lambda tree: tree["nodes"].append(dict(tree["nodes"][1])), "node 1 is listed twice", id="listed_twice"),
        pytest.param(lambda tree: tree["nodes"][1].update(left_child=2), "node 1 is a leaf with a child id", id="leaf_child"),
    ],
)
def test_prune_rejects_bad_tree_json(tmp_path, capsys, corrupt, message):
    csv = tmp_path / "d2.csv"
    csv.write_text(D2_CSV)
    tree_path = tmp_path / "tree.json"
    assert main(["train", str(csv), "--depth", "1", "--out", str(tree_path)]) == 0
    payload = json.loads(tree_path.read_text())
    assert payload["nodes"][0]["split"]["direction"] == [1.0, 0.0]
    corrupt(payload)
    tree_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["prune", str(tree_path), str(csv), "--lambda", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "flags",
    [["--lambda", "nan"], ["--lambda", "inf"], ["--grid", "1,nan,inf"], ["--grid", "0.1,inf"]],
    ids=["lambda_nan", "lambda_inf", "grid_nan_inf", "grid_inf"],
)
def test_prune_rejects_non_finite_lambda(tmp_path, capsys, flags):
    # NaN and infinity used to pass the `< 0` test and reach the output as
    # NaN / Infinity, which are not JSON.
    csv = write_d1(tmp_path)
    tree_path = tmp_path / "tree.json"
    assert main(["train", csv, "--depth", "1", "--out", str(tree_path)]) == 0
    out = tmp_path / "pruned.json"
    capsys.readouterr()
    assert main(["prune", str(tree_path), csv, *flags, "--holdout", "0.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_prune_rejects_a_one_row_csv(tmp_path, capsys):
    # Its holdout used to be empty: every holdout error was NaN, numpy
    # warned twice, and the output held bare NaN tokens, which are not JSON.
    csv = tmp_path / "one.csv"
    csv.write_text("x1,y\n1,2\n")
    tree_path = tmp_path / "tree.json"
    assert main(["train", str(csv), "--out", str(tree_path)]) == 0
    out = tmp_path / "pruned.json"
    capsys.readouterr()
    assert main(["prune", str(tree_path), str(csv), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: holdout needs at least 2 rows, got 1\n"
    assert not out.exists()


def test_train_rejects_an_oracle_above_sparsity_3_in_one_line(tmp_path, capsys):
    # Four features and a response: the capped sparsity is 4, which the
    # exact oracle does not search.
    rng = np.random.default_rng(0)
    csv = tmp_path / "five.csv"
    rows = "\n".join(",".join(repr(v) for v in row) for row in rng.uniform(-1.0, 1.0, (12, 5)).tolist())
    csv.write_text("x1,x2,x3,x4,y\n" + rows + "\n")
    out = tmp_path / "tree.json"
    capsys.readouterr()
    argv = ["train", str(csv), "--strategy", "exhaustive_oblique", "--sparsity", "4", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: exhaustive search supports sparsity_d <= 3\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "prune", "generate", "subopt"])
def test_a_negative_seed_exits_with_one_line_naming_the_seed(tmp_path, capsys, command):
    # numpy's own message, "expected non-negative integer", named no input.
    csv = write_d1(tmp_path)
    tree_path = str(tmp_path / "tree.json")
    assert main(["train", csv, "--out", tree_path]) == 0
    argv = {
        "train": ["train", csv, "--strategy", "random_projection"],
        "prune": ["prune", tree_path, csv],
        "generate": ["generate", write_json(tmp_path, MODEL_SPEC), "--n", "5", "--box", "[[0, 1], [0, 1]]",
                     "--out", str(tmp_path / "out.csv")],
        "subopt": ["subopt", csv, "--strategy", "random_projection", "--kappa", "0.5"],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be a non-negative integer, got -1\n")


# A relu whose misspelt "parameters" key used to be ignored, leaving slope 1.
MISSPELT_MODEL = {
    "intercept": 0.0,
    "components": [{"kind": "relu", "paramters": {"slope": 5.0}, "direction": [1.0, 1.0]}],
}


def experiment_config(**overrides):
    config = {
        "model": MODEL_SPEC,
        "n": 24,
        "noise_std": 0.0,
        "seed": 9,
        "strategy": {"kind": "exhaustive_oblique", "sparsity_d": 2},
        "depth_range": [0, 2],
        "domain_box": [[0, 1], [0, 1]],
        "mc_size": 50,
    }
    config.update(overrides)
    return config


def experiment(**overrides):
    return lambda tmp: ["experiment", write_json(tmp, experiment_config(**overrides)), "--kind", "rate"]


def generate(model, box="[[0, 1], [0, 1]]"):
    return lambda tmp: ["generate", write_json(tmp, model), "--n", "50", "--box", box, "--out", str(tmp / "g.csv")]


def with_slope(slope):
    component = dict(MODEL_SPEC["components"][0], parameters={"slope": slope})
    return dict(MODEL_SPEC, components=[component])


def train(*flags):
    return lambda tmp: ["train", write_d1(tmp), *flags]


def subopt_on_four_features(tmp):
    path = tmp / "d4.csv"
    path.write_text("a,b,c,d,y\n0,0,0,0,0\n1,0,1,0,1\n0,1,1,1,1\n1,1,0,1,2\n")
    return ["subopt", str(path), "--kappa", "0.5"]


def pruning_without_a_grid(tmp):
    return ["experiment", write_json(tmp, experiment_config()), "--kind", "pruning"]


def deeply_nested(command):
    """command with a file of 100,000 nested '[' as its JSON input, which
    json answers with a RecursionError."""
    def argv(tmp):
        path = tmp / "deep.json"
        path.write_text("[" * 100_000)
        return {
            "prune": ["prune", str(path), write_d1(tmp)],
            "stumps": ["stumps", str(path), write_d1(tmp)],
            "experiment": ["experiment", str(path)],
            "generate": ["generate", str(path), "--n", "5", "--box", "[[0, 1]]", "--out", str(tmp / "g.csv")],
        }[command]
    return argv


THREE_D = {"kind": "linear", "parameters": {"slope": 1.0}, "direction": [1.0, 1.0, 1.0]}


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(experiment(domain_box=5), "experiment config domain_box", id="domain_box_int"),
        pytest.param(experiment(strategy=[1]), "experiment config strategy must be", id="strategy_list"),
        pytest.param(experiment(model=None), "experiment config ridge model must be", id="model_null"),
        pytest.param(generate(MODEL_SPEC, box="5"), "domain_box", id="generate_box_int"),
        pytest.param(experiment(mc_sise=50), "unknown key 'mc_sise'", id="config_mc_sise"),
        pytest.param(experiment(lamda_grid=[0.1]), "unknown key 'lamda_grid'", id="config_lamda_grid"),
        pytest.param(experiment(model=MISSPELT_MODEL), "component has unknown key 'paramters'", id="experiment_component_paramters"),
        pytest.param(generate(MISSPELT_MODEL), "component has unknown key 'paramters'", id="generate_component_paramters"),
        pytest.param(generate(dict(MODEL_SPEC, intercpt=1.0)), "ridge model has unknown key 'intercpt'", id="generate_model_intercpt"),
        # Strings, floats and bools used to be coerced: "24" read as 24,
        # 9.7 as 9, true as 1 or 1.0, and 1e400 ended in an OverflowError.
        pytest.param(experiment(n="24"), "experiment config n: expected an integer, got '24'", id="config_string_n"),
        pytest.param(experiment(seed=9.7), "experiment config seed: expected an integer", id="config_float_seed"),
        pytest.param(experiment(min_node_size=True), "experiment config min_node_size: expected an integer", id="config_true_min_node_size"),
        pytest.param(experiment(mc_size=1e400), "experiment config mc_size: expected an integer, got inf", id="config_overflowing_mc_size"),
        pytest.param(experiment(depth_range=[0, 2.5]), "experiment config depth_range: expected an integer", id="config_float_depth"),
        pytest.param(experiment(noise_std="0"), "experiment config noise_std: expected a finite number", id="config_string_noise"),
        pytest.param(experiment(domain_box=[[0, "1"], [0, 1]]), "experiment config domain_box: expected a finite number", id="config_string_side"),
        pytest.param(experiment(model=dict(MODEL_SPEC, intercept=True)), "ridge model intercept: expected a finite number, got True", id="config_true_intercept"),
        pytest.param(experiment(model=with_slope("1.0")), "linear parameters slope: expected a finite number", id="config_string_slope"),
        pytest.param(generate(dict(MODEL_SPEC, intercept=True)), "ridge model intercept", id="generate_true_intercept"),
        pytest.param(generate(with_slope(1e400)), "linear parameters slope", id="generate_infinite_slope"),
        pytest.param(generate(MODEL_SPEC, box='[[0, "1"], [0, 1]]'), "domain_box: expected a finite number", id="generate_string_side"),
        # Values out of range, in flags, a CSV or a config.
        pytest.param(train("--candidates", "-1"), "num_candidates must be >= 0", id="train_candidates"),
        pytest.param(train("--restarts", "0"), "restarts must be >= 1", id="train_restarts"),
        pytest.param(train("--iterations", "-1"), "max_iterations must be >= 0", id="train_iterations"),
        pytest.param(train("--depth", "-1"), "max_depth must be >= 0", id="train_depth"),
        pytest.param(train("--min-node-size", "0"), "min_node_size must be >= 1", id="train_min_node_size"),
        pytest.param(subopt_on_four_features, "needs p <= 3 for the exact oracle", id="subopt_p4"),
        pytest.param(experiment(depth_range=[3, 1]), "depth range must satisfy 0 <= lo <= hi", id="rate_depth_range"),
        pytest.param(experiment(n=0), "counts must be >= 1", id="rate_n"),
        pytest.param(experiment(mc_size=0), "counts must be >= 1", id="rate_mc_size"),
        pytest.param(experiment(noise_std=0.1), "rate experiment requires noiseless data", id="rate_noise"),
        pytest.param(
            experiment(strategy={"kind": "exhaustive_oblique", "sparsity_d": 1}),
            "rate experiment requires full sparsity with p <= 3", id="rate_sparsity",
        ),
        pytest.param(
            experiment(model=dict(MODEL_SPEC, components=[])),
            "model needs at least one component", id="rate_no_components",
        ),
        pytest.param(
            experiment(model=dict(MODEL_SPEC, components=MODEL_SPEC["components"] + [THREE_D])),
            "components disagree on dimension", id="rate_mixed_dimensions",
        ),
        pytest.param(pruning_without_a_grid, "pruning experiment needs a lambda grid", id="pruning_no_grid"),
        # Nesting past the recursion limit used to end in a RecursionError
        # traceback.
        *(
            pytest.param(deeply_nested(command), "deep.json: maximum recursion depth exceeded", id=f"{command}_deeply_nested")
            for command in ("prune", "stumps", "experiment", "generate")
        ),
        pytest.param(generate(MODEL_SPEC, box="[" * 50_000), "--box: maximum recursion depth exceeded", id="generate_box_deeply_nested"),
    ],
)
def test_wrong_shaped_json_exits_with_one_line(tmp_path, capsys, command, message):
    assert main(command(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def _fields(document, path=()):
    """(path, key) of every key of every JSON object in a document."""
    if isinstance(document, dict):
        for key, value in document.items():
            yield path, key
            yield from _fields(value, path + (key,))
    elif isinstance(document, list):
        for index, value in enumerate(document):
            yield from _fields(value, path + (index,))


def _defaulted(path, key) -> bool:
    """Whether a default fills in this key when it is left out."""
    return (
        (path[-1:] == ("strategy",) and key != "kind")
        or key in ("mc_size", "intercept", "parameters")
        or path[-1:] == ("parameters",)
    )


def _object_at(document, path):
    for step in path:
        document = document[step]
    return document


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory holding D2_CSV and a tree grown on it, with that
    tree's JSON and a valid experiment config."""
    tmp = tmp_path_factory.mktemp("valid_inputs")
    (tmp / "d2.csv").write_text(D2_CSV)
    out = tmp / "tree.json"
    assert main(["train", str(tmp / "d2.csv"), "--depth", "2", "--out", str(out)]) == 0
    return tmp, {"tree": json.loads(out.read_text()), "config": experiment_config()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_bad_field_exits_with_one_line(valid_inputs, data):
    # One change to a valid tree or experiment config: a field replaced
    # by a value of the wrong kind, a float in an integer field, a
    # required key removed or an unknown key added.
    tmp, documents = valid_inputs
    name = data.draw(st.sampled_from(sorted(documents)))
    document = json.loads(json.dumps(documents[name]))
    fields = list(_fields(document))
    change = data.draw(st.sampled_from(["replace", "float", "remove", "add"]))
    if change == "add":
        objects = [()] + [path + (key,) for path, key in fields if isinstance(_object_at(document, path)[key], dict)]
        _object_at(document, data.draw(st.sampled_from(objects)))["bogus"] = 1
    else:
        if change == "float":
            fields = [(path, key) for path, key in fields if type(_object_at(document, path)[key]) is int]
        elif change == "remove":
            fields = [(path, key) for path, key in fields if not _defaulted(path, key)]
        path, key = data.draw(st.sampled_from(fields))
        record = _object_at(document, path)
        if change == "remove":
            del record[key]
        elif change == "float":
            record[key] = float(record[key])
        else:
            old = record[key]
            new = data.draw(st.sampled_from(["2", True, False, None, [], {}, 1e400, float("nan")]))
            # A leaf's null split or child, and an empty parameter set,
            # are valid.
            if old is None and new is None or key == "parameters" and new == {}:
                return
            record[key] = new
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(document))
    if name == "tree":
        argv = ["prune", str(bad), str(tmp / "d2.csv"), "--lambda", "0.1"]
    else:
        argv = ["experiment", str(bad), "--kind", "rate"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 1
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("command", [["train", "d.csv"], ["subopt", "d.csv", "--kappa", "0.5"]])
def test_strategy_flags_default_to_the_strategy_defaults(command):
    # Only SearchStrategy writes the defaults; the flags read them.
    args = build_parser().parse_args(command)
    assert _strategy_from_args(args) == SearchStrategy(kind=args.strategy)


def test_fast_rate_rejects_a_depth_range_without_a_depth_of_one(tmp_path, capsys):
    config = write_json(tmp_path, experiment_config(depth_range=[0, 0]))
    assert main(["experiment", config, "--kind", "fast_rate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "depth >= 1" in err


@pytest.mark.parametrize("strategy", ["random_projection", "exhaustive_oblique"])
def test_sparsity_above_p_is_capped_at_p(tmp_path, strategy):
    # sparsity_d is a cap on the support size: 5 on p=3 data means 3.
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(24, 3))
    csv = tmp_path / "p3.csv"
    save_csv(Dataset(X, X[:, 0] + X[:, 1] - X[:, 2] + (X[:, 2] > 0.5)), csv)
    nodes = {}
    for sparsity in ("3", "5"):
        out = tmp_path / f"tree{sparsity}.json"
        flags = ["--strategy", strategy, "--sparsity", sparsity, "--candidates", "20", "--seed", "2"]
        assert main(["train", str(csv), "--depth", "2", *flags, "--out", str(out)]) == 0
        nodes[sparsity] = json.loads(out.read_text())["nodes"]
    assert nodes["5"] == nodes["3"]
    assert any(node["split"] is not None for node in nodes["5"])


def test_exit_code_bound_violation(tmp_path, monkeypatch):
    # The guarantee cannot be violated honestly under the enforced
    # preconditions, so exercise the exit-code path by stubbing the
    # runner with one that raises.
    import obliquetree.cli as cli
    from obliquetree.experiments import BoundViolationError, RateReport

    def explode(config):
        raise BoundViolationError(
            "stub", RateReport(kind="rate", config=config, rows=[])
        )

    monkeypatch.setattr(cli.experiments, "run_rate_experiment", explode)
    config = {
        "model": MODEL_SPEC,
        "n": 8,
        "noise_std": 0.0,
        "seed": 0,
        "strategy": {"kind": "exhaustive_oblique", "sparsity_d": 2},
        "depth_range": [0, 1],
        "domain_box": [[0, 1], [0, 1]],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["experiment", str(config_path), "--kind", "rate"]) == 2


def test_exit_code_bound_violation_still_writes_the_report(tmp_path, monkeypatch, capsys):
    # With --out, the report of a violated bound is written before exit 2.
    import obliquetree.cli as cli
    from obliquetree.experiments import BoundViolationError, RateReport

    reports = []

    def explode(config):
        reports.append(RateReport(kind="rate", config=config, rows=[{"depth": 1, "imse": 0.25}]))
        raise BoundViolationError("stub", reports[-1])

    monkeypatch.setattr(cli.experiments, "run_rate_experiment", explode)
    prefix = tmp_path / "violated"
    assert main(["experiment", write_json(tmp_path, experiment_config()), "--out", str(prefix)]) == 2
    assert capsys.readouterr().err == "bound violation: stub\n"
    assert (tmp_path / "violated.json").read_text() == reports[0].to_json()
    assert (tmp_path / "violated.jsonl").read_text() == '{"depth": 1, "imse": 0.25}\n'
    assert (tmp_path / "violated.csv").read_text() == "depth,imse\n1,0.25\n"


@pytest.mark.parametrize("kind", ["rate", "fast_rate", "pruning"])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_experiment_report_matches_the_library(tmp_path, capsys, kind, to_file):
    # The report the command writes, to <prefix>.json or to stdout, is
    # the library's for the same config, wall time aside.
    from obliquetree import experiments

    config = experiment_config(lambda_grid=[1e-4, 1e-2, 1.0], depth_range=[0, 3])
    argv = ["experiment", write_json(tmp_path, config), "--kind", kind]
    if to_file:
        argv += ["--out", str(tmp_path / "report")]
    assert main(argv) == 0
    text = capsys.readouterr().out
    if to_file:
        assert text == ""
        text = (tmp_path / "report.json").read_text()
    run = {
        "rate": experiments.run_rate_experiment,
        "fast_rate": experiments.run_fast_rate_experiment,
        "pruning": experiments.run_pruning_experiment,
    }[kind]
    expected = run(experiments.ExperimentConfig.from_dict(config)).to_json()
    assert strip_wall_time(json.loads(text)) == strip_wall_time(json.loads(expected))


def test_train_rejects_a_cell_over_the_csv_field_limit(tmp_path, capsys):
    # The csv module's own error used to escape main as a traceback.
    big = tmp_path / "big.csv"
    big.write_text("x,y\n" + "1" * 200_000 + ",2\n")
    assert main(["train", str(big)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {big}: line 2: field larger than field limit (131072)\n"


def test_train_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"x,y\n1,2\n\xe9,3\n")
    assert main(["train", str(latin)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {latin}: line 3: byte 0xe9 is not UTF-8\n"


def test_cli_deterministic_outputs(tmp_path):
    # Fixed seed, two runs, byte-identical JSON (wall time keys aside).
    csv = write_d1(tmp_path)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(
            ["train", csv, "--depth", "1", "--strategy", "random_projection", "--candidates", "20", "--seed", "3", "--out", str(out)]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    # `python -m obliquetree.cli` runs the same command line as `obliquetree`.
    csv = write_d1(tmp_path)
    out = tmp_path / "tree.json"
    src = os.path.dirname(os.path.dirname(obliquetree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "obliquetree.cli", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    done = run("train", csv, "--depth", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["nodes"][0]["split"]["threshold"] == 2.5
    assert run("train", csv, "--no-such-flag").returncode == 1


def test_hill_climb_train_is_quiet_on_columns_scaled_near_the_float_limits(tmp_path):
    # A column at 1e300 next to one at 1e-300: the climb's crossing
    # points overflow, which must cost no numpy warning on stderr.
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, size=(200, 3))
    y = np.sin(X @ np.array([1.0, 1.5, -0.5])) + 0.1 * rng.standard_normal(200)
    X[:, 0] *= 1e300
    X[:, 1] *= 1e-300
    csv = str(tmp_path / "hostile.csv")
    save_csv(Dataset(X, y), csv)
    src = os.path.dirname(os.path.dirname(obliquetree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "tree.json"
    done = subprocess.run(
        [sys.executable, "-m", "obliquetree.cli", "train", csv, "--depth", "3",
         "--strategy", "hill_climb", "--sparsity", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(out.read_text())["nodes"][0]["split"] is not None

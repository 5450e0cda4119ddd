"""Tests of the benchmark itself, at the tiny smoke shapes.

    python3 -m pytest -q benchmark/test_benchmark.py

They run the benchmark as a fresh process from the root of the
checkout, with ``--smoke`` shrinking every shape.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return {(w, t): _parse(_run(w, t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_reports_every_metric(smoke_runs, workload, trace):
    details, result = smoke_runs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and details["error_rate"] == 0.0, details["failures"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_produce_the_same_outputs(smoke_runs, workload):
    plain = smoke_runs[(workload, 0)][0]["digests"]
    traced = smoke_runs[(workload, 1)][0]["digests"]
    common = set(plain) & set(traced)
    assert common
    assert {k: plain[k] for k in common} == {k: traced[k] for k in common}


def test_layers_absent_from_a_workload_read_zero(smoke_runs):
    def layer(workload, name):
        return smoke_runs[(workload, 1)][1]["metrics"][name]["value"]

    assert layer("exact_oracle", "splitting.search_exhaustive_oblique.calls") > 0
    assert layer("fit_large", "splitting.search_exhaustive_oblique.calls") == 0
    assert layer("cli_prune", "pruning.weakest_link_sequence.calls") > 0
    assert layer("fit_large", "pruning.weakest_link_sequence.calls") == 0
    assert layer("cli_prune", "cli.main.calls") == 3
    # Sequences per prune: one for the path, one per grid value, one for
    # the selection; over two trees (the full one and the holdout one).
    import workloads

    grid = workloads.SHAPES["smoke"]["cli_prune"]["grid"]
    assert layer("cli_prune", "pruning.sequence_reuse_ratio") == pytest.approx(2 / (grid + 2))


def test_tracer_restores_every_wrapped_name():
    import obliquetree
    import obliquetree.cli
    import tracing
    import workloads

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("obliquetree")]
    before = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer()
    rec = workloads.Recorder(tracer)
    shapes = workloads.SHAPES["smoke"]
    models = workloads.load_models()
    inputs = workloads.WORKLOADS["exact_oracle"].setup(5, shapes["exact_oracle"], models, None)
    with tracer:
        assert obliquetree.tree.run_search is not before[("obliquetree.splitting", "run_search")]
        assert obliquetree.splitting.project is not before[("obliquetree.dataset", "project")]
        workloads.WORKLOADS["exact_oracle"].run_pass(inputs, 0, rec)
    assert rec.failed == 0, rec.failures
    assert tracer.take_spans()
    after = {(m.__name__, a): v for m in modules for a, v in vars(m).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("fit_large", 0, cwd=tmp_path, script=str(tmp_path / "benchmark" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""

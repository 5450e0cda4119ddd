"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload fit_large --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` and the metric names and units come from ``BENCHMARK.json``.
With ``--trace 0`` the last line of standard output holds every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
from a traced run.  The line before it is a JSON object with the run's
details: environment, sample counts, tail percentiles, output digests
and the failures behind ``error_rate``.  ``--smoke`` runs the same code
at tiny shapes, for the benchmark's own tests.
"""

import os
import sys
import time

_START = time.perf_counter()
# One client, one thread: pin the BLAS/OpenMP pools before numpy loads.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

PROBE_SHARE = 0.2  # of the measured time that goes to probe rounds
SETUP_REPEATS = 3


def die(message: str):
    sys.stderr.write(f"benchmark: {message}\n")
    sys.exit(1)


def load_spec() -> dict:
    try:
        with open(SPEC_PATH) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read {SPEC_PATH}: {exc}")


def import_library():
    """Import obliquetree from this checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "obliquetree", "__init__.py")):
        die(f"no obliquetree sources under {SRC}")
    sys.path.insert(0, SRC)
    import numpy
    import obliquetree

    if not os.path.abspath(obliquetree.__file__).startswith(SRC + os.sep):
        die(f"imported obliquetree from {obliquetree.__file__}, not from {SRC}")
    import tracing
    import workloads

    return numpy, tracing, workloads


def environment(numpy, seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def setup_once(workload, workloads, args, shapes, models, workdir, reference, probe):
    """One timed set-up: the workload's inputs and a warm-up call of every
    operation on the probe inputs, which are built beforehand and untimed.

    Returns (inputs, seconds, the reference kernel's time just before).
    """
    ref = reference.run()["whole"]
    start = time.perf_counter()
    inputs = workload.setup(args.seed, shapes[args.workload], models, workdir)
    # Warm-up: one small call of every operation, so lazy set-up is not timed.
    workloads.probe_round(probe, 0, workloads.Recorder(), workloads.OP_METRICS)
    return inputs, time.perf_counter() - start, ref


def run_pass(workload, inputs, k, rec):
    start = time.perf_counter()
    out = workload.run_pass(inputs, k, rec)
    return out, time.perf_counter() - start


def measure(workload, workloads, inputs, probe, seconds, instances, reference, extra_setups):
    """Untraced passes, each followed by probe rounds, which take PROBE_SHARE
    of the run.

    Interleaving spreads the probe samples over the whole run, so they
    see the same machine load as the passes.  The first passes are also
    followed by one of the `extra_setups` repeated set-ups, for the same
    reason.
    """
    rec = workloads.Recorder()
    digests: dict[str, str] = {}
    probe_metrics = [m for m in workloads.OP_METRICS if m not in workload.owned]
    rounds = 0

    def calibrate():
        for part, value in reference.run().items():
            rec.add(f"reference_{part}_s", 0, value)

    def probe_round():
        nonlocal rounds
        calibrate()
        workloads.probe_round(probe, rounds, rec, probe_metrics)
        rounds += 1

    cycles: list[float] = []
    start = time.perf_counter()
    i = 0
    while i < instances or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        k = i % instances
        calibrate()
        out, wall = run_pass(workload, inputs, k, rec)
        rec.add("workload_s", k, wall)
        for name, digest in workload.check(inputs, k, out, rec).items():
            rec.check(f"{name} is the same on every pass", digests.setdefault(name, digest) == digest)
        if extra_setups:
            extra_setups.pop()()
        probe_until = time.perf_counter() + wall * PROBE_SHARE / (1.0 - PROBE_SHARE)
        while probe_metrics and time.perf_counter() < probe_until:
            probe_round()
        cycles.append(time.perf_counter() - start - sum(cycles))
        i += 1
    # Every probe instance at least once, so the mean over instances is complete.
    min_rounds = len(probe.rates if "rate_experiment_s" in probe_metrics else probe.instances)
    while probe_metrics and rounds < min_rounds:
        probe_round()
    return rec, digests, {"passes": i, "probe_rounds": rounds}


def measure_traced(workload, workloads, tracing, tracer, inputs, seconds, instances, spans_path):
    """Pairs of an untraced and a traced pass on the same instance."""
    plain, traced = workloads.Recorder(), workloads.Recorder(tracer)
    per_pass: list[dict] = []
    overheads: list[float] = []
    pair_walls: list[float] = []
    all_spans = []
    digests: dict[str, str] = {}
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start + statistics.median(pair_walls) <= seconds:
        k = i % instances
        pair_start = time.perf_counter()
        out, plain_wall = run_pass(workload, inputs, k, plain)
        plain_digests = workload.check(inputs, k, out, plain)
        with tracer:
            out, traced_wall = run_pass(workload, inputs, k, traced)
        spans = tracer.take_spans()
        traced_digests = workload.check(inputs, k, out, traced)
        traced.check(f"traced pass {i} outputs equal the untraced pass", traced_digests == plain_digests)
        per_pass.append(tracing.layer_metrics(spans, traced_wall))
        overheads.append(traced_wall - plain_wall)
        pair_walls.append(time.perf_counter() - pair_start)
        all_spans.append(spans)
        digests.update(traced_digests)
        i += 1
    tracing.write_spans(spans_path, all_spans)
    layer = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    layer["trace.overhead_s"] = statistics.median(overheads)
    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures
    return layer, attempted, failures, digests, {"pairs": i}


def main(argv=None) -> int:
    spec = load_spec()
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's tests")
    args = parser.parse_args(argv)

    numpy, tracing, workloads = import_library()
    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[args.workload]
    shapes = workloads.SHAPES["smoke" if args.smoke else "full"]
    instances = shapes[args.workload]["instances"]
    models = workloads.load_models()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    reference = workloads.Reference()
    try:
        probe = workloads.setup_probe(args.seed, shapes["probe"], models, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer:  # one traced set-up, booked apart from the passes
                tracer.begin_op()
                try:
                    inputs, seconds, ref = setup_once(
                        workload, workloads, args, shapes, models, workdir, reference, probe
                    )
                finally:
                    tracer.end_op()
            setup_layer = tracing.layer_metrics(tracer.take_spans(), seconds)
        else:
            inputs, seconds, ref = setup_once(
                workload, workloads, args, shapes, models, workdir, reference, probe
            )
        setups = [(seconds, ref)]
        details = {"workload": args.workload, "environment": environment(numpy, args.seed),
                   "setup_repeats_s": setups}
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            layer, attempted, failures, digests, counts = measure_traced(
                workload, workloads, tracing, tracer, inputs, args.seconds, instances, spans_path
            )
            for name in ("ridge.generate_dataset.calls", "ridge.generate_dataset.self_s"):
                layer[f"setup.{name}"] = setup_layer[name]
            wanted = spec["per_layer"]
            values = layer
            details["spans"] = os.path.relpath(spans_path, ROOT)
        else:
            def extra_setup():
                setups.append(setup_once(workload, workloads, args, shapes, models, workdir,
                                         reference, probe)[1:])

            repeats = 1 if args.smoke else SETUP_REPEATS
            rec, digests, counts = measure(
                workload, workloads, inputs, probe, args.seconds, instances, reference,
                [extra_setup] * (repeats - 1),
            )
            attempted, failures = rec.attempted, rec.failures
            wanted = spec["end_to_end"]
            raw = {m: rec.value(m) for m in rec.samples}
            # Timings at the reference machine speed; see workloads.Reference.
            scale = {part: nominal / raw.pop(f"reference_{part}_s")
                     for part, nominal in workloads.REFERENCE_S.items()}
            values = {}
            for m, v in raw.items():
                part = workload.speed if m in workload.owned or m == "workload_s" else "whole"
                values[m] = v / scale[part] if m.endswith("_per_s") else v * scale[part]
            details["raw"] = raw
            details["speed_scale"] = scale
            # Each set-up is scaled by the kernel's time just before it.
            details["raw"]["setup_s"] = import_s + statistics.median(s for s, _ in setups)
            values["setup_s"] = workloads.REFERENCE_S["whole"] * (
                import_s / setups[0][1] + statistics.median(s / ref for s, ref in setups)
            )
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            details["samples"] = {m: rec.summary(m) for m in sorted(rec.samples)}
            details["import_s"] = import_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            failures.append(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
    failed = len(failures)
    details.update(counts)
    details["error_rate"] = failed / max(attempted, 1)
    details["failures"] = failures[:20]
    details["digests"] = digests
    print(json.dumps({"details": details}, sort_keys=True))
    for name, metric in metrics.items():
        sys.stderr.write(f"{name:>40} {metric['value']:>16.6g} {metric['unit']}\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

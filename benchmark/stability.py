"""Run workloads several times and report each metric's spread.

    python3 benchmark/stability.py --workload exact_oracle --runs 10 --first-seed 1
    python3 benchmark/stability.py --runs 1     # every workload once

Each run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed + 1, ...), run one after another.  For every metric the table
gives the median of the runs, the first and third quartiles as Python's
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound from ``BENCHMARK.json``.
With one run, the quartiles are the value itself.  Runs are untraced
and last ``run_seconds`` from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def _spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def spread_table(results: list[dict], spec: dict) -> list[str]:
    """One row per end-to-end metric; `raw` is the spread before the speed scaling."""
    lines = [f"{'metric':<44}{'unit':>8}{'median':>14}{'q1':>14}{'q3':>14}"
             f"{'spread':>8}{'bound':>7}{'raw':>8}"]
    for entry in spec["end_to_end"]:
        median, q1, q3, spread = _spread([r["metrics"][entry["name"]]["value"] for r in results])
        raw = [r["details"].get("raw", {}).get(entry["name"]) for r in results]
        raw_spread = f"{_spread(raw)[3]:8.3f}" if None not in raw else " " * 8
        bound = entry["bound"]
        lines.append(
            f"{entry['name']:<44}{entry['unit']:>8}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
            f"{spread:>8.3f}{bound:>7}{raw_spread}"
            + ("  over a third of the bound" if spread > bound / 3 else "")
        )
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    failed = 0
    for workload in args.workload:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed)
            results.append(result)
            status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
            print(f"{workload} run {i + 1}/{args.runs} seed {seed}: {status}", flush=True)
        workload_failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload}: {args.runs} runs, error_rate {workload_failed / attempted:.3g} "
              f"({workload_failed} failed of {attempted} attempted)")
        print("\n".join(spread_table(results, spec)) + "\n")
        failed += workload_failed
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

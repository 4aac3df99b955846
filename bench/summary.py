"""Run every workload several times and print each end-to-end metric.

    python3 bench/summary.py --runs 5 --seconds 20 [--first-seed 1] [--trace]

Each run is `bench/run.py` with its own seed.  For every workload and
metric the table gives the unit, the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (quartile distance
over the median) and the run count.  `failed_jobs` is the share of
attempted jobs that failed a check.  With `--trace` one traced run per
workload follows, and its per-layer metrics are printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(BENCH.parent),
                          check=False)
    if proc.returncode != 0:
        raise SystemExit("%s exited with code %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description="Summarize the levo benchmark.")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=corpus.WORKLOADS,
                    help="default: every workload")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = ap.parse_args(argv)
    workloads = args.workload or list(corpus.WORKLOADS)

    print("%-10s %-14s %-5s %12s %12s %12s %7s %4s"
          % ("workload", "metric", "unit", "median", "q1", "q3", "spread", "runs"))
    for workload in workloads:
        samples = {}
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, args.seconds, 0)
            for name, m in res["metrics"].items():
                samples.setdefault(name, (m["unit"], []))[1].append(m["value"])
            samples.setdefault("failed_jobs", ("share", []))[1].append(
                res["failed"] / res["attempted"])
        for name, (unit, values) in samples.items():
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print("%-10s %-14s %-5s %12.6g %12.6g %12.6g %7.3f %4d"
                  % (workload, name, unit, med, q1, q3, spread, len(values)), flush=True)
    if args.trace:
        for workload in workloads:
            res = run_once(workload, args.first_seed, args.seconds, 1)
            print("\nper-layer metrics, %s, seed %d (correct: %s)"
                  % (workload, args.first_seed, res["correct"]))
            for name, m in res["metrics"].items():
                print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one levo benchmark workload and print its metrics.

    python3 bench/run.py --workload two-plane --seed 1 --seconds 20 --trace 0

Generates the workload's jobs from the seed, samples set-up time by
starting fresh interpreters that import levo and load the corpus, then
runs the corpus in one worker process (see worker.py).  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  Must be started from anywhere
inside a checkout that holds `src/levo`; it fails without a result
when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

PROBES = 4          # fresh interpreters per run that only set up
RUN_LIMIT_S = 170   # the worker is killed after this many seconds
# Lower bound on one pass's job time, used to size the generated corpus.
MIN_PASS_S = {"two-plane": 3.0, "isolated": 1.0, "polar": 2.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "corpus_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
}


def write_corpus(workdir, workload, seed, npasses):
    """Write the job documents and the manifest; returns its path."""
    workdir.mkdir(parents=True)
    passes = []
    for jobs in corpus.corpus(workload, seed, npasses):
        entries = []
        for job in jobs:
            path = workdir / (job.name + ".json")
            path.write_text(json.dumps(job.doc, indent=1) + "\n", encoding="utf-8")
            entries.append({"name": job.name, "path": str(path), "argv": job.argv,
                            "expect": job.expect})
        passes.append(entries)
    manifest = {"workload": workload, "seed": seed,
                "budget_s": corpus.JOB_BUDGET_S[workload], "passes": passes}
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def _worker_cmd(manifest, *extra):
    return [sys.executable, str(BENCH / "worker.py"), "--manifest", str(manifest),
            "--src", str(SRC)] + list(extra)


def start_worker(cmd, started):
    """Start a worker; returns (process, seconds until it printed ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    started.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        raise RuntimeError("worker did not set up")
    return proc, ready


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (worker result, set-up samples)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    npasses = 1 if trace else math.ceil(seconds / MIN_PASS_S[workload]) + 1
    workdir = WORK / ("%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    started = []
    try:
        manifest = write_corpus(workdir, workload, seed, npasses)
        setup = []
        for _ in range(PROBES):
            proc, ready = start_worker(_worker_cmd(manifest, "--probe"), started)
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up probe exited with code %d" % proc.returncode)
            setup.append(ready)
        extra = ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            OUT.mkdir(exist_ok=True)
            extra += ["--spans", str(OUT / ("spans-%s-%d.tsv" % (workload, seed)))]
        proc, ready = start_worker(_worker_cmd(manifest, *extra), started)
        setup.append(ready)
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError("worker exited with code %d" % proc.returncode)
        result = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        raise RuntimeError("a worker overran the run limit of %d s" % RUN_LIMIT_S)
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return result, setup


def end_to_end(result, setup):
    return {
        "setup_s": statistics.median(setup),
        "corpus_s": statistics.median(result["corpus_s"]),
        "slowest_job_s": statistics.median(result["slowest_job_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one levo benchmark workload.")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="job time to measure; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "levo" / "__init__.py").is_file():
        print("bench: no levo sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        result, setup = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    if args.trace:
        units = layers.metric_units()
        values = result["layer"]
    else:
        units = END_TO_END_UNITS
        values = end_to_end(result, setup)
    for name, problems in result["failures"].items():
        print("bench: FAILED %s: %s" % (name, "; ".join(map(str, problems))), file=sys.stderr)
    print("bench: %s seed %d: %d jobs in %d pass(es), %d failed"
          % (args.workload, args.seed, result["attempted"], len(result["corpus_s"]),
             result["failed"]), file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

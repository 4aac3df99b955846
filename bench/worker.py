"""One benchmark process: imports levo, loads the corpus, runs it.

Started by run.py with `--manifest PATH`.  Prints `ready` once
`import levo` has finished and the corpus is loaded; with `--probe` it
exits there, which is how set-up time is sampled.  Otherwise it runs
the passes as a closed loop (one job at a time, each through
`levo.cli.main(["compute", ...])` with stdout captured), checks the
reports and prints one JSON result line.

Untraced mode times pass after pass until about `--seconds` of job
time have been measured.  All jobs are checked against their closed forms; the
jobs of the first pass are also run a second time for byte identity
and, in polar mode, compared with the iterated-slice oracle.  Those
checks run after the timed passes and after peak memory is read.

Traced mode runs the first pass three times: untraced, untraced again,
and traced.  The traced report bytes must equal the untraced ones; the
per-layer statistics come from the traced run, and `trace.overhead` is
the traced time over the second untraced time (both with warm caches).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

import checks
import layers

ORACLE_BUDGET_FACTOR = 2.0


class BudgetExceeded(BaseException):
    """Raised by SIGALRM when a job overruns its wall budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def run_job(cli_main, job, budget):
    """(exit code, stdout, stderr, seconds) of one `levo compute` call."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["compute", "--input", job["path"]] + job["argv"]
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        elapsed = time.perf_counter() - start
        code = "over budget (%.1f s)" % budget
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash in the program under test is a failed job
        code = "exception"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), elapsed


def _iterated_oracle(doc, budget):
    """Polar point modules by the independent iterated-slice route."""
    from levo.cli import parse_config, prepare_job
    from levo.vogel import polar_modules_iterative

    cfg = parse_config(json.dumps(doc))
    job = prepare_job(cfg)
    n = len(cfg.variables)
    degrees = {0} | {int(k) for s in doc["sheaf"]["strata"] for k in s["morse"]}
    got = {}
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        for j in range(n):
            for k in sorted(degrees):
                grp = polar_modules_iterative(job.spec, job.point, j, k, seed=cfg.seed)
                got.setdefault(str(k), {})[str(j)] = grp.to_json()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return got


class Run:
    """Failures and job counts of one run; `budget` is the per-job wall budget."""

    def __init__(self, budget):
        self.budget = budget
        self.failures = {}  # job name -> problems
        self.attempted = 0

    def fail(self, job, problems):
        if problems:
            self.failures.setdefault(job["name"], []).extend(problems)

    def timed_pass(self, cli_main, jobs):
        """Run each job once; returns ([(code, stdout, stderr)], times)."""
        outputs, times = [], []
        for job in jobs:
            code, out, err, dt = run_job(cli_main, job, self.budget)
            outputs.append((code, out, err))
            times.append(dt)
        self.attempted += len(jobs)
        for job, (code, out, err) in zip(jobs, outputs):
            self.fail(job, checks.check_report(code, out, err, job["expect"]))
        return outputs, times

    def repeat_check(self, cli_main, jobs, outputs, label):
        """Run the jobs again; the report bytes must not change."""
        times = []
        for job, (code, out, _err) in zip(jobs, outputs):
            code2, out2, err2, dt = run_job(cli_main, job, 2 * self.budget)
            times.append(dt)
            if (code2, out2) != (code, out):
                self.fail(job, ["%s report differs from the first run" % label])
            if "Traceback" in err2:
                self.fail(job, ["traceback on stderr in the %s run" % label])
        return times

    def oracle_check(self, jobs, outputs):
        for job, (code, out, _err) in zip(jobs, outputs):
            doc = job["expect"].get("iterated_oracle")
            if doc is None or job["name"] in self.failures:
                continue
            try:
                got = _iterated_oracle(doc, ORACLE_BUDGET_FACTOR * self.budget)
            except BudgetExceeded:
                self.fail(job, ["iterated-slice oracle over budget"])
                continue
            except Exception as exc:  # the oracle could not certify the job
                self.fail(job, ["iterated-slice oracle failed: %r" % (exc,)])
                continue
            want = json.loads(out)["polar_modules"]
            if checks.modules_key(got) != checks.modules_key(want):
                self.fail(job, ["polar modules %r differ from the iterated-slice "
                                "oracle %r" % (want, got)])

    def result(self, **extra):
        return dict(
            attempted=self.attempted,
            failed=len(self.failures),
            failures={k: v[:3] for k, v in sorted(self.failures.items())[:10]},
            **extra,
        )


def untraced(manifest, cli_main, seconds):
    run = Run(manifest["budget_s"])
    passes = manifest["passes"]
    corpus_s, slowest_s = [], []
    first = None
    measured = 0.0
    for jobs in passes:
        # stop when one more pass would end further from the target
        if corpus_s and measured + statistics.mean(corpus_s) / 2 >= seconds:
            break
        outputs, times = run.timed_pass(cli_main, jobs)
        if first is None:
            first = (jobs, outputs)
        corpus_s.append(sum(times))
        slowest_s.append(max(times))
        measured += sum(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.repeat_check(cli_main, *first, "second")
    run.oracle_check(*first)
    return run.result(corpus_s=corpus_s, slowest_job_s=slowest_s, peak_rss_mb=peak_rss_mb)


def traced(manifest, cli_main, spans_path):
    import spans

    run = Run(manifest["budget_s"])
    jobs = manifest["passes"][0]
    outputs, times = run.timed_pass(cli_main, jobs)
    warm = run.repeat_check(cli_main, jobs, outputs, "second")
    before = spans.snapshot()
    recorder = spans.Recorder()
    installation = spans.Installation(recorder).install()
    try:
        traced_times = run.repeat_check(cli_main, jobs, outputs, "traced")
    finally:
        installation.uninstall()
    if not spans.originals_restored(before):
        run.failures.setdefault("(tracing)", []).append("wrappers were not restored")
    run.oracle_check(jobs, outputs)
    recorder.write(spans_path)
    metrics = layers.layer_metrics(recorder)
    metrics["trace.overhead"] = sum(traced_times) / sum(warm)
    return run.result(layer=metrics, corpus_s=[sum(times)])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--src", required=True, help="directory that holds the levo package")
    ap.add_argument("--probe", action="store_true", help="exit once set up")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import levo  # noqa: F401
    from levo.cli import main as cli_main

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print("ready", flush=True)
    if args.probe:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        result = traced(manifest, cli_main, args.spans)
    else:
        result = untraced(manifest, cli_main, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

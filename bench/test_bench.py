"""Self-tests of the benchmark: `python3 -m pytest -q bench`."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _compute(job, tmp_path):
    """Run one job through the CLI as the worker does."""
    from levo.cli import main

    path = tmp_path / (job.name + ".json")
    path.write_text(json.dumps(job.doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", "--input", str(path)] + job.argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the generator


def test_generator_is_deterministic_per_seed():
    for workload in corpus.WORKLOADS:
        a = [[j.to_json() for j in p] for p in corpus.corpus(workload, 7, 3)]
        b = [[j.to_json() for j in p] for p in corpus.corpus(workload, 7, 3)]
        c = [[j.to_json() for j in p] for p in corpus.corpus(workload, 8, 3)]
        assert a == b
        assert a != c


def test_no_config_seed_pair_repeats_within_a_run():
    for workload in corpus.WORKLOADS:
        keys = [corpus.job_key(j) for p in corpus.corpus(workload, 3, 30) for j in p]
        assert len(keys) == len(set(keys))


def test_polar_matrices_are_totally_nonsingular():
    for jobs in corpus.corpus("polar", 5, 5):
        for job in jobs:
            assert corpus.totally_nonsingular(job.doc["coordinate_order"])
    assert not corpus.totally_nonsingular([[1, 1], [1, 1]])
    assert not corpus.totally_nonsingular([[1, 0], [1, 1]])


# ---------------------------------------------------------------------------
# the checks


def test_group_comparison_ignores_normal_form():
    assert checks.group_key({"rank": 1, "torsion": [6]}) == checks.group_key(
        {"rank": 1, "torsion": [2, 3]})
    assert checks.group_key({"rank": 0, "torsion": [4]}) != checks.group_key(
        {"rank": 0, "torsion": [2, 2]})


def test_planted_wrong_expectations_are_caught(tmp_path):
    for workload in ("isolated", "polar"):
        job = corpus.corpus(workload, 11, 1)[0][0]
        code, out, err = _compute(job, tmp_path)
        assert checks.check_report(code, out, err, job.expect) == []

        wrong = json.loads(json.dumps(job.expect))
        k, per = next(iter(wrong["modules"].items()))
        j = next(iter(per))
        per[j]["rank"] += 1
        assert checks.check_report(code, out, err, wrong)

        wrong = dict(job.expect, exit=3)
        assert checks.check_report(code, out, err, wrong)

        wrong = dict(job.expect, retry=not job.expect["retry"])
        assert checks.check_report(code, out, err, wrong)

        assert checks.check_report(code, out, err + "Traceback (most recent call last)",
                                   job.expect)


def test_planted_wrong_two_plane_value_is_caught(tmp_path):
    job = corpus.corpus("two-plane", 1, 1)[0][0]  # the (a, b) = (2, 2) class
    code, out, err = _compute(job, tmp_path)
    assert checks.check_report(code, out, err, job.expect) == []
    for field in ("1", "0"):
        wrong = json.loads(json.dumps(job.expect))
        wrong["distinguished"][field]["rank"] += 1
        assert checks.check_report(code, out, err, wrong)
    wrong = dict(job.expect, euler=job.expect["euler"] + 1)
    assert checks.check_report(code, out, err, wrong)


def test_job_over_budget_is_a_failed_job():
    import signal

    def slow_main(argv):
        time.sleep(5)
        return 0

    previous = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        code, _out, _err, elapsed = worker.run_job(
            slow_main, {"path": "unused.json", "argv": []}, 0.2)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert isinstance(code, str) and code.startswith("over budget")
    assert elapsed < 2


# ---------------------------------------------------------------------------
# the tracing wrappers


def test_wrappers_rebind_every_namespace_and_are_restored(tmp_path):
    import levo.cli
    import levo.gecc
    import levo.ideals
    import levo.vogel

    job = corpus.corpus("polar", 2, 1)[0][1]
    _code, plain, _err = _compute(job, tmp_path)

    before = spans.snapshot()
    original = levo.ideals.split_components
    recorder = spans.Recorder()
    installation = spans.Installation(recorder).install()
    try:
        for module in (levo.ideals, levo.gecc, levo.vogel, levo):
            assert module.split_components is not original
            assert getattr(module.split_components, "__wrapped_by_bench__", False)
        _code, traced, _err = _compute(job, tmp_path)
    finally:
        installation.uninstall()
    assert spans.originals_restored(before)
    assert levo.ideals.split_components is original
    assert traced == plain

    stats = recorder.stats()
    assert stats["ideals.split_components"]["calls"] > 0
    assert stats["cli.run_pipeline"]["calls"] == 1
    for entry in stats.values():
        assert -1e-9 <= entry["self_s"] <= entry["s"] + 1e-9
    metrics = layers.layer_metrics(recorder)
    assert metrics["ideals.buchberger.distinct"] <= metrics["ideals.buchberger.calls"]


# ---------------------------------------------------------------------------
# the metric names and the contract


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_printed_metrics_appear_in_benchmark_json():
    spec = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "isolated", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "polar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Digest of the report bytes of a fixed job set.

Usage: python tools/report_digest.py OUT

Runs the golden jobs of `tests/test_golden.py` and the first two passes
of each bench workload at seeds 1-3 through `levo.cli.main` in process;
writes one line per run to OUT: workload, seed, job name, exit code and
the sha256 of its stdout.  Each golden job also runs as `compute
--format text`, `compute --seed 7` (a seed override parses the job a
second time), `check` and `gecc`, with workloads golden-text,
golden-seed7, golden-check and golden-gecc.  `diff` of two checkouts'
OUT files is the byte-identity check of their reports.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from corpus import WORKLOADS, corpus  # noqa: E402
from levo.cli import main  # noqa: E402
from test_golden import GOLDEN, JOBS  # noqa: E402


def _digest(path, argv, command="compute"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--input", str(path)] + list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def run(out_path):
    lines = []
    for name, argv, _ in JOBS:
        path = GOLDEN / (name + ".json")
        lines.append(("golden", "-", name) + _digest(path, argv))
        lines.append(("golden-text", "-", name) + _digest(path, argv + ["--format", "text"]))
        lines.append(("golden-seed7", "-", name) + _digest(path, argv + ["--seed", "7"]))
        lines.append(("golden-check", "-", name) + _digest(path, [], "check"))
        lines.append(("golden-gecc", "-", name) + _digest(path, [], "gecc"))
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in (1, 2, 3):
                for job in (j for p in corpus(workload, seed, 2) for j in p):
                    path = Path(tmp) / "job.json"
                    path.write_text(json.dumps(job.doc), encoding="utf-8")
                    lines.append((workload, seed, job.name) + _digest(path, job.argv))
    Path(out_path).write_text("".join("%s %s %s %s %s\n" % line for line in lines))


if __name__ == "__main__":
    run(sys.argv[1] if len(sys.argv) == 2 else sys.exit("usage: report_digest.py OUT"))

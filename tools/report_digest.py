"""Digest of the report bytes of a fixed job set.

Usage: python tools/report_digest.py OUT

Runs the golden jobs of `tests/test_golden.py` and the first two passes
of each bench workload at seeds 1-3 through `levo.cli.main` in process;
writes one line per run to OUT: workload, seed, job name, exit code and
the sha256 of its stdout.  Each golden job also runs as `compute
--format text`, `compute --seed 7` (a seed override parses the job a
second time), `check` and `gecc`, with workloads golden-text,
golden-seed7, golden-check and golden-gecc.  Workload bad-input runs
every malformed-field and repeated-key case of `tests/test_cli.py`
(`BAD_FIELDS`, `REPEATED_KEYS`) and a `--retry` out of range, and hashes
stderr instead of stdout.  `diff` of two checkouts' OUT files is the
byte-identity check of their reports and error messages.
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
from test_cli import BAD_FIELDS, REPEATED_KEYS, cusp_config  # noqa: E402
from test_golden import GOLDEN, JOBS  # noqa: E402


def _digest(path, argv, command="compute", stderr=False):
    """Exit code and sha256 of the stdout, or with `stderr` the stderr, of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, "--input", str(path)] + list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    text = (err if stderr else out).getvalue()
    return code, hashlib.sha256(text.encode("utf-8")).hexdigest()


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
        path = Path(tmp) / "job.json"
        for workload in WORKLOADS:
            for seed in (1, 2, 3):
                for job in (j for p in corpus(workload, seed, 2) for j in p):
                    path.write_text(json.dumps(job.doc), encoding="utf-8")
                    lines.append((workload, seed, job.name) + _digest(path, job.argv))
        bad = [(name, json.dumps(change(cusp_config()))) for name, change, _ in BAD_FIELDS]
        bad += [("repeated-key-" + name, json.dumps(cusp_config()).replace(old, new))
                for name, old, new, _ in REPEATED_KEYS]
        for name, text in bad:
            path.write_text(text, encoding="utf-8")
            lines.append(("bad-input", "-", name) + _digest(path, [], stderr=True))
    retry = _digest(GOLDEN / "retry.json", ["--retry", "101"], stderr=True)
    lines.append(("bad-input", "-", "retry-above-the-bound") + retry)
    Path(out_path).write_text("".join("%s %s %s %s %s\n" % line for line in lines))


if __name__ == "__main__":
    run(sys.argv[1] if len(sys.argv) == 2 else sys.exit("usage: report_digest.py OUT"))

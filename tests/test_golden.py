"""Golden reports: each checked-in job must reproduce its report bytes
and exit code through the command line entry point.

A change that alters a report on purpose regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and says why in its
changelog entry.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from levo.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (job name, extra `levo compute` arguments, expected exit code)
JOBS = [
    ("two_plane", [], 0),
    ("isolated_milnor", [], 0),
    ("retry", ["--retry", "3"], 0),
    ("polar_af_partition", [], 0),
    ("polar_gecc", [], 0),
]


def _run(name, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compute", "--input", str(GOLDEN / (name + ".json"))] + argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name, argv, exit_code", JOBS, ids=[j[0] for j in JOBS])
def test_golden_report(name, argv, exit_code):
    code, stdout = _run(name, argv)
    assert code == exit_code
    assert stdout == (GOLDEN / (name + ".stdout")).read_bytes()


if __name__ == "__main__":
    for name, argv, exit_code in JOBS:
        code, stdout = _run(name, argv)
        if code != exit_code:
            sys.exit("%s: exit %d, expected %d" % (name, code, exit_code))
        (GOLDEN / (name + ".stdout")).write_bytes(stdout)

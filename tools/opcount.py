"""Deterministic bytecode count: python tools/opcount.py WORKLOAD

Runs the first two passes at seed 1 of WORKLOAD (`bench/corpus.py`) through
`levo.cli.main` in process, once to warm up and once under `sys.settrace`
with opcode events on, and prints the bytecodes executed, each source
file's share and the 15 costliest functions (`file:function@firstline`,
by their own bytecodes).  The count repeats exactly; it is a count, not a
speed."""

import contextlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import corpus  # noqa: E402
from levo.cli import main  # noqa: E402


def count(workload):
    counts = Counter()

    def tracer(frame, event, arg):
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        if event == "opcode":
            counts[frame.f_code] += 1
        return tracer

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "job.json")
        for trace in (None, tracer):  # warm-up, then the counted run
            for job in (j for p in corpus(workload, 1, 2) for j in p):
                path.write_text(json.dumps(job.doc), encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    sys.settrace(trace)
                    main(["compute", "--input", str(path)] + job.argv)
                    sys.settrace(None)
    files = Counter()
    for code, n in counts.items():
        files[code.co_filename] += n
    total = sum(files.values())
    print("%s: %d bytecodes" % (workload, total))
    for name, n in files.most_common():
        print("%6.2f%%  %10d  %s" % (100 * n / total, n, _shown(name)))
    print("costliest functions:")
    for code, n in counts.most_common(15):
        where = "%s:%s@%d" % (_shown(code.co_filename), code.co_name, code.co_firstlineno)
        print("%6.2f%%  %10d  %s" % (100 * n / total, n, where))


def _shown(name):
    path = Path(name)
    return path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name


if __name__ == "__main__":
    try:
        count(sys.argv[1] if len(sys.argv) == 2 else sys.exit("usage: opcount.py WORKLOAD"))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)

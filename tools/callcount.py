"""Deterministic call count: python tools/callcount.py WORKLOAD FUNC

Runs the first two passes at seed 1 of WORKLOAD (`bench/corpus.py`) through
`levo.cli.main` in process, once to warm up and once under `sys.setprofile`,
and prints how often each function defined in `src/levo` was entered while
FUNC was on the stack, most entered first.  FUNC is a `module.qualname`
name inside `levo`, such as `cli._report`; `cli.main` counts everything.
Resuming a generator is not an entry.  `ideals._buchberger` and
`ideals._split` run only when the algebra cache misses, so their counts are
cache misses; the last line repeats them as such.  `ideals._eliminate_to`
counts are not `eliminate` misses, since `saturate`, `intersect` and
`geom.constant_value_on` call it directly; read those misses off
`levo compute --timing`.  The counts repeat exactly; they are counts, not
speeds.
"""

import contextlib
import dis
import importlib
import inspect
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "levo"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from corpus import WORKLOADS, corpus  # noqa: E402
from levo.cli import main  # noqa: E402

MISSES = ("ideals._buchberger", "ideals._split")


def _target(func):
    """The code object that FUNC names, or None."""
    module, _, qualname = func.partition(".")
    try:
        obj = importlib.import_module("levo." + module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return inspect.unwrap(obj).__code__
    except (ImportError, AttributeError, ValueError):
        return None


def count(workload, func):
    target = _target(func)
    if workload not in WORKLOADS or target is None:
        sys.exit("usage: callcount.py WORKLOAD FUNC, with WORKLOAD one of %s and "
                 "FUNC a levo function such as cli._report" % ", ".join(WORKLOADS))
    names, starts = {}, {}
    counts = Counter()
    depth = 0

    def name(code):
        if code not in names:
            path = Path(code.co_filename)
            names[code] = ("%s.%s" % (path.stem, code.co_qualname)
                           if path.parent == PACKAGE else None)
        return names[code]

    def entered(frame):
        code = frame.f_code
        if not code.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE):
            return True
        if code not in starts:
            starts[code] = next(i.offset for i in dis.get_instructions(code)
                                if i.opname == "RESUME")
        return frame.f_lasti == starts[code]

    def profiler(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frame.f_code is target:
                depth += 1
            if depth and name(frame.f_code) and entered(frame):
                counts[names[frame.f_code]] += 1
        elif event == "return" and frame.f_code is target:
            depth -= 1

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "job.json")
        for hook in (None, profiler):  # warm-up, then the counted run
            for job in (j for p in corpus(workload, 1, 2) for j in p):
                path.write_text(json.dumps(job.doc), encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    sys.setprofile(hook)
                    main(["compute", "--input", str(path)] + job.argv)
                    sys.setprofile(None)
    print("%s: levo functions entered under %s" % (workload, func))
    for fname, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print("%10d  %s" % (n, fname))
    print("cache misses: %s" % ", ".join("%s %d" % (m, counts[m]) for m in MISSES))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: callcount.py WORKLOAD FUNC")
    try:
        count(*sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stop without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)

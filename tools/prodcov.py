"""Production-path function coverage: python tools/prodcov.py

Runs, through `levo.cli.main` in process, every golden job of
`tests/test_golden.py` under `compute --timing`, `compute --format text`,
`check` and `gecc`, a `--retry` out of range, every malformed-field and
repeated-key case of `tests/test_cli.py` (`BAD_FIELDS`, `REPEATED_KEYS`)
and the first two passes at seed 1 of each bench workload
(`bench/corpus.py`).  `sys.setprofile`, set before levo is imported,
records each code object entered.  Then it prints every function defined
in `src/levo` that no run entered and that ALLOWED does not name, and
exits 1 if there is one.  Module and class bodies run at import and are
skipped, as are lambdas and comprehensions.  An ALLOWED entry that
matches no unentered function is stale: it is printed and exits 1 too,
so the list names only what the production path really leaves alone.
"""

import contextlib
import fnmatch
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "levo"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from corpus import WORKLOADS, corpus  # noqa: E402

ORACLE = "the iterated-slice oracle, kept apart from the pipeline (ROADMAP item 14)"
PROPERTY = "a cycle or group operation that tests/test_acceptance.py criterion 6 checks"

# `module:qualname` patterns (fnmatch) of functions the production path
# may leave unentered, each with the reason it stays in `src/levo`
ALLOWED = {
    "*.__repr__": "value dunder: debugging and test output",
    "*.__eq__": "value dunder: the tests compare these values; the pipeline does not",
    "*.__hash__": "value dunder: the tests hash these values; the pipeline does not",
    "*.__bool__": "value dunder: the pipeline asks is_zero()",
    "*.__rsub__": "value dunder: number - polynomial",
    "poly:Polynomial.constant_value": "behind Polynomial == number",
    "cycles:EnrichedCycle._key": "behind EnrichedCycle.__eq__ and __hash__",
    "vogel:polar_modules_iterative": ORACLE + "; the bench checks polar jobs with it",
    "vogel:_strata_from_gecc": ORACLE,
    "gecc:nearby_gecc": ORACLE,
    "gecc:isolated_vanishing_stalk": ORACLE,
    "geom:multiplicity_along": "reference code that bench/spans.py names (item 14)",
    "geom:local_multiplicity_at_point": "reference code that bench/spans.py names (item 14)",
    "geom:relative_conormal_ideal": "checking the af_partition needs it (item 17)",
    "cycles:EnrichedCycle.add": PROPERTY,
    "cycles:EnrichedCycle.scale": PROPERTY,
    "cycles:EnrichedCycle.ord": PROPERTY,
    "cycles:EnrichedCycle.le": PROPERTY,
    "cycles:EnrichedCycle.coefficient": "behind EnrichedCycle.le",
    "cycles:GradedEnrichedCycle.add": PROPERTY,
    "cycles:GradedEnrichedCycle.scale": PROPERTY,
    "cycles:GradedEnrichedCycle.shift": PROPERTY,
    "cycles:GradedEnrichedCycle.ord": PROPERTY,
    "cycles:GradedEnrichedCycle.concentrated_in": PROPERTY,
    "cycles:GradedEnrichedCycle.is_zero": "the query beside EnrichedCycle.is_zero; tests use it",
    "ideals:Ideal.is_zero": "the query beside Ideal.is_unit; tests use it",
    "ideals:Ideal.normal_form": ("the decoded remainder, which tests and bench/spans.py name;"
                                 " membership reads the packed remainder"),
    "abgroups:AbGroup.elementary_divisors": PROPERTY,
    "abgroups:AbGroup.summand_of": "behind EnrichedCycle.le",
    "abgroups:_factorint": "behind AbGroup.elementary_divisors",
    "abgroups:Z": "library shorthand of the abgroups doctest; a job builds AbGroup",
    "abgroups:Zmod": "library shorthand of the abgroups doctest; a job builds AbGroup",
    "zfactor:_prem": "rare fallback of the integer factorizer",
    "ideals:_Packing.__init__.<locals>.unpack": "rare fallback: packed fields over 64 bits",
    "poly:block_key.<locals>.key": "an elimination order's identity; levo packs by its lead positions",
}


def _functions(path):
    """(first line, name, qualname) of every function defined in a source
    file: the optimized code objects, which excludes module and class
    bodies, named by `def`, which excludes lambdas and comprehensions."""
    found = []
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            found.append((code.co_firstlineno, code.co_name, code.co_qualname))
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    return found


def _run(main, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:  # a usage error
            pass


def entered():
    """(file, first line, name) of every code object entered by the
    runs, levo's import included."""
    seen = set()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profiler)
    try:
        from levo.cli import main
        from test_cli import BAD_FIELDS, REPEATED_KEYS, cusp_config
        from test_golden import GOLDEN, JOBS

        for name, argv, _ in JOBS:
            path = str(GOLDEN / (name + ".json"))
            _run(main, ["compute", "--input", path, "--timing"] + argv)
            _run(main, ["compute", "--input", path, "--format", "text"] + argv)
            _run(main, ["check", "--input", path])
            _run(main, ["gecc", "--input", path])
        _run(main, ["compute", "--input", str(GOLDEN / "retry.json"), "--retry", "101"])
        bad = [json.dumps(change(cusp_config())) for _, change, _ in BAD_FIELDS]
        bad += [json.dumps(cusp_config()).replace(old, new) for _, old, new, _ in REPEATED_KEYS]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "job.json")
            for text in bad:
                path.write_text(text, encoding="utf-8")
                _run(main, ["compute", "--input", str(path)])
            for workload in WORKLOADS:
                for job in (j for p in corpus(workload, 1, 2) for j in p):
                    path.write_text(json.dumps(job.doc), encoding="utf-8")
                    _run(main, ["compute", "--input", str(path)] + job.argv)
    finally:
        sys.setprofile(None)
    return seen


def report():
    seen = entered()
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name, qualname in _functions(path):
            if (str(path), line, name) not in seen:
                missed.append("%s:%s" % (path.stem, qualname))
    used = {pattern for pattern in ALLOWED for m in missed if fnmatch.fnmatchcase(m, pattern)}
    unlisted = [m for m in missed if not any(fnmatch.fnmatchcase(m, p) for p in ALLOWED)]
    stale = [p for p in ALLOWED if p not in used]
    print("%d functions never entered, %d of them allowed"
          % (len(missed), len(missed) - len(unlisted)))
    for m in unlisted:
        print("never entered: %s" % m)
    for p in stale:
        print("stale allow-list entry: %s" % p)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(report())

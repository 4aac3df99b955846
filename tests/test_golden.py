"""Golden reports: each checked-in job must reproduce its report bytes
and exit code through the command line entry point.

A change that alters a report on purpose regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and the pinned digest of
`tools/report_digest.py` with `python tools/report_digest.py
tests/golden/digest.txt`, and says why in its changelog entry.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from conftest import decomposition_covers, slice_dimension, sliced_multiplicity
from levo import geom, ideals
from levo.cli import main
from levo.ideals import Component, Ideal, map_poly
from levo.poly import PolyRing

GOLDEN = Path(__file__).parent / "golden"

# (job name, extra `levo compute` arguments, expected exit code)
JOBS = [
    ("two_plane", [], 0),
    ("two_plane_split", [], 0),
    ("isolated_milnor", [], 0),
    ("retry", ["--retry", "3"], 0),
    ("polar_af_partition", [], 0),
    ("polar_gecc", [], 0),
    ("polar_curve", [], 0),
    ("uncertified_point", [], 0),
    ("polar_open_dropped", [], 0),
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


def test_linear_input_skips_the_general_kernel_and_the_bordered_minors(monkeypatch):
    # on polar_af_partition, whose strata are linear, every generator set
    # that reaches the packed Buchberger kernel and every closure whose
    # conormal is built from bordered minors has degree above 1: linear
    # ideals are row-reduced and their conormals read off the echelon basis
    degrees = []
    packed, bordered = ideals._packed_buchberger, geom._bordered_conormal

    def spy_packed(generators, P):
        degrees.append(("kernel", max(sum(P.decode(m)) for g in generators for m in g)))
        return packed(generators, P)

    def spy_bordered(I, extra_rows, full_ring):
        degrees.append(("conormal", max((g.total_degree() for g in I.gens), default=0)))
        return bordered(I, extra_rows, full_ring)

    monkeypatch.setattr(ideals, "_packed_buchberger", spy_packed)
    monkeypatch.setattr(geom, "_bordered_conormal", spy_bordered)
    code, stdout = _run("polar_af_partition", [])
    assert (code, stdout) == (0, (GOLDEN / "polar_af_partition.stdout").read_bytes())
    assert [d for d in degrees if d[1] <= 1] == []


def test_report_digest_tool_hashes_the_golden_bytes(tmp_path):
    # tools/report_digest.py, the byte-identity check between two
    # checkouts, imports the golden job list and the bench corpus by name;
    # its whole output is pinned in golden/digest.txt (about 3 s)
    path = GOLDEN.parents[1] / "tools" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    expected = hashlib.sha256((GOLDEN / "two_plane.stdout").read_bytes()).hexdigest()
    assert tool._digest(GOLDEN / "two_plane.json", []) == (0, expected)
    tool.run(tmp_path / "digest.txt")
    got = (tmp_path / "digest.txt").read_text().splitlines()
    pinned = (GOLDEN / "digest.txt").read_text().splitlines()
    differ = [(a, b) for a, b in itertools.zip_longest(pinned, got) if a != b]
    assert not differ, "pinned / now:\n" + "\n".join("%s\n%s" % pair for pair in differ)


def test_production_coverage_gate_passes():
    # tools/prodcov.py sets its profiler before levo is imported, so it
    # runs in a fresh interpreter: in process, what ran before the tool
    # (cli's argparse parser, built at import, and the packings that
    # earlier tests cached) would read as never entered
    path = GOLDEN.parents[1] / "tools" / "prodcov.py"
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# the checked-in reports, re-read and audited by independent routes


def _report(name):
    return json.loads((GOLDEN / (name + ".stdout")).read_text(encoding="utf-8"))


def _working(report):
    """The report's ring, point and function in its working coordinates:
    base variable i of the function becomes row i of the inverse
    coordinate matrix applied to the base variables."""
    variables = report["config"]["variables"]
    ring = PolyRing(variables, tuple("w_%d" % i for i in range(len(variables))))
    base = ring.base_ring()
    inverse = sympy.Matrix(report["coordinate_matrix"]).inv()
    sub = {
        v: base.linear_form([Fraction(str(c)) for c in inverse.row(i)])
        for i, v in enumerate(base.vars)
    }
    f = base.parse(report["config"].get("function", "0")).subs(sub)
    return ring, tuple(Fraction(c) for c in report["point"]), f


def _by_int_key(mapping):
    return sorted(mapping.items(), key=lambda item: int(item[0]))


@pytest.mark.parametrize("name", [j[0] for j in JOBS])
def test_golden_certificate_checks_are_isolated_slices(name):
    # the certificate is read off the point modules; re-derive each check
    # from the reported cycles and re-slice its component from scratch
    report = _report(name)
    ring, point, _ = _working(report)
    base = ring.base_ring()
    cycles = report["polar_cycles" if report["mode"] == "polar" else "levo_cycles"]
    through = [
        {"degree": int(k), "j": int(j), "component": comp["ideal"], "isolated": True}
        for k, by_j in _by_int_key(cycles)
        for j, comps in _by_int_key(by_j)
        for comp in comps
        if Ideal(base, comp["ideal"]).vanishes_at(point)
    ]
    certificate = report["certificate"]
    assert certificate["checks"] == through
    dims = []
    for check in through:
        W = Ideal(base, check["component"])
        assert slice_dimension(W, point, check["j"]) == 0
        dims.append(W.dimension())
    assert certificate["d"] == max(dims, default=None)


@pytest.mark.parametrize("name", [j[0] for j in JOBS])
def test_golden_properness_log_audit(name):
    # every record's multiplicity by the two-slice reference, every
    # stage's cut covered by its components, and the graph split checked
    report = _report(name)
    ring, _, f = _working(report)
    f = map_poly(f, ring)
    hyp = [ring.var(w) - f.diff(z) for z, w in zip(ring.base_vars, ring.cotangent_vars)]
    graph = Ideal(ring, hyp)
    rng = random.Random(0)
    for decomposition in report["decomposition"].values():
        cuts = {}
        for record in decomposition["properness_log"]:
            j = record["stage"]
            P, W = Ideal(ring, record["parent"]), Ideal(ring, record["component"])
            assert sliced_multiplicity(P, hyp[j], W, rng) == record["multiplicity"]
            cuts.setdefault((j, P), []).append(Component(W, record["certified"]))
        for (j, P), comps in cuts.items():
            assert decomposition_covers(P.plus([hyp[j]]), comps)
        for comps in decomposition["distinguished"].values():
            assert all(Ideal(ring, c["ideal"]).contains_ideal(graph) for c in comps)
        for comps in decomposition["residual"].values():
            assert not any(Ideal(ring, c["ideal"]).contains_ideal(graph) for c in comps)


if __name__ == "__main__":
    for name, argv, exit_code in JOBS:
        code, stdout = _run(name, argv)
        if code != exit_code:
            sys.exit("%s: exit %d, expected %d" % (name, code, exit_code))
        (GOLDEN / (name + ".stdout")).write_bytes(stdout)

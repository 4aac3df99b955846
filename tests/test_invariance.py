"""Invariance relations over the golden strata jobs, and a coordinate
invariance gate over singular plane curves.

Each rewrite of a job names the same sheaf, function and point in other
words, so it must keep the exit code, the point modules and the
certificate status of the checked-in report.  The rewrites vary what no
golden test varies: the order of the strata, the generators of a
closure, the function up to a unit and a constant, and the coordinates
up to a translation.  They guard the memo keys, the split order and the
canonical term orders that make reports deterministic.

The gate runs polar mode on a list of singular plane curves under the
identity and several unimodular coordinate changes.  Polar modules are
generic values, so the certified runs of a curve must agree.
"""

import contextlib
import copy
import io
import json

import pytest

from levo.cli import main
from levo.poly import PolyRing
from test_golden import GOLDEN, JOBS

SHIFT = (1, -2, 3, 1)


def _reversed_strata(doc):
    doc["sheaf"]["strata"].reverse()
    return doc


def _scaled_closures(doc):
    # each generator times 3, plus the product of the first and last
    for stratum in doc["sheaf"]["strata"]:
        gens = stratum["closure"]
        if gens:
            stratum["closure"] = ["3*(%s)" % g for g in gens] + ["(%s)*(%s)" % (gens[0], gens[-1])]
    return doc


def _function_times_5(doc):
    doc["function"] = "5*(%s)" % doc["function"]
    return doc


def _function_plus_7(doc):
    doc["function"] = "%s + 7" % doc["function"]
    return doc


def _translated(doc):
    # every input at x - SHIFT and the point at point + SHIFT
    ring = PolyRing(doc["variables"])
    shift = {v: ring.parse("%s - (%d)" % (v, t)) for v, t in zip(ring.vars, SHIFT)}

    def move(text):
        return str(ring.parse(text).subs(shift))

    for stratum in doc["sheaf"]["strata"]:
        stratum["closure"] = [move(g) for g in stratum["closure"]]
    if "function" in doc:
        doc["function"] = move(doc["function"])
    if "af_partition" in doc:
        doc["af_partition"] = [[move(g) for g in part] for part in doc["af_partition"]]
    doc["point"] = [p + t for p, t in zip(doc["point"], SHIFT)]
    return doc


REWRITES = [_reversed_strata, _scaled_closures, _function_times_5, _function_plus_7, _translated]


def _doc(name):
    return json.loads((GOLDEN / (name + ".json")).read_text(encoding="utf-8"))


def _outcome(code, report):
    modules = report.get("levo_modules", report.get("polar_modules"))
    return code, modules, report["certificate"]["status"]


def _cases():
    """(job, rewrite) for every golden strata job and every rewrite that
    changes its document; the function rewrites apply in levo mode."""
    for name, argv, code in JOBS:
        doc = _doc(name)
        if "strata" not in doc["sheaf"]:
            continue
        for rewrite in REWRITES:
            if "function" not in doc and rewrite in (_function_times_5, _function_plus_7):
                continue
            if rewrite(copy.deepcopy(doc)) != doc:
                yield pytest.param(name, argv, code, rewrite, id="%s-%s" % (name, rewrite.__name__[1:]))


@pytest.mark.parametrize("name, argv, exit_code, rewrite", _cases())
def test_rewrite_keeps_the_golden_outcome(name, argv, exit_code, rewrite, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(rewrite(_doc(name))), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compute", "--input", str(path)] + argv)
    golden = json.loads((GOLDEN / (name + ".stdout")).read_text(encoding="utf-8"))
    assert _outcome(code, json.loads(out.getvalue())) == _outcome(exit_code, golden)


# ---------------------------------------------------------------------------
# coordinate invariance over singular plane curves

# polar mode on C^2: the curve with morse degree 1 of rank 1, the origin
# with degree 0 of rank 1, under the identity and five unimodular matrices
MATRICES = (
    [[1, 0], [0, 1]],
    [[1, 1], [0, 1]],
    [[2, 1], [1, 1]],
    [[1, 0], [3, 1]],
    [[3, 2], [1, 1]],
    [[1, -2], [1, -1]],
)

CURVES = [
    "y^2 - x^3",
    "y^3 - x^4",
    "y^2 - x^4",
    pytest.param(
        "y^2 - x^2 - x^3",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 1: under [[1, 1], [0, 1]] the first coordinate "
            "hyperplane is tangent to a branch, yet the run certifies j=1 rank 3"
        )),
    ),
    pytest.param(
        "x*y",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP items 3 and 10: under the identity and [[1, 0], [3, 1]] "
            "the reducible curve exits 5"
        )),
    ),
]


def _curve_job(curve, matrix):
    return {
        "variables": ["x", "y"],
        "sheaf": {"strata": [
            {"closure": [curve], "morse": {"1": {"rank": 1}}},
            {"closure": ["x", "y"], "morse": {"0": {"rank": 1}}},
        ]},
        "point": [0, 0],
        "coordinate_order": matrix,
    }


@pytest.mark.parametrize("curve", CURVES)
def test_certified_polar_modules_do_not_depend_on_the_coordinates(curve, tmp_path):
    # every certified run reports the same modules; any other run is a
    # genericity failure or says why it is uncertified
    path = tmp_path / "job.json"
    certified = []
    for matrix in MATRICES:
        path.write_text(json.dumps(_curve_job(curve, matrix)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["compute", "--input", str(path)])
        if code == 0:
            certified.append(json.loads(out.getvalue())["polar_modules"])
        elif code == 2:
            assert json.loads(out.getvalue())["certificate"]["status"] == "proper-uncertified"
        else:
            assert code == 3, (matrix, code)
    assert certified and all(modules == certified[0] for modules in certified)

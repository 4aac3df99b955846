"""Report checks against the expectations written by corpus.py.

Every check here reads only the JSON report, the exit code and stderr;
none of it imports levo.  Groups are compared by rank and the multiset
of elementary divisors, so invariant-factor normal form is not assumed.
"""

from __future__ import annotations

import json


def _prime_powers(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def group_key(grp):
    """(rank, elementary divisors) of a {rank, torsion} group."""
    return grp["rank"], tuple(sorted(q for t in grp["torsion"] for q in _prime_powers(t)))


def modules_key(modules):
    """{k: {j: group}} as a comparable set, zero groups dropped."""
    return {
        (int(k), int(j)): group_key(g)
        for k, per in modules.items()
        for j, g in per.items()
        if group_key(g) != (0, ())
    }


def _terms(poly_text):
    """The sorted terms of a printed polynomial, signs attached."""
    return sorted(poly_text.replace(" - ", " + -").split(" + "))


def _check_two_plane(report, expect, problems):
    for k, ideals in expect["gecc"].items():
        got = report["gecc"].get(k)
        want = [{"ideal": I, "module": {"rank": 1, "torsion": []}} for I in ideals]
        if got != want:
            problems.append("gecc[%s] is %r, expected %r" % (k, got, want))
    delta = report["decomposition"]["2"]["distinguished"]
    # one component per rational factor of the curve u^a + x^b, each
    # with the coefficient rank tau - 1
    want1 = expect["distinguished"]["1"]
    curves, ranks = [], []
    for comp in delta.get("1", []):
        gens = set(comp["ideal"])
        rest = gens - {"w_0", "w_1", "w_2", "w_3", "y", "z"}
        if len(gens) != 7 or len(rest) != 1:
            curves = None
            break
        curves.append(_terms(rest.pop()))
        ranks.append(group_key(comp["module"]))
    want_curves = sorted(sorted(f) for f in want1["curve_factors"])
    if (curves is None or sorted(curves) != want_curves
            or set(ranks) != {(want1["rank"], ())}):
        problems.append("distinguished[1] is %r" % (delta.get("1"),))
    zero = delta.get("0", [])
    if len(zero) != 1 or zero[0]["module"]["rank"] != expect["distinguished"]["0"]["rank"]:
        problems.append("distinguished[0] is %r" % (zero,))


def check_report(code, stdout, stderr, expect):
    """Problems found in one job's output; an empty list means correct."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if code != expect["exit"]:
        problems.append("exit code %r, expected %r" % (code, expect["exit"]))
        return problems
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["report is not JSON"]
    cert = report.get("certificate", {})
    for field, want in expect["certificate"].items():
        if cert.get(field) != want:
            problems.append("certificate %s is %r, expected %r" % (field, cert.get(field), want))
    got = modules_key(report.get(expect["modules_key"], {}))
    want = modules_key(expect["modules"])
    if got != want:
        problems.append("%s are %r, expected %r" % (expect["modules_key"], got, want))
    if expect["euler"] is not None:
        value = report.get("euler", {}).get("signed_sum")
        if value != expect["euler"]:
            problems.append("euler signed sum %r, expected %r" % (value, expect["euler"]))
    if bool(report.get("retry", {}).get("seeds")) != expect["retry"]:
        problems.append("retry record %r, expected retry=%r" % (report.get("retry"), expect["retry"]))
    if "distinguished" in expect:
        _check_two_plane(report, expect, problems)
    return problems

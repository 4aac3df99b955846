"""Genericity certificates, transversality checks, chain-complex
assembly, and Euler-characteristic reconciliation.

The certificate logic: a completed decomposition is certified when the
local support dimension d at the point is at most 2 and every coordinate
slice of every base cycle is isolated at the point; for d >= 3 a fully
proper run is reported as proper-uncertified (the small-dimension
certificate theorem does not cover it); any failed slice or improper
stage yields a failed certificate carrying the stage.
"""

from __future__ import annotations

from fractions import Fraction

from .abgroups import ZERO_GROUP
from .errors import InputError
from .gecc import base_images
from .geom import blowup_exceptional, conormal_ideal, dim_at_point, graph_ideal
from .ideals import eliminate, radical_member


class GenericityCertificate:
    __slots__ = ("status", "d", "failing_stage", "checks")

    def __init__(self, status, d, failing_stage, checks):
        self.status = status
        self.d = d
        self.failing_stage = failing_stage
        self.checks = checks

    def to_json(self):
        return {
            "status": self.status,
            "d": self.d,
            "failing_stage": self.failing_stage,
            "checks": self.checks,
        }


def _stage_json(stage):
    if stage is None:
        return None
    kind, j, component = stage
    return {
        "kind": kind,
        "stage": j,
        "component": component.generator_strings()
        if hasattr(component, "generator_strings")
        else None,
    }


def failed_certificate(stage, d=None):
    return GenericityCertificate("failed", d, _stage_json(stage), [])


def isolating_certificate(packages, point, nvars):
    """Certificate from a completed run.

    d is the largest dimension at the point among the base images of the
    distinguished cycles; each degree-j base cycle sliced by the first j
    coordinates must be isolated at the point.
    """
    point = tuple(Fraction(c) for c in point)
    d = None
    checks = []
    failing = None
    for k, pkg in sorted(packages.items()):
        for j, lam in sorted(pkg.cycles.items()):
            for W in lam.support():
                if W.vanishes_at(point):
                    wd = W.dimension()
                    d = wd if d is None else max(d, wd)
    for k, pkg in sorted(packages.items()):
        for j, lam in sorted(pkg.cycles.items()):
            for W in lam.support():
                if not W.vanishes_at(point):
                    continue
                ok = _isolated_after_slicing(W, point, j)
                checks.append(
                    {
                        "degree": k,
                        "j": j,
                        "component": W.generator_strings(),
                        "isolated": ok,
                    }
                )
                if not ok and failing is None:
                    failing = ("certificate", j, W)
    if failing is not None:
        return GenericityCertificate("failed", d, _stage_json(failing), checks)
    if d is None or d <= 2:
        return GenericityCertificate("certified", d, None, checks)
    return GenericityCertificate("proper-uncertified", d, None, checks)


def _isolated_after_slicing(W, point, j):
    base = W.ring
    forms = [base.var(base.vars[i]) - point[i] for i in range(j)]
    d = dim_at_point(W.plus(forms), point)
    return d is None or d == 0


def essential_transversality(conormal, point, full_ring):
    """Per-index transversality of the coordinate flag to one stratum.

    For each i the conormal is cut by the vanishing of the trailing
    cotangent coordinates and the leading coordinate hyperplanes; after
    discarding the zero-section part, the base image must be isolated at
    the point.
    """
    base = full_ring.base_ring()
    point = tuple(Fraction(c) for c in point)
    n = len(base.vars) - 1
    cot = full_ring.cotangent_vars
    per_i = []
    for i in range(n + 1):
        cut = [full_ring.var(w) for w in cot[i + 1 :]]
        slices = [
            full_ring.var(full_ring.base_vars[t]) - point[t] for t in range(i)
        ]
        images = base_images([conormal], cut + slices, skip_zero_section=True)
        per_i.append(
            not any(img.vanishes_at(point) and img.dimension() > 0 for img in images)
        )
    return per_i, all(per_i)


def upgrade_by_transversality(certificate, conormals, point, full_ring):
    """Alternative certification: if the coordinate flag is essentially
    transverse to every supplied stratum at the point, a fully proper run
    is certified regardless of the support dimension.

    The caller asserts that the strata form a Whitney-a partition (for
    the relative case, the hypersurface strata of a Thom-condition
    partition); only the transversality itself is checked here.
    """
    if certificate.status != "proper-uncertified":
        return certificate, None
    detail = {}
    for label, con in conormals:
        _, verdict = essential_transversality(con, point, full_ring)
        detail[label] = verdict
        if not verdict:
            return certificate, detail
    upgraded = GenericityCertificate(
        "certified", certificate.d, None, certificate.checks
    )
    return upgraded, detail


def af_exceptional_containment(Y_ideal, N_ideal, f, x, seed=0):
    """Thom-condition diagnostic at a point of a smooth subspace N.

    Checks (i) the limiting conormals of Y at x sit inside the conormal
    fibre of N, (ii) df(x) lies in that fibre, and (iii) the projected
    exceptional divisor of the gradient-graph blow-up of Y's conormal is
    contained fibrewise in the projectivized conormal of N.  Experimental.
    """
    full = _full_ring_of(f)
    base = f.ring
    x = tuple(Fraction(c) for c in x)
    if not N_ideal.vanishes_at(x):
        raise InputError("the point does not lie on N")
    n_forms = _conormal_fibre_forms(N_ideal, full)
    witness = {"conditions": {}}

    # ii) the differential of f at x lies in the conormal fibre of N
    grad = [f.diff(z).eval_point(x) for z in base.vars]
    cond_ii = all(_eval_w_form(form, full, grad) == 0 for form in n_forms)
    witness["conditions"]["differential_in_fibre"] = cond_ii

    # i) limiting conormals of Y at x inside the fibre of N
    conY = conormal_ideal(Y_ideal, full)
    at_x = conY.plus(
        [full.var(z) - c for z, c in zip(full.base_vars, x)]
    )
    cond_i = all(radical_member(form, at_x) for form in n_forms)
    witness["conditions"]["whitney_a"] = cond_i

    cond_iii = True
    detail = []
    if cond_i and cond_ii:
        graph = graph_ideal(f, full)
        blowup, comps = blowup_exceptional(conY, list(graph.gens), seed=seed)
        for comp in comps:
            ext_ring = comp.ideal.ring
            fiber = comp.ideal.plus(
                [ext_ring.var(z) - c for z, c in zip(full.base_vars, x)]
            )
            if fiber.is_unit():
                continue
            projected = eliminate(fiber, full.cotangent_vars)
            enames = [v for v in ext_ring.vars if v not in set(full.vars)]
            ok = all(
                radical_member(_w_form_in_e(form, full, projected.ring, enames), projected)
                for form in n_forms
            )
            detail.append(
                {"component": comp.ideal.generator_strings(), "contained": ok}
            )
            cond_iii = cond_iii and ok
    witness["conditions"]["exceptional_containment"] = cond_iii
    witness["exceptional_components"] = detail
    return (cond_i and cond_ii and cond_iii), witness


def _full_ring_of(f):
    from .poly import PolyRing

    base = f.ring
    cot = tuple("w_%d" % i for i in range(len(base.vars)))
    if any(w in set(base.vars) for w in cot):
        raise InputError("base variables clash with cotangent names")
    return PolyRing(base.vars, cot)


def _conormal_fibre_forms(N_ideal, full):
    """Linear w-forms cutting the conormal fibre of a smooth N."""
    conN = conormal_ideal(N_ideal, full)
    forms = []
    for g in conN.groebner():
        if any(g.terms.get(_unit_exp(full, w)) for w in full.cotangent_vars):
            if g.total_degree() == 1 and all(
                not _involves(g, z) for z in full.base_vars
            ):
                forms.append(g)
    return forms


def _unit_exp(ring, name):
    e = [0] * ring.nvars
    e[ring.index(name)] = 1
    return tuple(e)


def _involves(g, name):
    i = g.ring.index(name)
    return any(m[i] for m in g.terms)


def _eval_w_form(form, full, grad):
    value = Fraction(0)
    for w, c in zip(full.cotangent_vars, grad):
        coeff = form.terms.get(_unit_exp(full, w), Fraction(0))
        value += coeff * c
    return value


def _w_form_in_e(form, full, target_ring, enames):
    out = target_ring.zero()
    for i, w in enumerate(full.cotangent_vars):
        coeff = form.terms.get(_unit_exp(full, w), Fraction(0))
        if coeff:
            out = out + target_ring.var(enames[i]) * coeff
    return out


# ---------------------------------------------------------------------------
# chain complexes and Euler values


class ZawatskyComplex:
    """The degree-k chain complex of point modules, highest index first.

    Boundary maps are not computable from cycle data; only the shape, the
    rank bounds on cohomology, the freeness of the top kernel, and the
    alternating sum are emitted.
    """

    __slots__ = ("degree", "top", "modules", "constraints", "alternating_sum")

    def __init__(self, degree, top, modules, constraints, alternating_sum):
        self.degree = degree
        self.top = top
        self.modules = modules
        self.constraints = constraints
        self.alternating_sum = alternating_sum

    def to_json(self):
        return {
            "degree": self.degree,
            "top_index": self.top,
            "modules": [m.to_json() for m in self.modules],
            "constraints": self.constraints,
            "alternating_sum": self.alternating_sum,
        }


def zawatsky_complex(modules_by_j, d, degree=0):
    """Assemble 0 -> m^d -> ... -> m^0 -> 0 with its derived constraints."""
    top = max(d if d is not None else 0, 0)
    chain = [modules_by_j.get(j, ZERO_GROUP) for j in range(top, -1, -1)]
    constraints = []
    for offset, mod in enumerate(chain):
        j = top - offset
        constraints.append(
            {
                "cohomology_degree": -j,
                "rank_at_most": mod.rank,
                "free": bool(j == top and mod.is_free()),
            }
        )
    alternating = sum(
        (-1) ** j * modules_by_j.get(j, ZERO_GROUP).rank for j in range(top + 1)
    )
    return ZawatskyComplex(degree, top, chain, constraints, alternating)


def euler_check(modules, expected=None):
    """Signed rank sum over all (degree, index) point modules.

    `modules` maps (k, j) -> AbGroup.  Returns (value, verdict); the
    verdict compares against `expected` when supplied.
    """
    value = 0
    for (k, j), group in modules.items():
        value += (-1) ** (k + j) * group.rank
    if expected is None:
        return value, "unchecked"
    return value, ("match" if value == expected else "mismatch")

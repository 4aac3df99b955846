"""Shared builders for the test suite."""

from fractions import Fraction
from functools import reduce

import pytest

from levo import ideals
from levo.abgroups import AbGroup, Z
from levo.cli import _cotangent_names
from levo.errors import InputError
from levo.gecc import SheafSpec, StratumSpec
from levo.geom import conormal_ideal, graph_ideal, multiplicity_along
from levo.ideals import (
    Ideal,
    _fresh_names,
    eliminate,
    intersect,
    map_poly,
    quotient_dimension,
    radical_member,
    saturate,
    saturate_ideal,
    split_components,
)
from levo.poly import PolyRing


@pytest.fixture
def cache_calls(monkeypatch):
    """(installed algebra cache or None, its entry count) at every call
    into the cached kernel, in call order."""
    seen = []
    memo = ideals._memo

    def spy(kind, key, compute, copy):
        cache = ideals._CACHE.get()
        seen.append((cache, None if cache is None else len(cache.entries)))
        return memo(kind, key, compute, copy)

    monkeypatch.setattr(ideals, "_memo", spy)
    return seen


@pytest.fixture
def plane_ring():
    """C^2 with cotangent block."""
    return PolyRing(("x", "y"), ("w_0", "w_1"))


@pytest.fixture
def space_ring():
    """The four-variable ring of the worked example."""
    return PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))


def constant_sheaf_spec(ring, degree=None):
    """Constant coefficients on the ambient affine space: one open
    stratum with a rank-one module in the top degree."""
    base = ring.base_ring()
    k = degree if degree is not None else len(base.vars)
    return SheafSpec(ring, strata=[StratumSpec(Ideal(base, []), {k: Z(1)})])


def two_plane_spec(ring):
    """The union of two transverse planes in C^4 with constant
    coefficients: point stratum in degree 1, both planes in degree 2."""
    base = ring.base_ring()
    return SheafSpec(
        ring,
        strata=[
            StratumSpec(Ideal(base, ["u", "x", "y", "z"]), {1: Z(1)}, label="origin"),
            StratumSpec(Ideal(base, ["u", "x"]), {2: Z(1)}, label="plane-yz"),
            StratumSpec(Ideal(base, ["y", "z"]), {2: Z(1)}, label="plane-ux"),
        ],
    )


def two_plane_function(base, a, b, gm, dl, tau):
    return base.parse("(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl))


def milnor_number(f):
    """Independent oracle: vector-space dimension of the Jacobian quotient
    algebra, straight from the Groebner core."""
    base = f.ring
    jacobian = Ideal(base, [f.diff(v) for v in base.vars])
    return quotient_dimension(jacobian)


def sliced_multiplicity(P, g, W, rng, rounds=12):
    """Independent reference for `geom.multiplicity_along`: cut V(P + (g))
    down by dim W random affine slices, saturate away the other
    components, and divide the length by the number of points the slices
    leave on W.  Two independent slicings must agree; a round in which
    either fails is drawn again.  None when no round agrees."""
    others = [c.ideal for c in split_components(P.plus([g])) if c.ideal != W]
    witnesses = [next(h for h in C.groebner() if not W.contains(h)) for C in others]

    def length(forms):
        den = quotient_dimension(W.plus(forms))
        if not den:
            return None
        Q = P.plus((g,) + forms)
        for h in witnesses:
            Q = saturate(Q, h)
        num = quotient_dimension(Q)
        if not num or num % den:
            return None
        return num // den

    def affine_form():
        while True:
            coeffs = [rng.randint(-50, 50) for _ in P.ring.vars]
            if any(coeffs):
                return P.ring.linear_form(coeffs, rng.randint(-50, 50))

    for _ in range(rounds):
        m1 = length(tuple(affine_form() for _ in range(W.dimension())))
        m2 = length(tuple(affine_form() for _ in range(W.dimension())))
        if m1 is not None and m1 == m2:
            return m1
    return None


def decomposition_covers(I, components):
    """Radical-level check that the components cover V(I) exactly: each
    contains I, so its locus lies in V(I), and every element of their
    intersection lies in rad(I), so the union is no smaller than V(I)."""
    if not all(c.ideal.contains_ideal(I) for c in components):
        return False
    meet = reduce(intersect, [c.ideal for c in components])
    return all(radical_member(g, I) for g in meet.gens)


def slice_dimension(W, point, j):
    """Largest dimension among the components through the point of V(W)
    cut by the first j coordinate hyperplanes through it; None when no
    component passes through the point."""
    ring = W.ring
    cut = W.plus([ring.var(v) - c for v, c in zip(ring.vars[:j], point)])
    if cut.is_unit():
        return None
    dims = [c.ideal.dimension() for c in split_components(cut) if c.ideal.vanishes_at(point)]
    return max(dims, default=None)


def blowup_exceptional(P, g_tuple):
    """Independent route to intersection multiplicities: blow up V(P)
    along the tuple g through its Rees algebra and decompose the
    exceptional divisor.

    Returns the blow-up ideal, in the ring extended by projective
    coordinates e_i, and one (ideal, multiplicity, chart, certified)
    tuple per exceptional component, its multiplicity taken in the chart
    e_chart = 1 of the first coordinate not vanishing on it.
    """
    ring = P.ring
    gs = [ring.parse(g) if isinstance(g, str) else g for g in g_tuple]
    if all(P.contains(g) for g in gs):
        raise InputError("blow-up undefined on component: the tuple vanishes on it")
    enames = _fresh_names(set(ring.vars), "e_", len(gs))
    (tname,) = _fresh_names(set(ring.vars) | set(enames), "_t", 1)
    rees = PolyRing(ring.vars + tuple(enames) + (tname,))
    t = rees.var(tname)
    gens = [map_poly(h, rees) for h in P.gens]
    gens += [rees.var(e) - t * map_poly(g, rees) for e, g in zip(enames, gs)]
    blowup = eliminate(Ideal(rees, gens), [tname])
    ext = blowup.ring
    g_ext = [map_poly(g, ext) for g in gs]
    blowup = saturate_ideal(blowup, Ideal(ext, g_ext))

    total = blowup.plus(g_ext)
    if total.is_unit():
        return blowup, []
    out = []
    for comp in split_components(total):
        W = comp.ideal
        charts = [j for j, e in enumerate(enames) if not W.contains(ext.var(e))]
        if not charts:
            continue  # the cone point only; empty projectively
        chart = charts[0]
        chart_ring = PolyRing(tuple(v for v in ext.vars if v != enames[chart]))

        def to_chart(p):
            return map_poly(p.subs({enames[chart]: Fraction(1)}), chart_ring)

        def chart_ideal(I):
            return Ideal(chart_ring, [to_chart(h) for h in I.gens])

        m = multiplicity_along(chart_ideal(blowup), to_chart(g_ext[chart]), chart_ideal(W))
        out.append((W, m, chart, comp.certified))
    return blowup, out


def af_exceptional_containment(Y, N, f, x):
    """Thom-condition diagnostic at a point x of a smooth subspace V(N).

    Checks (i) the limiting conormals of V(Y) at x lie in the conormal
    fibre of N, (ii) df(x) lies in that fibre, and (iii) the projected
    exceptional divisor of the blow-up of Y's conormal along the gradient
    graph lies fibrewise in the projectivized conormal of N.  Returns
    (all three hold, witness).
    """
    base = f.ring
    n = len(base.vars)
    full = PolyRing(base.vars, _cotangent_names(base.vars))
    x = tuple(Fraction(c) for c in x)
    if not N.vanishes_at(x):
        raise InputError("the point does not lie on N")
    # the linear w-forms cutting the conormal fibre of N, as w-coefficients;
    # in `full` and in each projected exceptional fibre below the last n
    # variables are the fibre coordinates (w_i, then e_i)
    fibre_forms = [
        [0] * n + [g.diff(w).constant_value() for w in full.cotangent_vars]
        for g in conormal_ideal(N, full).groebner()
        if g.total_degree() == 1 and all(g.diff(z).is_zero() for z in full.base_vars)
    ]

    grad = [f.diff(z).eval_point(x) for z in base.vars]
    cond_ii = all(sum(a * b for a, b in zip(v[n:], grad)) == 0 for v in fibre_forms)
    conY = conormal_ideal(Y, full)
    at_x = conY.plus([full.var(z) - c for z, c in zip(full.base_vars, x)])
    cond_i = all(radical_member(full.linear_form(v), at_x) for v in fibre_forms)

    cond_iii = True
    detail = []
    if cond_i and cond_ii:
        _, comps = blowup_exceptional(conY, graph_ideal(f, full).gens)
        for W, _, _, _ in comps:
            fibre = W.plus([W.ring.var(z) - c for z, c in zip(full.base_vars, x)])
            if fibre.is_unit():
                continue
            projected = eliminate(fibre, full.cotangent_vars)
            ok = all(radical_member(projected.ring.linear_form(v), projected) for v in fibre_forms)
            detail.append({"component": W.generator_strings(), "contained": ok})
            cond_iii = cond_iii and ok
    witness = {
        "conditions": {
            "differential_in_fibre": cond_ii,
            "whitney_a": cond_i,
            "exceptional_containment": cond_iii,
        },
        "exceptional_components": detail,
    }
    return cond_i and cond_ii and cond_iii, witness


def random_polynomial(ring, rng, max_degree=2, max_terms=3, bound=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(ring.nvars)] += 1
        c = 0
        while c == 0:
            c = rng.randint(-bound, bound)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    from levo.poly import Polynomial

    return Polynomial(ring, {m: Fraction(c) for m, c in terms.items() if c})


def random_group(rng, max_rank=3):
    rank = rng.randint(0, max_rank)
    torsion = tuple(rng.choice((2, 3, 4, 6, 9)) for _ in range(rng.randint(0, 2)))
    return AbGroup(rank, torsion)

"""Intersection theory: multiplicities, conormals, push-forward, blow-up."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    blowup_exceptional,
    milnor_number,
    random_polynomial,
    sliced_multiplicity,
)
from levo import geom
from levo.abgroups import Z, Zmod
from levo.cli import parse_config, prepare_job, run_pipeline
from levo.cycles import EnrichedCycle, empty_cycle
from levo.errors import ImproperIntersectionError, InputError
from levo.geom import (
    _bordered_conormal,
    conormal_ideal,
    constant_value_on,
    graph_ideal,
    graph_pushforward,
    intersect_hypersurface,
    local_multiplicity_at_point,
    multiplicity_along,
    relative_conormal_ideal,
)
from levo.ideals import (
    Ideal,
    eliminate,
    map_ideal,
    map_poly,
    quotient_dimension,
    rational_point_of,
    saturate_ideal,
    split_components,
)
from levo.poly import PolyRing
from test_golden import GOLDEN, JOBS


def plane():
    return PolyRing(("x", "y"), ("w_0", "w_1"))


def space():
    return PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))


# ---------------------------------------------------------------------------
# multiplicity along a component


def test_multiplicity_univariate_order_oracle():
    # restriction of w_1 - 3y^2 to V(w_0, w_1) is -3y^2: order two along y=0
    ring = plane()
    P = Ideal(ring, ["w_0", "w_1"])
    W = Ideal(ring, ["w_0", "w_1", "y"])
    m = multiplicity_along(P, ring.parse("w_1 - 3*y^2"), W)
    assert m == 2


def test_multiplicity_point_conormal():
    # z vanishes on the point conormal, so the hypersurface restricts to w_3
    ring = space()
    delta = 3
    P = Ideal(ring, ["u", "x", "y", "z"])
    g = ring.parse("w_3 - %d*z^%d" % (delta, delta - 1))
    W = P.plus([ring.var("w_3")])
    m = multiplicity_along(P, g, W)
    assert m == 1


def test_multiplicity_transverse_is_one():
    ring = plane()
    P = Ideal(ring, ["w_0", "w_1"])
    g = ring.parse("y - x^2")
    W = P.plus([g])
    m = multiplicity_along(P, g, W)
    assert m == 1


@pytest.mark.parametrize("e", range(1, 6), ids=lambda e: str(e - 1))
def test_multiplicity_slice_independent(e):
    # the restriction -5y^e to V(w_0, w_1) vanishes to order e along y = 0
    ring = plane()
    P = Ideal(ring, ["w_0", "w_1"])
    W = Ideal(ring, ["w_0", "w_1", "y"])
    m = multiplicity_along(P, ring.parse("w_1 - 5*y^%d" % e), W)
    assert m == e


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_multiplicity_matches_sliced_lengths(seed):
    # the degree ratio against the two-slice reference, on the conormal of
    # a curve y^a - c*x^b, the point or the plane cut by a gradient
    # hypersurface w_i - df/dz_i of a random f
    rng = random.Random(seed)
    ring = plane()
    base = ring.base_ring()
    curve = "y^%d - %d*x^%d" % (rng.randint(1, 3), rng.choice((1, 2, 3)), rng.randint(1, 3))
    closure = rng.choice([[curve], ["x", "y"], []])
    P = conormal_ideal(Ideal(base, closure), ring)
    f = map_poly(random_polynomial(base, rng, max_degree=3), ring)
    i = rng.randrange(2)
    g = ring.var(ring.cotangent_vars[i]) - f.diff(ring.base_vars[i])
    assume(not P.contains(g) and not P.plus([g]).is_unit())
    for comp in split_components(P.plus([g])):
        W = comp.ideal
        assert multiplicity_along(P, g, W) == sliced_multiplicity(P, g, W, rng)


def test_multiplicity_of_the_node_conormal_cut_through_both_branches():
    # seeds 144 and 8114 of test_multiplicity_matches_sliced_lengths
    ring = plane()
    P = conormal_ideal(Ideal(ring.base_ring(), ["y^2 - x^2"]), ring)
    for cut in ("w_0 - 5*y^2 - 1", "w_0 + 4*y^2 + 2"):
        g = ring.parse(cut)
        for comp in split_components(P.plus([g])):
            W = comp.ideal
            assert multiplicity_along(P, g, W) == sliced_multiplicity(P, g, W, random.Random(0))


def test_a_prime_cut_has_length_one_without_saturating(monkeypatch):
    # P + (g) equal to its component W: the local ring at W is a field
    def fail(*args):
        raise AssertionError("a prime cut needs no degree or saturation")

    monkeypatch.setattr(geom, "degree", fail)
    monkeypatch.setattr(geom, "saturate", fail)
    ring = plane()
    Q = Ideal(ring, ["w_0", "w_1", "y - x^2"])
    assert geom._local_length(Q, Q, []) == 1
    assert multiplicity_along(Ideal(ring, ["w_0", "w_1"]), ring.parse("y - x^2"), Q) == 1


def test_multiplicity_rejects_improper():
    ring = plane()
    P = Ideal(ring, ["w_0", "w_1", "y"])
    with pytest.raises(ImproperIntersectionError):
        multiplicity_along(P, ring.var("y"), P)


# ---------------------------------------------------------------------------
# hypersurface intersection on cycles


def test_intersect_cusp_conormal_step():
    ring = plane()
    E = EnrichedCycle(ring, {Ideal(ring, ["w_0", "w_1"]): Z(1)})
    out = intersect_hypersurface(E, "w_1 - 3*y^2")
    expect = Ideal(ring, ["w_0", "w_1", "y"])
    assert out.cycle.components == {expect: Z(2)}
    assert out.records[0].multiplicity == 2


@pytest.mark.parametrize("delta", [2, 5])
def test_intersect_two_plane_rows(delta):
    ring = space()
    g = ring.parse("w_3 - %d*z^%d" % (delta, delta - 1))
    onto_plane = EnrichedCycle(ring, {Ideal(ring, ["u", "x", "w_2", "w_3"]): Z(1)})
    out = intersect_hypersurface(onto_plane, g)
    expect = Ideal(ring, ["u", "x", "w_2", "w_3", "z"])
    assert out.cycle.components == {expect: Z(delta - 1)}

    other = EnrichedCycle(ring, {Ideal(ring, ["y", "z", "w_0", "w_1"]): Z(1)})
    out2 = intersect_hypersurface(other, g)
    expect2 = Ideal(ring, ["y", "z", "w_0", "w_1", "w_3"])
    assert out2.cycle.components == {expect2: Z(1)}


def test_intersect_improper_names_component():
    ring = plane()
    comp = Ideal(ring, ["y", "w_0"])
    E = EnrichedCycle(ring, {comp: Z(1)})
    with pytest.raises(ImproperIntersectionError) as excinfo:
        intersect_hypersurface(E, "y")
    assert excinfo.value.component == comp


def test_intersect_drops_dimension_by_one():
    ring = space()
    comp = Ideal(ring, ["y", "z", "w_0", "w_1"])
    E = EnrichedCycle(ring, {comp: Z(1)})
    out = intersect_hypersurface(E, "w_3 - 4*z^3")
    for W in out.cycle.support():
        assert W.dimension() == comp.dimension() - 1


def test_intersect_tensors_torsion_coefficients():
    ring = plane()
    E = EnrichedCycle(ring, {Ideal(ring, ["w_0", "w_1"]): Zmod(4)})
    out = intersect_hypersurface(E, "w_1 - 3*y^2")
    W = Ideal(ring, ["w_0", "w_1", "y"])
    assert out.cycle.coefficient(W) == Zmod(4, 4)


# ---------------------------------------------------------------------------
# local multiplicities


def test_local_multiplicity_examples():
    base = space().base_ring()
    a, b = 2, 3
    J = Ideal(base, ["u", "u^%d + x^%d" % (a, b), "y", "z"])
    assert local_multiplicity_at_point(J, (0, 0, 0, 0)) == b
    plane_base = plane().base_ring()
    assert local_multiplicity_at_point(Ideal(plane_base, ["x - 1", "y"]), (0, 0)) == 0
    assert local_multiplicity_at_point(Ideal(plane_base, ["x", "y"]), (0, 0)) == 1
    # a positive-dimensional component that misses the point is allowed
    assert local_multiplicity_at_point(Ideal(plane_base, ["x*(x - 1)", "x*y"]), (1, 0)) == 1
    # length 2^7 at the origin, beside a second point at h = 1
    octic = PolyRing(tuple("abcdefgh"), ())
    J = Ideal(octic, ["%s^2" % v for v in "abcdefg"] + ["h^2 - h"])
    assert local_multiplicity_at_point(J, (0,) * 8) == 128


def test_local_multiplicity_rejects_positive_dimension():
    base = plane().base_ring()
    for gens in (["x"], ["x*(x - 1)", "x*y"]):
        with pytest.raises(InputError):
            local_multiplicity_at_point(Ideal(base, gens), (0, 0))


def test_local_multiplicity_translated_point():
    base = plane().base_ring()
    J = Ideal(base, ["(x - 1)^2", "y + 2"])
    assert local_multiplicity_at_point(J, (1, -2)) == 2


@pytest.mark.parametrize("f, points", [
    ("x^3 - 3*x + y^4", [(-1, 0), (1, 0)]),
    ("x^3 - 3*x + y^3 - 3*y", [(-1, -1), (-1, 1), (1, -1), (1, 1)]),
])
def test_point_lengths_over_the_critical_points_sum_to_the_milnor_number(f, points):
    # each critical point has the others as components to saturate away
    base = plane().base_ring()
    f = base.parse(f)
    J = Ideal(base, [f.diff(v) for v in base.vars])
    assert sorted(rational_point_of(c.ideal) for c in split_components(J)) == points
    assert sum(local_multiplicity_at_point(J, p) for p in points) == milnor_number(f)


# ---------------------------------------------------------------------------
# conservation of module under perturbed slices (linear corpus)


def _point_total(cycle, forms, point):
    total = 0
    for P, coeff in cycle.items():
        J = P.plus(forms)
        if J.is_unit():
            continue
        total += coeff.rank * local_multiplicity_at_point(J, point)
    return total


def _perturbed_total(cycle, forms, rng):
    base = cycle.ring
    t = Fraction(1, 101)
    total = 0
    perturbed = []
    for form in forms:
        noise = base.linear_form(
            [rng.randint(-9, 9) for _ in base.vars], rng.randint(-9, 9)
        )
        perturbed.append(form + noise * t)
    for P, coeff in cycle.items():
        J = P.plus(perturbed)
        q = quotient_dimension(J)
        assert q is not None
        total += coeff.rank * q
    return total


@pytest.mark.parametrize("seed", range(8))
def test_conservation_of_module_linear_cycles(seed):
    rng = random.Random(7000 + seed)
    base = PolyRing(("x", "y"))
    lines = ["x", "y", "x - y", "x + 2*y"]
    comps = {}
    for name in rng.sample(lines, rng.randint(1, 3)):
        comps[Ideal(base, [name])] = Z(rng.randint(1, 3))
    cycle = EnrichedCycle(base, comps)
    form = base.linear_form([rng.randint(1, 5), rng.randint(-5, -1)], 0)
    if any(P.contains(form) for P in cycle.components):
        form = base.linear_form([1, 1], 0)
        if any(P.contains(form) for P in cycle.components):
            return
    lhs = _point_total(cycle, (form,), (0, 0))
    rhs = _perturbed_total(cycle, (form,), rng)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# conormals


def test_conormal_linear_subspace():
    ring = space()
    out = conormal_ideal(Ideal(ring.base_ring(), ["u", "x"]), ring)
    assert out == Ideal(ring, ["u", "x", "w_2", "w_3"])


def test_conormal_hypersurface_one_variable():
    ring = PolyRing(("z_0",), ("w_0",))
    out = conormal_ideal(Ideal(ring.base_ring(), ["z_0"]), ring)
    assert out == Ideal(ring, ["z_0"])


def test_conormal_zero_section():
    ring = plane()
    out = conormal_ideal(Ideal(ring.base_ring(), []), ring)
    assert out == Ideal(ring, ["w_0", "w_1"])


def test_conormal_singular_curve():
    # cuspidal cubic: the conormal is cut by the tangency relation,
    # saturated at the singular point
    ring = plane()
    base = ring.base_ring()
    out = conormal_ideal(Ideal(base, ["x^2 - y^3"]), ring)
    f = ring.parse("x^2 - y^3")
    assert out.contains(f)
    assert out.dimension() == 2
    # a known conormal pair: at (1,1), gradient (2,-3)
    gens_at = out.plus([ring.parse(s) for s in ("x - 1", "y - 1", "w_0 - 2", "w_1 + 3")])
    assert not gens_at.is_unit()


@pytest.mark.parametrize("gens", [["x", "y", "x*y"], ["x", "y", "x^2"]])
def test_conormal_of_a_point_ignores_redundant_generators(gens):
    ring = plane()
    out = conormal_ideal(Ideal(ring.base_ring(), gens), ring)
    assert out == Ideal(ring, ["x", "y"])


def test_conormal_dimension_invariant():
    ring = space()
    base = ring.base_ring()
    n1 = len(ring.base_vars)
    for gens in (["u", "x"], ["y", "z"], ["u", "x", "y", "z"], ["u^2 + x^2", "y", "z"]):
        I = Ideal(base, gens)
        out = conormal_ideal(I, ring)
        assert out.dimension() == n1
        assert out.contains_ideal(Ideal(ring, [map_poly(g, ring) for g in I.gens]))


def _linear_closure(rows, point, base):
    return Ideal(base, [base.linear_form(r, -sum(a * c for a, c in zip(r, point)))
                        for r in rows])


def _nullspace_conormal(closure, rows, ring):
    """Conormal of the linear subspace {A (z - p) = 0}: its equations plus
    one cotangent form per vector of the null space of A."""
    n = len(ring.base_vars)
    gens = [map_poly(g, ring) for g in closure.gens]
    for v in sympy.Matrix(rows or [[0] * n]).nullspace():
        gens.append(ring.linear_form([0] * n + [Fraction(str(c)) for c in v]))
    return Ideal(ring, gens)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 4))
def test_conormal_of_linear_ideal_matches_null_space(seed, nvars):
    # the conormal read off the echelon basis against the tangent null
    # space, the bordered minors and the Lagrange form, on subspaces
    # through a rational point, with redundant generators and the zero
    # ideal among the inputs
    rng = random.Random(seed)
    names = ("x", "y", "z", "u")[:nvars]
    ring = PolyRing(names, tuple("w_%d" % i for i in range(nvars)))
    point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in names]
    rows = [[rng.randint(-3, 3) for _ in names] for _ in range(rng.randint(0, nvars))]
    for _ in range(rng.randint(0, 2) if rows else 0):
        a, b = rng.choice(rows), rng.choice(rows)
        rows.append([rng.randint(-2, 2) * p + rng.randint(-2, 2) * q for p, q in zip(a, b)])
    closure = _linear_closure(rows, point, ring.base_ring())
    out = conormal_ideal(closure, ring)
    assert out == _nullspace_conormal(closure, rows, ring) == _bordered_conormal(closure, [], ring)
    assert out == _lagrange_conormal(closure, ring)


def _leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    total = m[0][0].ring.zero()
    for perm in itertools.permutations(range(len(m))):
        term = m[0][0].ring.one()
        for i, j in enumerate(perm):
            term = term * m[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def _lagrange_conormal(I, ring):
    """The conormal of V(I) by Lagrange multipliers: I + (w - sum_i l_i grad g_i)
    over the generators g_i, the l_i eliminated, saturated by the nonzero
    codim-minors of the Jacobian of the g_i."""
    n = len(ring.base_vars)
    jac = [[g.diff(z) for z in ring.base_vars] for g in I.gens]
    lams = tuple("l_%d" % i for i in range(len(I.gens)))
    ext = PolyRing(lams + ring.vars)
    gens = [map_poly(g, ext) for g in I.gens]
    for j, w in enumerate(ring.cotangent_vars):
        gens.append(ext.var(w) - sum(
            (ext.var(l) * map_poly(row[j], ext) for l, row in zip(lams, jac)), ext.zero()
        ))
    K = eliminate(Ideal(ext, gens), lams)
    codim = n - I.dimension()
    minors = [
        _leibniz_det([[jac[r][c] for c in cols] for r in rows])
        for rows in itertools.combinations(range(len(jac)), codim)
        for cols in itertools.combinations(range(n), codim)
    ] if codim else []
    minors = [map_poly(d, K.ring) for d in minors if not d.is_zero()]
    if minors:
        K = saturate_ideal(K, Ideal(K.ring, minors))
    return map_ideal(K, ring)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shape=st.sampled_from([(2, (3,)), (3, (2,)), (3, (2, 2)), (4, (1, 2))]),
)
def test_conormal_matches_lagrange_multipliers(seed, shape):
    # the bordered-Jacobian route against the Lagrange form on random
    # curves and surfaces: (n, degrees) is one generator per degree, of
    # at most that degree, in C^n.  Two quadrics in C^4 are left out: a
    # few of them take 20 s
    n, degrees = shape
    rng = random.Random(seed)
    names = ("x", "y", "z", "u")[:n]
    ring = PolyRing(names, tuple("w_%d" % i for i in range(n)))
    base = ring.base_ring()
    I = Ideal(base, [random_polynomial(base, rng, max_degree=d, max_terms=4) for d in degrees])
    assume(not I.is_unit() and I.dimension() == n - len(degrees))
    assert conormal_ideal(I, ring) == _lagrange_conormal(I, ring)


@pytest.mark.parametrize("names,gens", [
    ("xy", ["y^2 - x^2 - x^3"]),
    ("xy", ["x^2 - y^3"]),
    ("xy", ["x*y"]),
    ("xyz", ["z^2 - x^2 - y^2"]),
    ("xyz", ["y - x^2", "z - x^3"]),
    ("xyz", ["x^2 - y^2*z"]),
    ("xyz", ["y^2 - x^3", "z"]),
    ("xyz", ["x*y", "z"]),
    ("uxyz", ["x*u - y*z"]),
], ids=["node", "cusp", "xy", "cone", "twisted-cubic", "umbrella", "cusp-in-c3",
        "axes-in-c3", "quadric-cone-in-c4"])
def test_conormal_of_curved_strata_matches_lagrange_multipliers(names, gens):
    ring = PolyRing(tuple(names), tuple("w_%d" % i for i in range(len(names))))
    I = Ideal(ring.base_ring(), gens)
    assert conormal_ideal(I, ring) == _lagrange_conormal(I, ring)


@pytest.mark.parametrize("name", [name for name, _, _ in JOBS])
def test_conormal_of_golden_strata_matches_lagrange_multipliers(name):
    job = prepare_job(parse_config((GOLDEN / (name + ".json")).read_text(encoding="utf-8")))
    for stratum in job.spec.strata or []:
        if not stratum.closure.is_unit():
            assert conormal_ideal(stratum.closure, job.ring) == _lagrange_conormal(
                stratum.closure, job.ring
            )


def test_relative_conormal_examples():
    ring = plane()
    base = ring.base_ring()
    assert relative_conormal_ideal(Ideal(base, ["x"]), base.parse("y"), ring) == Ideal(
        ring, ["x"]
    )
    out = relative_conormal_ideal(Ideal(base, []), base.parse("x^2 + y^3"), ring)
    assert out == Ideal(ring, ["3*y^2*w_0 - 2*x*w_1"])
    ring3 = PolyRing(("z_0", "z_1", "z_2"), ("w_0", "w_1", "w_2"))
    out3 = relative_conormal_ideal(
        Ideal(ring3.base_ring(), []), ring3.base_ring().parse("z_0"), ring3
    )
    assert out3 == Ideal(ring3, ["w_1", "w_2"])


def test_relative_conormal_of_singular_curve_is_full_cotangent():
    # on a curve the kernel of any non-constant function meets the
    # tangent line trivially, so every covector is allowed
    ring = plane()
    base = ring.base_ring()
    curve = Ideal(base, ["x^2 - y^3"])
    for f_text in ("y", "x"):
        out = relative_conormal_ideal(curve, base.parse(f_text), ring)
        assert out == Ideal(ring, ["x^2 - y^3"])


def test_relative_conormal_rejects_constant():
    ring = plane()
    base = ring.base_ring()
    with pytest.raises(InputError):
        relative_conormal_ideal(Ideal(base, ["x"]), base.parse("x"), ring)


def test_constant_value_detection():
    base = plane().base_ring()
    I = Ideal(base, ["x"])
    assert constant_value_on(I, base.parse("y")) == (False, None)
    assert constant_value_on(I, base.parse("x + 3")) == (True, Fraction(3))


# ---------------------------------------------------------------------------
# push-forward along the gradient graph


def test_pushforward_examples():
    ring = space()
    base = ring.base_ring()
    a, b, tau = 2, 2, 2
    f = base.parse("(u^%d + x^%d)^%d + y^2 + z^2" % (a, b, tau))
    comp = Ideal(
        ring, ["y", "z", "w_0", "w_1", "w_2", "w_3", "u^%d + x^%d" % (a, b)]
    )
    E = EnrichedCycle(ring, {comp: Z(tau - 1)})
    out = graph_pushforward(E, f)
    assert out.components == {Ideal(base, ["u^2 + x^2", "y", "z"]): Z(tau - 1)}

    ring2 = plane()
    base2 = ring2.base_ring()
    f2 = base2.parse("x^2 + y^3")
    E2 = EnrichedCycle(ring2, {Ideal(ring2, ["x", "y", "w_0", "w_1"]): Z(2)})
    out2 = graph_pushforward(E2, f2)
    assert out2.components == {Ideal(base2, ["x", "y"]): Z(2)}

    assert graph_pushforward(empty_cycle(ring2), f2).is_zero()


def test_pushforward_rejects_components_off_graph():
    ring = plane()
    f = ring.base_ring().parse("x^2 + y^3")
    E = EnrichedCycle(ring, {Ideal(ring, ["w_0", "w_1"]): Z(1)})
    with pytest.raises(InputError):
        graph_pushforward(E, f)


def test_projection_formula():
    # pushing forward an intersection with a pulled-back hypersurface
    # agrees with intersecting the push-forward
    ring = plane()
    base = ring.base_ring()
    f = base.parse("x^2 + y^3")
    graph = graph_ideal(f, ring)
    E = EnrichedCycle(ring, {graph: Z(2)})
    for g_text in ("y", "x - 1", "x + y - 2"):
        g = base.parse(g_text)
        g_up = map_poly(g, ring)
        lhs = graph_pushforward(intersect_hypersurface(E, g_up).cycle, f)
        rhs = intersect_hypersurface(graph_pushforward(E, f), g).cycle
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the blow-up oracle (tests/conftest.py)


def test_blowup_point_in_plane():
    ring = PolyRing(("x", "y"))
    blowup, comps = blowup_exceptional(Ideal(ring, []), ("x", "y"))
    assert len(comps) == 1
    W, multiplicity, _, _ = comps[0]
    assert multiplicity == 1
    projected = eliminate(W, [v for v in W.ring.vars if v not in ("x", "y")])
    assert {str(g) for g in projected.groebner()} == {"y", "x"}


def test_blowup_gradient_graph_matches_distinguished_multiplicity():
    # zero section along the gradient tuple of the cusp: the sliced
    # exceptional length reproduces the multiplicity-two point cycle
    ring = plane()
    P = Ideal(ring, ["w_0", "w_1"])
    _, comps = blowup_exceptional(P, ("w_0 - 2*x", "w_1 - 3*y^2"))
    assert len(comps) == 1
    W, multiplicity, _, _ = comps[0]
    assert multiplicity == 2
    base_section = [v for v in ("x", "y", "w_0", "w_1")]
    projected = eliminate(W, [v for v in W.ring.vars if v not in base_section])
    assert projected == Ideal(projected.ring, ["x", "y", "w_0", "w_1"])


@pytest.mark.parametrize(
    "f_text", ["x^2 + y^3", "x^2 + y^4", "x^3 + y^3", "x^3 + y^4", "x^2*y + y^4"]
)
def test_blowup_multiplicity_matches_point_module_and_milnor_number(f_text):
    # the zero section blown up along the gradient graph, the top point
    # module of the constant sheaf, and the Jacobian algebra: three routes
    # to the Milnor number of an isolated plane singularity
    ring = plane()
    f = ring.base_ring().parse(f_text)
    _, comps = blowup_exceptional(Ideal(ring, ["w_0", "w_1"]), graph_ideal(f, ring).gens)
    [(_, multiplicity, _, _)] = comps
    constant_sheaf = {"strata": [{"closure": [], "morse": {"2": {"rank": 1, "torsion": []}}}]}
    report, _ = run_pipeline(
        parse_config(
            {"variables": ["x", "y"], "sheaf": constant_sheaf, "function": f_text, "point": [0, 0]}
        )
    )
    assert multiplicity == report["levo_modules"]["2"]["0"]["rank"] == milnor_number(f)


def test_blowup_unit_tuple_gives_empty_divisor():
    ring = PolyRing(("x", "y"))
    P = Ideal(ring, ["y"])
    _, comps = blowup_exceptional(P, ("1",))
    assert comps == []


def test_blowup_rejects_vanishing_tuple():
    ring = plane()
    P = Ideal(ring, ["w_0", "w_1"])
    with pytest.raises(InputError):
        blowup_exceptional(P, ("w_0", "w_1"))

"""Groebner bases, ideal operations, and component splitting."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_polynomial
from levo.ideals import (
    Ideal,
    buchberger,
    decomposition_covers,
    eliminate,
    intersect,
    is_irreducible,
    map_poly,
    quotient_dimension,
    radical_member,
    saturate,
    split_components,
)
from levo.poly import (
    PolyRing,
    Polynomial,
    block_key,
    lex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
)


def section7_ring():
    return PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))


# ---------------------------------------------------------------------------
# Groebner bases


def test_lex_basis_hand_example():
    # hand Buchberger run: {y - x^2, w - y} under lex w > y > x
    ring = PolyRing(("w", "y", "x"))
    gens = [ring.parse("y - x^2").terms, ring.parse("w - y").terms]
    basis = {Polynomial(ring, t) for t in buchberger(gens, lex_key)}
    assert basis == {ring.parse("w - x^2"), ring.parse("y - x^2")}


def test_already_reduced_basis():
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, ["x", "y"])
    assert [str(g) for g in I.groebner()] == ["y", "x"]


def test_linear_basis_fixed_point():
    ring = section7_ring()
    I = Ideal(ring, ["u", "x", "w_2", "w_3"])
    assert {str(g) for g in I.groebner()} == {"u", "x", "w_2", "w_3"}


def test_zero_and_unit_ideals():
    ring = PolyRing(("x",))
    assert Ideal(ring, []).is_zero()
    assert Ideal(ring, ["2"]).is_unit()
    assert Ideal(ring, ["x", "x + 1"]).is_unit()


def _spoly_of(f, g, key):
    fl, fc = f.lead(key)
    gl, gc = g.lead(key)
    lcm = monomial_lcm(fl, gl)
    mf = f.ring.monomial(monomial_div(lcm, fl), Fraction(1, fc))
    mg = f.ring.monomial(monomial_div(lcm, gl), Fraction(1, gc))
    return mf * f - mg * g


@pytest.mark.parametrize("seed", range(12))
def test_buchberger_completeness_random(seed):
    # every S-polynomial of the returned basis reduces to zero
    rng = random.Random(1000 + seed)
    ring = PolyRing(("x", "y", "z"))
    gens = [random_polynomial(ring, rng) for _ in range(rng.randint(2, 3))]
    I = Ideal(ring, gens)
    basis = I.groebner()
    key = ring.key()
    for i in range(len(basis)):
        for j in range(i):
            s = _spoly_of(basis[i], basis[j], key)
            assert I.normal_form(s).is_zero()


@pytest.mark.parametrize("seed", range(12))
def test_reduction_idempotent_random(seed):
    rng = random.Random(2000 + seed)
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, [random_polynomial(ring, rng) for _ in range(2)])
    p = random_polynomial(ring, rng, max_degree=3)
    once = I.normal_form(p)
    assert I.normal_form(once) == once


def _divide_with_certificate(p, basis, key):
    """Test-side division: quotients plus remainder with the identity
    p = sum(q_i * b_i) + r and no remainder term divisible by a lead."""
    work = p
    quotients = [p.ring.zero() for _ in basis]
    remainder = p.ring.zero()
    leads = [b.lead(key) for b in basis]
    while not work.is_zero():
        m, c = work.lead(key)
        for i, (lm, lc) in enumerate(leads):
            if monomial_divides(lm, m):
                q = p.ring.monomial(monomial_div(m, lm), c / lc)
                quotients[i] = quotients[i] + q
                work = work - q * basis[i]
                break
        else:
            mono = p.ring.monomial(m, c)
            remainder = remainder + mono
            work = work - mono
    return quotients, remainder


@pytest.mark.parametrize("seed", range(10))
def test_membership_agrees_with_division_certificate(seed):
    rng = random.Random(3000 + seed)
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, [random_polynomial(ring, rng) for _ in range(2)])
    basis = list(I.groebner())
    if not basis:
        return
    key = ring.key()
    # a known combination must be a member, and the certificate must agree
    combo = ring.zero()
    for b in basis:
        combo = combo + random_polynomial(ring, rng, max_degree=1) * b
    quotients, remainder = _divide_with_certificate(combo, basis, key)
    rebuilt = remainder
    for q, b in zip(quotients, basis):
        rebuilt = rebuilt + q * b
    assert rebuilt == combo
    assert remainder.is_zero() == I.contains(combo)
    # and a generic low-degree polynomial agrees both ways
    probe = random_polynomial(ring, rng, max_degree=2)
    _, r2 = _divide_with_certificate(probe, basis, key)
    assert r2.is_zero() == I.contains(probe)


# ---------------------------------------------------------------------------
# membership examples


def test_membership_examples():
    ring = PolyRing(("x", "y"), ("w_0", "w_1"))
    assert Ideal(ring, ["y"]).contains(ring.parse("y^2"))
    assert not Ideal(ring, ["w_0", "w_1", "y"]).contains(ring.parse("w_0 - 2*x"))


def test_membership_section7():
    ring = section7_ring()
    a, b = 2, 3
    I = Ideal(ring, ["y", "z", "w_0", "w_1", "w_2", "w_3", "u^%d + x^%d" % (a, b)])
    assert I.contains(ring.parse("u^%d + x^%d" % (a, b)))


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_substitution_oracle():
    ring = PolyRing(("w", "x", "y"))
    I = Ideal(ring, ["w - x^2", "y - w"])
    out = eliminate(I, {"w"})
    assert out.ring.vars == ("x", "y")
    # substitution oracle: w = x^2 forces y = x^2
    assert {str(g) for g in out.groebner()} == {"x^2 - y"}


def test_eliminate_section7_curve():
    ring = section7_ring()
    a, b = 2, 2
    I = Ideal(
        ring, ["y", "z", "w_0", "w_1", "w_2", "w_3", "u^%d + x^%d" % (a, b)]
    )
    out = eliminate(I, set(ring.cotangent_vars))
    assert out.ring.vars == ("u", "x", "y", "z")
    assert {str(g) for g in out.groebner()} == {"y", "z", "u^2 + x^2"}


def test_eliminate_nothing_is_identity():
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, ["x*y - 1"])
    assert eliminate(I, set()) is I


def test_eliminate_respects_containment():
    rng = random.Random(77)
    ring = PolyRing(("x", "y", "z"))
    for _ in range(6):
        I = Ideal(ring, [random_polynomial(ring, rng) for _ in range(2)])
        out = eliminate(I, {"z"})
        for g in out.gens:
            assert I.contains(map_poly(g, ring))


# ---------------------------------------------------------------------------
# quotients and saturation


def test_saturate_examples():
    ring = PolyRing(("x", "y"), ("w_0", "w_1"))
    assert {str(g) for g in saturate(Ideal(ring, ["x*y"]), "x").groebner()} == {"y"}
    assert saturate(Ideal(ring, ["x"]), "1") == Ideal(ring, ["x"])
    assert saturate(Ideal(ring, ["x^2"]), "x").is_unit()
    # (w0,w1,y^2) : y = (w0,w1,y), and y : y is the unit ideal, so the
    # saturation swallows both steps
    I = Ideal(ring, ["w_0", "w_1", "y^2"])
    assert saturate(I, "y").is_unit()
    assert saturate(I, "x") == I
    with pytest.raises(ValueError):
        saturate(I, "0")


def _colon_by_division(I, g):
    """I : (g) from I intersected with (g), each generator divided by g with
    sympy; independent of the tag-variable elimination under test."""
    syms = sympy.symbols(I.ring.vars)

    def to_sympy(p):
        coeffs = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
        return sympy.Poly.from_dict(coeffs, *syms, domain="QQ")

    quotients = []
    for h in intersect(I, Ideal(I.ring, [g])).gens:
        q, r = sympy.div(to_sympy(h), to_sympy(g))
        assert r.is_zero
        quotients.append(Polynomial(I.ring, {m: Fraction(str(c)) for m, c in q.terms()}))
    return Ideal(I.ring, quotients)


def _saturate_by_iterated_colon(I, g):
    current = I
    while True:
        nxt = _colon_by_division(current, g)
        if nxt == current:
            return current
        current = nxt


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_saturate_matches_iterated_colon(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    g = random_polynomial(ring, rng, max_degree=2, max_terms=2)
    assume(not g.is_zero())
    # generators carrying powers of g make most saturations nontrivial
    gens = [
        g ** rng.randint(0, 2) * random_polynomial(ring, rng)
        for _ in range(rng.randint(1, 3))
    ]
    I = Ideal(ring, gens)
    assert saturate(I, g) == _saturate_by_iterated_colon(I, g)


def test_intersect_principal():
    ring = PolyRing(("x", "y"))
    out = intersect(Ideal(ring, ["x"]), Ideal(ring, ["y"]))
    assert {str(g) for g in out.groebner()} == {"x*y"}


def test_radical_membership():
    ring = PolyRing(("x", "y"))
    assert radical_member("x", Ideal(ring, ["x^3"]))
    assert not radical_member("y", Ideal(ring, ["x^3"]))


# ---------------------------------------------------------------------------
# dimension


def test_dimension_examples():
    ring2 = PolyRing(("x", "y"))
    assert Ideal(ring2, ["x", "y"]).dimension() == 0
    assert Ideal(ring2, []).dimension() == 2
    base7 = section7_ring().base_ring()
    assert Ideal(base7, ["u^2 + x^3", "y", "z"]).dimension() == 1
    assert Ideal(ring2, ["1"]).dimension() == -1


@pytest.mark.parametrize("seed", range(10))
def test_dimension_drop_with_generic_linear_form(seed):
    rng = random.Random(4000 + seed)
    ring = PolyRing(("x", "y", "z"))
    I = Ideal(ring, [random_polynomial(ring, rng)])
    d = I.dimension()
    if d <= 0:
        return
    coeffs = [rng.randint(-50, 50) for _ in ring.vars]
    if not any(coeffs):
        coeffs[0] = 1
    form = ring.linear_form(coeffs, rng.randint(-50, 50))
    d2 = Ideal(ring, list(I.gens) + [form]).dimension()
    assert d2 in (d - 1, d)
    in_some_prime = any(c.ideal.contains(form) for c in split_components(I))
    if not in_some_prime:
        assert d2 == d - 1


def test_quotient_dimension():
    ring = PolyRing(("x", "y"))
    assert quotient_dimension(Ideal(ring, ["x^2", "y^3"])) == 6
    assert quotient_dimension(Ideal(ring, ["x"])) is None
    assert quotient_dimension(Ideal(ring, ["1"])) == 0


# ---------------------------------------------------------------------------
# component splitting


def test_split_two_lines():
    ring = PolyRing(("x", "y"))
    comps = split_components(Ideal(ring, ["x*y"]))
    assert sorted(str(c.ideal) for c in comps) == ["Ideal(x)", "Ideal(y)"]
    assert all(c.certified for c in comps)


def test_split_nilpotent_line():
    ring = PolyRing(("x", "y"), ("w_0", "w_1"))
    comps = split_components(Ideal(ring, ["w_0", "w_1", "y^2"]))
    assert len(comps) == 1
    assert {str(g) for g in comps[0].ideal.groebner()} == {"w_0", "w_1", "y"}
    assert comps[0].certified


@pytest.mark.parametrize("a,b,tau", [(2, 3, 2), (3, 2, 2)])
def test_split_section7_partial_product(a, b, tau):
    ring = section7_ring()
    linear = ["y", "z", "w_0", "w_1", "w_2", "w_3"]
    g = "(u^%d + x^%d)^%d * x^%d" % (a, b, tau - 1, b - 1)
    comps = split_components(Ideal(ring, linear + [g]))
    found = {c.ideal for c in comps}
    expect_x = Ideal(ring, linear + ["x"])
    expect_curve = Ideal(ring, linear + ["u^%d + x^%d" % (a, b)])
    assert found == {expect_x, expect_curve}
    assert all(c.certified for c in comps)


def test_split_components_cover_and_incomparable():
    rng = random.Random(99)
    ring = PolyRing(("x", "y"))
    for _ in range(8):
        gens = [random_polynomial(ring, rng) for _ in range(2)]
        I = Ideal(ring, gens)
        if I.is_unit() or I.is_zero():
            continue
        comps = split_components(I)
        assert comps
        assert decomposition_covers(I, comps)
        for c in comps:
            for d in comps:
                if c is not d:
                    assert not c.ideal.contains_ideal(d.ideal)


def test_split_rejects_unit():
    ring = PolyRing(("x",))
    with pytest.raises(ValueError):
        split_components(Ideal(ring, ["1"]))


def test_irreducibility_bridge():
    ring = PolyRing(("x", "y"))
    assert is_irreducible(ring.parse("x^2 + y^2"))
    assert not is_irreducible(ring.parse("x^2 - y^2"))


def test_groebner_basis_order_argument():
    ring = PolyRing(("x", "y"))
    gens = [ring.parse("x^2 - y").terms, ring.parse("y^2 - x").terms]
    # lex with x > y, and the block order with x alone in the lead block,
    # both eliminate x in one basis element: y^4 - y
    for key in (lex_key, block_key(1)):
        basis = [Polynomial(ring, t) for t in buchberger(gens, key)]
        assert ring.parse("y^4 - y") in basis

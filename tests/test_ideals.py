"""Groebner bases, ideal operations, and component splitting."""

import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.orderings import ProductOrder
from sympy.polys.orderings import grevlex as sympy_grevlex

from conftest import decomposition_covers, random_polynomial
from levo import ideals
from levo.abgroups import AbGroup
from levo.cycles import EnrichedCycle
from levo.errors import InternalError
from levo.geom import constant_value_on
from levo.ideals import (
    Ideal,
    algebra_cache,
    buchberger,
    degree,
    eliminate,
    factor_rational,
    intersect,
    is_irreducible,
    krull_dimension,
    map_poly,
    quotient_dimension,
    radical_member,
    saturate,
    saturate_ideal,
    split_components,
)
from levo.poly import PolyRing, Polynomial, block_key, grevlex_key, monomial_mul, poly_to_str


def section7_ring():
    return PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))


# ---------------------------------------------------------------------------
# exponent-tuple references for the packed kernel


def lex_key(exps):
    """The lex order, variables in ring order: sympy's "lex"."""
    return exps


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _monomial(ring, exps, coeff):
    return Polynomial(ring, {tuple(exps): coeff})


def _monic(p, key):
    """p scaled to leading coefficient 1 under the order `key`."""
    lc = p.terms[max(p.terms, key=key)]
    return Polynomial(p.ring, {m: Fraction(c) / lc for m, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Groebner bases


def _to_sympy(p):
    syms = sympy.symbols(p.ring.vars)
    coeffs = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, *syms, domain="QQ")


def _from_sympy(ring, q):
    return Polynomial(ring, {tuple(m): Fraction(str(c)) for m, c in q.terms()})


def _sympy_basis(gens, order, key):
    """sympy's reduced basis of the polynomials gens, made monic under key."""
    ring = gens[0].ring
    G = sympy.groebner([_to_sympy(g) for g in gens], *sympy.symbols(ring.vars), order=order)
    return [_monic(_from_sympy(ring, q), key) for q in G.polys]


def _term_sets(polys):
    return {frozenset(p.terms.items()) for p in polys}


def _primitive(p):
    """p scaled to content 1 and a positive leading coefficient under
    grevlex."""
    den = math.lcm(*(Fraction(c).denominator for c in p.terms.values()))
    ints = {m: int(Fraction(c) * den) for m, c in p.terms.items()}
    g = math.gcd(*ints.values()) * (1 if p.lead()[1] > 0 else -1)
    return Polynomial(p.ring, {m: c // g for m, c in ints.items()})


def _integral(terms):
    """The term dict times the least common denominator of its
    coefficients: int coefficients, as buchberger takes them."""
    den = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    return {m: int(Fraction(c) * den) for m, c in terms.items()}


def _monic_basis(ring, terms, key):
    """buchberger's basis of the term dicts, each entry checked primitive
    (int coefficients, content 1, positive leading coefficient) and then
    made monic under `key`."""
    out = []
    for t in buchberger(terms, key):
        coeffs = list(t.values())
        assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1 and coeffs[0] > 0
        out.append(_monic(Polynomial(ring, t), key))
    return out


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_buchberger_matches_sympy_groebner(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [
        random_polynomial(ring, rng, max_degree=3, max_terms=4)
        for _ in range(rng.randint(1, 4))
    ]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    terms = [g.terms for g in gens]
    block = ProductOrder((sympy_grevlex, lambda m: m[:1]), (sympy_grevlex, lambda m: m[1:]))
    for key, order in ((grevlex_key, "grevlex"), (block_key((0,)), block)):
        ours = _monic_basis(ring, terms, key)
        assert _term_sets(ours) == _term_sets(_sympy_basis(gens, order, key))
    # `ours` is now the block_key((0,)) basis, which eliminates the first
    # variable as lex does
    theirs = _sympy_basis(gens, "lex", lex_key)
    assert Ideal(ring, _free_of(ours, 1)) == Ideal(ring, _free_of(theirs, 1))


def _free_of(polys, k):
    """The polynomials free of the first k variables."""
    return [p for p in polys if all(not any(m[:k]) for m in p.terms)]


def _fraction_polynomial(ring, rng, max_degree):
    """One to four terms of degree at most max_degree with Fraction
    coefficients, most of them not integral."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ring.nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return Polynomial(ring, terms)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3),
       linear=st.booleans())
def test_fraction_generators_give_sympy_bases_made_monic(seed, nvars, linear):
    # generators with Fraction coefficients, linear or up to degree 3,
    # cleared of denominators as `Ideal` clears them: the basis buchberger
    # returns, made monic, is sympy's reduced basis of the Fraction ones
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [_fraction_polynomial(ring, rng, 1 if linear else 3) for _ in range(rng.randint(1, 4))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    terms = [_integral(g.terms) for g in gens]
    block = ProductOrder((sympy_grevlex, lambda m: m[:1]), (sympy_grevlex, lambda m: m[1:]))
    for key, order in ((grevlex_key, "grevlex"), (block_key((0,)), block)):
        ours = [_monic(Polynomial(ring, t), key) for t in buchberger(terms, key)]
        assert _term_sets(ours) == _term_sets(_sympy_basis(gens, order, key))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_ideal_identity_ignores_rational_factors(seed, nvars):
    # scaling each generator by a nonzero rational changes neither the
    # ideal's equality, its hash, its key nor its text
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [_fraction_polynomial(ring, rng, 2) for _ in range(rng.randint(1, 3))]
    scaled = [g * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
              for g in gens]
    I, J = Ideal(ring, gens), Ideal(ring, scaled)
    assert I == J and hash(I) == hash(J) and I.key() == J.key()
    assert I.generator_strings() == J.generator_strings()


def _monic_key(I):
    """The ring and the monic reduced basis, terms in descending grevlex
    order: the order reports list ideals in."""
    return (I.ring._key(), tuple(
        tuple((m, g.terms[m]) for m in sorted(g.terms, key=grevlex_key, reverse=True))
        for g in I.groebner()
    ))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_canonical_order_is_the_monic_basis_order(seed):
    # ideals whose monic bases differ only in a rational coefficient, or
    # that share leading terms: the canonical order of `_dedupe` and of a
    # cycle's support is the order of their monic bases
    rng = random.Random(seed)
    ring = PolyRing(("x", "y"))
    found = []
    for _ in range(8):
        a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
        gens = [ring.parse("x") * rng.randint(1, 4) - ring.parse("y") * a + b]
        if rng.random() < 0.5:
            gens.append(ring.parse("y^2") * rng.randint(1, 3) + ring.parse("y") * a)
        found.append(Ideal(ring, gens))
    rng.shuffle(found)
    expected = sorted(set(found), key=_monic_key)
    assert ideals._dedupe(found) == expected
    assert [_monic_key(I) for I in ideals._dedupe(found)] == [_monic_key(I) for I in expected]
    cycle = EnrichedCycle(ring, {I: AbGroup(1) for I in found})
    assert cycle.support() == expected


def test_buchberger_on_integer_input_creates_no_fraction(monkeypatch):
    # integer generators with leading coefficients other than 1: the
    # kernel, the memo key and the ideal's identity stay in ints
    made = []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    ring = PolyRing(("x", "y", "z"))
    texts = ("3*x*y - 2*z", "4*y*z + 3*z", "2*x^2 - 5*y")
    gens = [ring.parse(g) for g in texts]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(spy))
    with algebra_cache():
        bases = [buchberger([g.terms for g in gens], key) for key in (grevlex_key, block_key((0,)))]
        I, J = Ideal(ring, gens), Ideal(ring, list(reversed(gens)))
        same = I == J and hash(I) == hash(J)
    monkeypatch.undo()
    assert all(bases) and same
    assert made == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_block_bases_match_sympy_in_four_variables(seed):
    # each block order, whose packing has two degree fields, against sympy's
    # product of two grevlex orders; its elimination ideal against that of
    # sympy's lex basis
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z", "w"))
    gens = [random_polynomial(ring, rng) for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    terms = [g.terms for g in gens]
    lex = _sympy_basis(gens, "lex", lex_key)
    for k in range(1, 4):
        key = block_key(tuple(range(k)))
        order = ProductOrder((sympy_grevlex, lambda m: m[:k]), (sympy_grevlex, lambda m: m[k:]))
        ours = _monic_basis(ring, terms, key)
        assert _term_sets(ours) == _term_sets(_sympy_basis(gens, order, key))
        mine = Ideal(ring, _free_of(ours, k))
        theirs = Ideal(ring, _free_of(lex, k))
        assert mine.contains_ideal(theirs) and theirs.contains_ideal(mine)


def _monomial_rich(ring, rng):
    """Several monomials and one to three binomials or trinomials."""
    gens = [random_polynomial(ring, rng, max_degree=3, max_terms=1) for _ in range(rng.randint(2, 4))]
    gens += [random_polynomial(ring, rng, max_degree=3, max_terms=3) for _ in range(rng.randint(1, 3))]
    return [g for g in gens if not g.is_zero()]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 4))
def test_monomial_rich_bases_match_sympy(seed, nvars):
    # pairs of two monomials and coprime pairs are settled when they are
    # made, and the chain criterion then counts them as treated
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z", "w")[:nvars])
    gens = _monomial_rich(ring, rng)
    assume(gens)
    terms = [g.terms for g in gens]
    block = ProductOrder((sympy_grevlex, lambda m: m[:1]), (sympy_grevlex, lambda m: m[1:]))
    for key, order in ((grevlex_key, "grevlex"), (block_key((0,)), block)):
        ours = _monic_basis(ring, terms, key)
        assert _term_sets(ours) == _term_sets(_sympy_basis(gens, order, key))


def test_monomial_and_coprime_pairs_reduce_nothing():
    ring = PolyRing(("x", "y", "z"))
    for gens in (["x^2*y", "x*y^3", "y*z^2", "z^4"], ["x^2 - y", "z^3 - 1"]):
        with algebra_cache() as cache:
            buchberger([ring.parse(g).terms for g in gens], grevlex_key)
            assert (cache.spairs, cache.zero_reductions) == (0, 0)


def test_settled_pairs_serve_the_chain_criterion():
    # x*y and y*z + 3/4*z make x*z.  The pair (x*y, x*z) of two monomials
    # is settled when it is made, so the chain criterion skips
    # (y*z + 3/4*z, x*z) through x*y instead of reducing it to zero.
    ring = PolyRing(("x", "y", "z"))
    with algebra_cache() as cache:
        basis = buchberger([ring.parse("3*x*y").terms, ring.parse("4*y*z + 3*z").terms], grevlex_key)
        assert (cache.spairs, cache.zero_reductions) == (1, 0)
    assert {str(Polynomial(ring, t)) for t in basis} == {"x*y", "x*z", "4*y*z + 3*z"}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_basis_dicts_list_their_terms_in_descending_order(seed, nvars):
    # an Ideal keeps buchberger's dicts as they are and reads their order:
    # the first term is the leading one, and key(), sort_key() and the
    # generator strings take the terms as listed; the references re-sort
    # them
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [
        random_polynomial(ring, rng, max_degree=3, max_terms=4)
        for _ in range(rng.randint(1, 4))
    ]
    terms = [g.terms for g in gens]
    for key in (grevlex_key, block_key((0,)), block_key((0, 1))):
        with algebra_cache() as cache:
            misses = []
            for _ in range(2):  # misses, then only hits
                for t in buchberger(terms, key):
                    order = [key(m) for m in t]
                    assert all(a > b for a, b in zip(order, order[1:]))
                I = Ideal(ring, gens)
                gb = I.groebner()
                lms = [max(g.terms, key=grevlex_key) for g in gb]
                assert I.leading_monomials() == lms == sorted(lms, key=grevlex_key)
                assert I.sort_key() == (ring._key(), tuple(
                    tuple((m, g.terms[m]) for m in sorted(g.terms, key=grevlex_key, reverse=True))
                    for g in gb
                ))
                assert I.key() == (ring._key(), tuple(
                    tuple((m, _primitive(g).terms[m])
                          for m in sorted(g.terms, key=grevlex_key, reverse=True))
                    for g in gb
                ))
                assert I.generator_strings() == [poly_to_str(g) for g in gb]
                misses.append(cache.misses["buchberger"])
            assert misses[0] == misses[1]


_NON_MONIC = ("2*x - 1", "3*x*y - 2", "4*y^2 + 6*x - 2", "-5*x*y^2 + 3*y")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_integer_leading_coefficients_never_divide_to_floats(seed, nvars):
    # int coefficients, divided by an int leading coefficient in a basis
    # entry or `monic`, give the results their Fraction twins give, and
    # never a float
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [ring.parse(rng.choice(_NON_MONIC))]
    gens += [random_polynomial(ring, rng, max_terms=4) for _ in range(rng.randint(0, 2))]
    gens = [g for g in gens if not g.is_zero()]
    twins = [Polynomial(ring, {m: Fraction(c) for m, c in g.terms.items()}, _clean=False)
             for g in gens]
    I, J = Ideal(ring, gens), Ideal(ring, twins)
    assert I.groebner() == J.groebner()
    assert I.key() == J.key() and hash(I) == hash(J)
    assert I.generator_strings() == J.generator_strings()
    made = list(I.groebner())
    for g, twin in zip(gens, twins):
        assert g.monic() == twin.monic() and hash(g.monic()) == hash(twin.monic())
        assert factor_rational(g) == factor_rational(twin)
        made += [g.monic(), twin.monic()] + [f for f, _ in factor_rational(g)]
    coefficients = [c for p in made for c in p.terms.values()]
    assert coefficients and not any(isinstance(c, float) for c in coefficients)
    # what the constructors, `monic` and the factorizer make is an int when
    # integral
    for p in [g.monic() for g in gens] + [f for g in gens for f, _ in factor_rational(g)]:
        assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())


@st.composite
def _packing_case(draw):
    """An order (grevlex or a block order whose lead block is any
    variables, in any order), its packing at the first field width, and
    three exponent vectors, each of total degree at most the field
    capacity."""
    n = draw(st.integers(1, 9))
    lead = st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(tuple)
    key = draw(st.one_of(st.just(grevlex_key), lead.map(block_key)))
    P = ideals._packing(key, n, ideals._WIDTH)
    exps = st.one_of(st.integers(0, 3), st.integers(0, P.cap // n))
    vectors = [tuple(draw(st.lists(exps, min_size=n, max_size=n))) for _ in range(3)]
    return key, P, vectors


def _fits(key, P, exps):
    """Whether every field of the packing holds the exponent vector: each
    block's total degree is at most the capacity."""
    lead = () if key is grevlex_key else key.lead
    rest = [j for j in range(len(exps)) if j not in lead]
    return all(sum(exps[j] for j in b) <= P.cap for b in (lead, rest))


def test_packing_rejects_other_orders():
    # the kernel packs grevlex and the block orders, and no other order
    with pytest.raises(ValueError):
        ideals._packing(lex_key, 2, ideals._WIDTH)


@settings(max_examples=300, deadline=None)
@given(case=_packing_case())
def test_packed_monomials_agree_with_tuples(case):
    key, P, (a, b, c) = case
    pa, pb = P.encode(a), P.encode(b)
    assert P.decode(pa) == a
    assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
    for x, y in ((a, b), (b, a), (a, a), (a, monomial_mul(a, c))):
        if sum(y) <= P.cap:
            q = P.encode(y) - P.encode(x) + P.one
            assert (not q & P.guard) == monomial_divides(x, y)
    product = pa + pb - P.one
    assert (not product & P.guard) == _fits(key, P, monomial_mul(a, b))
    if not product & P.guard:
        assert P.decode(product) == monomial_mul(a, b)


def test_exponents_past_the_field_capacity():
    # x^e does not fit the first field width; the kernel widens its fields
    # and redoes the call (2^64 needs fields wider than 64 bits).
    # (x^e - y, y^2) is already reduced (coprime leading monomials), and
    # x^(2e) = y^2 lies in it.
    ring = PolyRing(("x", "y"))
    assert 70000 > ideals._packing(grevlex_key, 2, ideals._WIDTH).cap
    for e in (70000, 2**64):
        I = Ideal(ring, ["x^%d - y" % e, "y^2"])
        assert [str(g) for g in I.groebner()] == ["y^2", "x^%d - y" % e]
        assert I.leading_monomials() == [(0, 2), (e, 0)]
        assert I.contains(ring.parse("x^%d" % (2 * e)))
        assert not I.contains(ring.parse("x^%d" % (2 * e - 1)))
        assert I.normal_form(ring.parse("x^%d + y" % (e + 1))) == ring.parse("x*y + y")
    # a basis that fits, reducing a polynomial that does not
    small = Ideal(ring, ["x^7 - y", "y^2"])
    assert small.normal_form(ring.parse("x^70000 + x^13")) == ring.parse("x^6*y")
    # every input fits, but: under block_key((0,)) (lex on two variables),
    # reducing x^3 by x - y^30000 reaches y^60000 and y^90000; under
    # block_key((0, 1)), reducing x^2 - y^2*z^10000 by y - z^30000 reaches
    # y*z^40000 below the leading term x^2; under block_key((0,)), the
    # S-polynomial of x*z - y^20000 and y^20000*z - 1 has the term y^40000
    # (x = x*y^20000*z = y^40000)
    basis = buchberger([ring.parse("x - y^30000").terms, ring.parse("x^3").terms], block_key((0,)))
    assert basis == [ring.parse("y^90000").terms, ring.parse("x - y^30000").terms]
    ring = PolyRing(("x", "y", "z"))
    for gens, key, expected in (
        (["y - z^30000", "x^2 - y^2*z^10000"], block_key((0, 1)), ["y - z^30000", "x^2 - z^70000"]),
        (["x*z - y^20000", "y^20000*z - 1"], block_key((0,)), ["y^20000*z - 1", "x - y^40000"]),
    ):
        basis = buchberger([ring.parse(g).terms for g in gens], key)
        assert basis == [ring.parse(g).terms for g in expected]


def test_block_basis_hand_example():
    # hand Buchberger run: {y - x^2, w - y} under block_key((0, 1)), which
    # eliminates w and y: the leading terms are y and w, and w - y
    # reduces to w - x^2
    ring = PolyRing(("w", "y", "x"))
    gens = [ring.parse("y - x^2").terms, ring.parse("w - y").terms]
    basis = {Polynomial(ring, t) for t in buchberger(gens, block_key((0, 1)))}
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


def _spoly_of(f, g):
    fl, fc = f.lead()
    gl, gc = g.lead()
    lcm = monomial_lcm(fl, gl)
    mf = _monomial(f.ring, monomial_div(lcm, fl), Fraction(1, fc))
    mg = _monomial(f.ring, monomial_div(lcm, gl), Fraction(1, gc))
    return mf * f - mg * g


@pytest.mark.parametrize("seed", range(12))
def test_buchberger_completeness_random(seed):
    # every S-polynomial of the returned basis reduces to zero
    rng = random.Random(1000 + seed)
    ring = PolyRing(("x", "y", "z"))
    gens = [random_polynomial(ring, rng) for _ in range(rng.randint(2, 3))]
    I = Ideal(ring, gens)
    basis = I.groebner()
    for i in range(len(basis)):
        for j in range(i):
            s = _spoly_of(basis[i], basis[j])
            assert I.normal_form(s).is_zero()


@pytest.mark.parametrize("seed", range(12))
def test_reduction_idempotent_random(seed):
    rng = random.Random(2000 + seed)
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, [random_polynomial(ring, rng) for _ in range(2)])
    p = random_polynomial(ring, rng, max_degree=3)
    once = I.normal_form(p)
    assert I.normal_form(once) == once


def _divide_with_certificate(p, basis):
    """Test-side division: quotients plus remainder with the identity
    p = sum(q_i * b_i) + r and no remainder term divisible by a lead."""
    work = p
    quotients = [p.ring.zero() for _ in basis]
    remainder = p.ring.zero()
    leads = [b.lead() for b in basis]
    while not work.is_zero():
        m, c = work.lead()
        for i, (lm, lc) in enumerate(leads):
            if monomial_divides(lm, m):
                q = _monomial(p.ring, monomial_div(m, lm), Fraction(c) / lc)
                quotients[i] = quotients[i] + q
                work = work - q * basis[i]
                break
        else:
            mono = _monomial(p.ring, m, c)
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
    # a known combination must be a member, and the certificate must agree
    combo = ring.zero()
    for b in basis:
        combo = combo + random_polynomial(ring, rng, max_degree=1) * b
    quotients, remainder = _divide_with_certificate(combo, basis)
    rebuilt = remainder
    for q, b in zip(quotients, basis):
        rebuilt = rebuilt + q * b
    assert rebuilt == combo
    assert remainder.is_zero() == I.contains(combo)
    # and a generic low-degree polynomial agrees both ways
    probe = random_polynomial(ring, rng, max_degree=2)
    _, r2 = _divide_with_certificate(probe, basis)
    assert r2.is_zero() == I.contains(probe)


# ---------------------------------------------------------------------------
# membership examples


def test_membership_examples():
    ring = PolyRing(("x", "y"), ("w_0", "w_1"))
    assert Ideal(ring, ["y"]).contains(ring.parse("y^2"))
    assert not Ideal(ring, ["w_0", "w_1", "y"]).contains(ring.parse("w_0 - 2*x"))


def test_membership_decodes_nothing(monkeypatch):
    # contains tests the packed remainder for zero: for members and
    # non-members it decodes no term dict, divides no coefficient back and
    # builds no Polynomial; that includes Fraction coefficients and
    # exponents that need fields wider than the first (x^70000) or wider
    # than 64 bits (x^(2^64))
    ring = PolyRing(("x", "y"))
    cases = [  # (generators, members, non-members)
        (["x^2 - 1/2*y", "x*y - 1/3"], ["2*x^3 - x*y", "3/2*x*y - 1/2"], ["x", "x + 1/5*y"]),
        (["x^7 - y", "y^2"], ["x^70000"], ["x^70000 + x^13"]),
    ]
    for e in (70000, 2**64):
        cases.append((["x^%d - y" % e, "y^2"], ["x^%d" % (2 * e), "1/7*x^%d*y" % e],
                      ["x^%d" % (2 * e - 1), "x^%d + 1/2*y" % (e + 1)]))
    ideals_and_probes = []
    for gens, members, others in cases:
        I = Ideal(ring, gens)
        assert not I.is_zero()  # the basis is computed, and decoded, here
        probes = [(ring.parse(p), True) for p in members] + [(ring.parse(p), False) for p in others]
        ideals_and_probes.append((I, probes))

    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ideals._Packing, "decode_terms",
                        spy("decode_terms", ideals._Packing.decode_terms))
    monkeypatch.setattr(ideals, "rational", spy("rational", ideals.rational))
    monkeypatch.setattr(Polynomial, "__init__", spy("Polynomial", Polynomial.__init__))
    for I, probes in ideals_and_probes:
        for p, member in probes:
            assert I.contains(p) is member, (I, p)
    assert calls == []
    monkeypatch.undo()
    # the decoded remainder agrees: zero exactly for the members
    for I, probes in ideals_and_probes:
        for p, member in probes:
            assert I.normal_form(p).is_zero() is member


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


def test_map_poly_rejects_a_dropped_variable():
    ring = PolyRing(("x", "y", "z"))
    with pytest.raises(InternalError):
        map_poly(ring.parse("x*y + z"), PolyRing(("x", "z")))
    # a variable that is dropped but absent from every term maps fine
    assert map_poly(ring.parse("x^2 - z"), PolyRing(("z", "x"))) == PolyRing(("z", "x")).parse("x^2 - z")
    assert map_poly(ring.parse("3*y^4 - 1"), PolyRing(("y",))) == PolyRing(("y",)).parse("3*y^4 - 1")


@pytest.mark.parametrize("seed", range(6))
def test_map_poly_round_trips_through_a_tag_variable(seed):
    rng = random.Random(seed)
    ring = section7_ring() if seed % 2 else PolyRing(("x", "y", "z"))
    p = random_polynomial(ring, rng, max_degree=4, max_terms=5)
    ext, t = ideals._with_tag_var(ring)
    up = map_poly(p, ext)
    assert ext.vars[0] == t and up.terms == {(0,) + m: c for m, c in p.terms.items()}
    assert map_poly(up, ring) == p


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


def test_eliminate_remembers_its_result_by_the_ideal():
    # inside a scope two equal ideals from different generators get the
    # very result object the first call made: one miss, then a hit;
    # outside a scope each call makes its own
    ring = PolyRing(("x", "y", "z"))
    I = Ideal(ring, ["x - y^2", "y*z - 1"])
    J = Ideal(ring, ["x - y^2 + y*z - 1", "y*z - 1"])
    assert I == J and I.gens != J.gens
    with algebra_cache() as cache:
        first = eliminate(I, ["y"])
        assert eliminate(J, ["y"]) is first
        assert (cache.misses["eliminate"], cache.hits["eliminate"]) == (1, 1)
    a, b = eliminate(I, ["y"]), eliminate(J, ["y"])
    assert a == b == first and a is not b


def test_constant_value_on_computes_no_basis_of_its_tag_ideal(monkeypatch):
    # I + (t - f) is eliminated from its generators by the block order
    # alone; the eliminate memo would key it by a grevlex basis made for
    # nothing else
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, ["x - 3", "y^2 - x*y"])
    I.groebner()
    orders = []

    def spy(generators, key, _real=ideals.buchberger):
        orders.append(key)
        return _real(generators, key)

    monkeypatch.setattr(ideals, "buchberger", spy)
    with algebra_cache():
        assert constant_value_on(I, ring.parse("x + 1")) == (True, 4)
    assert orders and all(key is not grevlex_key for key in orders)


def _listed(basis):
    """Each term dict as its (monomial, coefficient) pairs in order."""
    return [list(t.items()) for t in basis]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(3, 4))
def test_eliminating_a_non_prefix_set_keeps_the_block_basis(seed, nvars):
    # the result of eliminating variables that are not the first ones is
    # given the block basis elements free of them as its reduced basis:
    # buchberger's grevlex basis of its generators, listed in the same
    # order, with the identity a fresh ideal on them has; and the result
    # does not depend on the variable order of the source ring
    rng = random.Random(seed)
    names = ("x", "y", "z", "w")[:nvars]
    ring = PolyRing(names)
    I = Ideal(ring, [random_polynomial(ring, rng, max_degree=3) for _ in range(rng.randint(1, 3))])
    drop = rng.sample(names, rng.randint(1, nvars - 1))
    assume(set(drop) != set(names[:len(drop)]))
    out = eliminate(I, drop)
    assert out.ring.vars == tuple(v for v in names if v not in drop)
    assert _listed(out._gb) == _listed(buchberger([g.terms for g in out.gens], grevlex_key))
    assert out.key() == Ideal(out.ring, out.gens).key()
    shuffled = PolyRing(rng.sample(names, nvars))
    again = eliminate(ideals.map_ideal(I, shuffled), drop)
    assert ideals.map_ideal(again, out.ring) == out


def test_elimination_builds_no_ring_and_maps_only_kept_elements(monkeypatch):
    # eliminating x and z from (x, y, z, w) runs the kernel in the ideal's
    # own ring: no ring is made, and map_poly is called once per basis
    # element free of x and z, to move it into the target
    ring = PolyRing(("x", "y", "z", "w"))
    I = Ideal(ring, ["x - y^2", "z - x*w", "z^2 - y*w + 1"])
    target = PolyRing(("y", "w"))
    lead = (0, 2)
    kept = [t for t in buchberger([g.terms for g in I.gens], block_key(lead))
            if not any(m[j] for m in t for j in lead)]
    assert kept
    made, mapped = [], []
    real_init, real_map = PolyRing.__init__, ideals.map_poly

    def spy_init(self, *args, **kwargs):
        made.append(args)
        real_init(self, *args, **kwargs)

    def spy_map(p, into):
        mapped.append((p.ring, p.terms, into))
        return real_map(p, into)

    monkeypatch.setattr(PolyRing, "__init__", spy_init)
    monkeypatch.setattr(ideals, "map_poly", spy_map)
    out = ideals._eliminate_to(I, target)
    monkeypatch.undo()
    assert made == []
    assert mapped == [(ring, t, target) for t in kept]
    assert out == eliminate(I, ["x", "z"]) and out.ring is target
    # a target whose variables are out of the source's order is refused
    with pytest.raises(InternalError):
        ideals._eliminate_to(I, PolyRing(("w", "y")))


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


def test_saturate_ideal_by_the_unit_ideal_is_the_identity():
    # a constant generator makes J the unit ideal, and I : (1)^infinity = I
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, ["x*y"])
    assert saturate_ideal(I, Ideal(ring, ["1", "x"])) == I
    assert saturate_ideal(I, Ideal(ring, ["x", "y"])) == I


def _colon_by_division(I, g):
    """I : (g) from I intersected with (g), each generator divided by g with
    sympy; independent of the tag-variable elimination under test."""
    quotients = []
    for h in intersect(I, Ideal(I.ring, [g])).gens:
        q, r = sympy.div(_to_sympy(h), _to_sympy(g))
        assert r.is_zero
        quotients.append(_from_sympy(I.ring, q))
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


def _tuple_standard_count(lms, n):
    """The staircase walk on exponent tuples, as reference."""
    origin = (0,) * n
    seen, stack, count = {origin}, [origin], 0
    while stack:
        m = stack.pop()
        count += 1
        for i in range(n):
            mm = m[:i] + (m[i] + 1,) + m[i + 1:]
            if mm not in seen and not any(monomial_divides(lm, mm) for lm in lms):
                seen.add(mm)
                stack.append(mm)
    return count


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(0, 4))
def test_packed_staircase_count_matches_the_tuple_walk(seed, n):
    rng = random.Random(seed)
    top = rng.choice((1, 3, 7, 8, 15, 16))
    # a pure power of each variable keeps the staircase finite
    lms = [tuple(rng.randint(1, top) if j == i else 0 for j in range(n)) for i in range(n)]
    lms += [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(0, 4))]
    lms = [lm for lm in lms if any(lm)]
    assert ideals._standard_count(lms, n) == _tuple_standard_count(lms, n)


def test_packed_staircase_count_past_fifteen_bits():
    big = 2**15 + 3
    for lms, n in (([(big,)], 1), ([(big, 0), (0, 2), (5, 1)], 2)):
        assert ideals._standard_count(lms, n) == _tuple_standard_count(lms, n)
    assert ideals._standard_count([(big, 0), (0, 2), (5, 1)], 2) == big + 5


def _sympy_standard_monomials(gens):
    """Number of monomials outside sympy's grevlex leading-monomial ideal,
    or None when that number is infinite."""
    ring = gens[0].ring
    G = sympy.groebner([_to_sympy(g) for g in gens], *sympy.symbols(ring.vars), order="grevlex")
    lms = [q.LM(order="grevlex").exponents for q in G.polys]
    bounds = []
    for i in range(ring.nvars):
        pure = [m[i] for m in lms if sum(m) == m[i] > 0]
        if not pure and any(sum(m) for m in lms):
            return None
        bounds.append(min(pure) if pure else 1)
    return sum(
        1
        for m in itertools.product(*(range(b) for b in bounds))
        if not any(monomial_divides(lm, m) for lm in lms)
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_quotient_dimension_matches_sympy_standard_monomials(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [
        random_polynomial(ring, rng, max_degree=3, max_terms=3) for _ in range(nvars)
    ]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    assert quotient_dimension(Ideal(ring, gens)) == _sympy_standard_monomials(gens)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_degree_of_a_hypersurface_is_its_total_degree(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    f = random_polynomial(ring, rng, max_degree=4, max_terms=4)
    assume(f.total_degree() > 0)
    assert degree(Ideal(ring, [f])) == f.total_degree()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_degree_of_a_finite_locus_is_the_quotient_dimension(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [
        random_polynomial(ring, rng, max_degree=3, max_terms=3) for _ in range(nvars)
    ]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    I = Ideal(ring, gens)
    assume(I.dimension() == 0)
    assert degree(I) == quotient_dimension(I) == _sympy_standard_monomials(gens)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    sizes=st.tuples(st.integers(1, 2), st.integers(1, 2)),
)
def test_degrees_multiply_over_disjoint_variable_blocks(seed, sizes):
    # V(I + J) is V(I) x V(J) when I and J use disjoint variables
    rng = random.Random(seed)
    names = ("x", "y", "z", "u")
    ring = PolyRing(names[:sizes[0]] + names[2:2 + sizes[1]])
    blocks = [PolyRing(names[:sizes[0]]), PolyRing(names[2:2 + sizes[1]])]
    parts = []
    for block in blocks:
        gens = [
            map_poly(random_polynomial(block, rng, max_degree=3, max_terms=3), ring)
            for _ in range(rng.randint(1, len(block.vars)))
        ]
        parts.append(Ideal(ring, gens))
    assume(not any(J.is_unit() for J in parts))
    I, J = parts
    assert degree(I.plus(J.gens)) == degree(I) * degree(J)


def _sympy_krull_dimension(gens):
    """The largest |S| for a variable subset S with I meeting Q[S] only in
    0, each intersection read off a sympy lex basis that puts the other
    variables first; -1 when no subset qualifies (the unit ideal)."""
    ring = gens[0].ring
    best = -1
    for size in range(ring.nvars + 1):
        for S in itertools.combinations(ring.vars, size):
            order = [v for v in ring.vars if v not in S] + list(S)
            G = sympy.groebner([_to_sympy(g) for g in gens], *sympy.symbols(order), order="lex")
            outside = sympy.symbols([v for v in ring.vars if v not in S])
            if all(q.free_symbols & set(outside) for q in G.exprs):
                best = size
    return best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_krull_dimension_matches_sympy_elimination(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    gens = [random_polynomial(ring, rng) for _ in range(rng.randint(1, nvars))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    assert krull_dimension(Ideal(ring, gens)) == _sympy_krull_dimension(gens)


@st.composite
def _monomial_ideal(draw):
    """A monomial ideal in 4 to 9 variables with its generators' exponent
    vectors; its reduced basis is its minimal generators.  No generators
    give the zero ideal, an empty support the unit ideal."""
    n = draw(st.integers(4, 9))
    supports = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), max_size=3)
    exps = [tuple(s.get(i, 0) for i in range(n)) for s in draw(st.lists(supports, max_size=8))]
    ring = PolyRing(tuple("abcdefghk"[:n]))
    return Ideal(ring, [_monomial(ring, e, 1) for e in exps]), exps


def _monomial_dimension(n, exps):
    """The largest number of variables that contain no generator's
    support; -1 when none qualifies (a generator is 1)."""
    supports = [{i for i, e in enumerate(m) if e} for m in exps]
    return max(
        (k for k in range(n + 1) for S in itertools.combinations(range(n), k)
         if not any(s <= set(S) for s in supports)),
        default=-1,
    )


def _combinations_degree(ideal, d):
    """The scan of every set of d variables for the free ones, as
    reference for the enumeration of the largest free sets."""
    if d < 0:
        return 0
    lms = ideal.leading_monomials()
    n = ideal.ring.nvars
    supports = [sum(1 << i for i, e in enumerate(lm) if e) for lm in lms]
    total = 0
    for free in itertools.combinations(range(n), d):
        mask = sum(1 << i for i in free)
        if any(not s & ~mask for s in supports):
            continue
        rest = [i for i in range(n) if not mask >> i & 1]
        total += ideals._standard_count([tuple(lm[i] for i in rest) for lm in lms], len(rest))
    return total


@settings(max_examples=150, deadline=None)
@given(case=_monomial_ideal())
def test_free_set_enumeration_matches_the_combinations_scan(case):
    I, exps = case
    d = _monomial_dimension(I.ring.nvars, exps)
    assert krull_dimension(I) == d
    assert degree(I) == _combinations_degree(I, d)


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


@pytest.mark.parametrize(
    "gens, certified",
    [
        # (x - y)(x + y) lies in the ideal and neither factor does
        (["x^2 - 2", "y^2 - 2"], False),
        # the y-eliminant y^6 - 2 is irreducible of degree dim_Q ring/I = 6
        (["x^3 - 2", "y^2 - x"], True),
    ],
)
def test_zero_dimensional_certification(gens, certified):
    ring = PolyRing(("x", "y"))
    (comp,) = split_components(Ideal(ring, gens))
    assert comp.ideal == Ideal(ring, gens)
    assert comp.certified is certified


ITEM_4 = (
    "ROADMAP item 4: the zero-dimensional rule factors only basis elements "
    "and univariate eliminants, so split_components returns the ideal as one "
    "uncertified component"
)


@pytest.mark.parametrize("gens, primes", [
    pytest.param(["x^2 - 2", "y^2 - 2"], [["x - y", "x^2 - 2"], ["x + y", "x^2 - 2"]],
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4)),
    pytest.param(["x^2 - 2", "y^2 - 3"], [["x^2 - 2", "y^2 - 3"]],
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_4)),
])
def test_zero_dimensional_ideal_splits_into_certified_primes(gens, primes):
    ring = PolyRing(("x", "y"))
    comps = split_components(Ideal(ring, gens))
    assert {c.ideal for c in comps} == {Ideal(ring, p) for p in primes}
    assert all(c.certified for c in comps)


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


def _irrational_points_ideal(rng, ring):
    """Generators (v_i^2 - a_i) * (v_{i+1} - b_i), some without their
    linear factor: mostly finite loci whose points need square roots."""
    gens = []
    for i, v in enumerate(ring.vars):
        g = ring.parse("%s^2 - %d" % (v, rng.choice((-1, 2, 3, 4, 5))))
        if rng.random() < 0.6:
            w = ring.vars[(i + 1) % ring.nvars]
            g = g * ring.parse("%s - %d" % (w, rng.randint(-2, 2)))
        gens.append(g)
    return gens


def _split_input(seed, nvars, irrational):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    if irrational:
        gens = _irrational_points_ideal(rng, ring)
    else:
        gens = [random_polynomial(ring, rng) for _ in range(rng.randint(1, nvars))]
    I = Ideal(ring, gens)
    assume(not I.is_unit() and not I.is_zero())
    return I


SPLIT_INPUTS = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    nvars=st.integers(2, 3),
    irrational=st.booleans(),
)


@settings(max_examples=30, deadline=None)
@given(**SPLIT_INPUTS)
def test_split_components_cover_and_incomparable(seed, nvars, irrational):
    I = _split_input(seed, nvars, irrational)
    comps = split_components(I)
    assert comps
    assert decomposition_covers(I, comps)
    for c in comps:
        others = [d.ideal for d in comps if d is not c]
        assert not any(c.ideal.contains_ideal(d) for d in others)
        assert c.certified or not _covered(c.ideal, others)


def _covered(J, others):
    """Whether V(J) lies in the union of the V(K), K in others: the
    intersection of the others lies in the radical of J."""
    return bool(others) and all(
        radical_member(g, J) for g in reduce(intersect, others).gens
    )


def _two_pass_split(I):
    """Reference: every branch that will not split is a leaf, found after
    trying all basis elements and eliminants, and the maximal leaves are
    certified in a second walk over the same eliminants."""

    def eliminant_bases(J):
        ring = J.ring
        for name in ring.vars:
            E = eliminate(J, [v for v in ring.vars if v != name])
            yield [map_poly(g, ring) for g in E.groebner()]

    def certify(J):
        gb = J.groebner()
        nonlinear = [g for g in gb if g.total_degree() > 1]
        if not nonlinear or (len(nonlinear) == 1 and is_irreducible(nonlinear[0])):
            return True
        if J.dimension() == 0:
            n = quotient_dimension(J)
            return any(
                p.total_degree() == n and is_irreducible(p)
                for basis in eliminant_bases(J)
                for p in basis
            )
        return False

    found = {}
    work = [I]
    while work:
        J = work.pop()
        if J.is_unit():
            continue
        candidates = itertools.chain(
            J.groebner(), (g for basis in eliminant_bases(J) for g in basis)
        )
        branches = next(
            filter(None, (ideals._branch_on_element(J, g) for g in candidates)), None
        )
        if branches:
            work.extend(branches)
        else:
            found.setdefault(J.key(), J)
    kept = [(J, certify(J)) for J in ideals.maximal_loci(found.values())]
    for J, certified in list(kept):
        if not certified and _covered(J, [K for K, _ in kept if K is not J]):
            kept.remove((J, certified))
    return kept


@settings(max_examples=30, deadline=None)
@given(**SPLIT_INPUTS)
def test_one_scan_split_matches_two_pass_reference(seed, nvars, irrational):
    I = _split_input(seed, nvars, irrational)
    got = [(c.ideal, c.certified) for c in split_components(I)]
    assert got == _two_pass_split(I)


@pytest.mark.parametrize(
    "gens",
    [
        ["x - 2*y", "z + w_0", "w_1", "w_2"],
        ["x - y - 1", "w_0 - x", "w_1", "w_2"],
        ["x - 2*y", "z^3 - y*z + 1", "w_0", "w_1", "w_2"],
    ],
)
def test_certified_basis_splits_without_eliminants(monkeypatch, gens):
    ring = PolyRing(("x", "y", "z"), ("w_0", "w_1", "w_2"))
    calls = []
    real = ideals.eliminate
    monkeypatch.setattr(
        ideals, "eliminate", lambda *args: calls.append(args) or real(*args)
    )
    I = Ideal(ring, gens)
    assert [(c.ideal, c.certified) for c in split_components(I)] == [(I, True)]
    assert calls == []


def test_split_drops_an_uncertified_component_the_others_cover():
    # the conormal of the node y^2 = x^2 cut by w_0 + 4*y^2 + 2: the
    # non-prime V(w_0, w_1, x^2 + 1/2, y^2 + 1/2), two points on each
    # branch, is a branch of the scan but lies in the two branch components
    ring = PolyRing(("x", "y"), ("w_0", "w_1"))
    I = Ideal(ring, ["w_0^2 - w_1^2", "y*w_0 + x*w_1", "x*w_0 + y*w_1",
                     "x^2 - y^2", "w_0 + 4*y^2 + 2"])
    comps = split_components(I)
    assert [(c.ideal, c.certified) for c in comps] == [
        (Ideal(ring, ["w_0 - w_1", "x + y", "y^2 + 1/4*w_1 + 1/2"]), True),
        (Ideal(ring, ["w_0 + w_1", "x - y", "y^2 - 1/4*w_1 + 1/2"]), True),
    ]
    assert decomposition_covers(I, comps)


def test_split_rejects_unit():
    ring = PolyRing(("x",))
    with pytest.raises(ValueError):
        split_components(Ideal(ring, ["1"]))


def test_irreducibility_bridge():
    ring = PolyRing(("x", "y"))
    assert is_irreducible(ring.parse("x^2 + y^2"))
    assert not is_irreducible(ring.parse("x^2 - y^2"))


def _sympy_factors(p):
    """factor_rational's contract computed by sympy's factor_list alone."""
    _, factors = _to_sympy(p).factor_list()
    out = [(_from_sympy(p.ring, f).monic(), e) for f, e in factors]
    return sorted(((f, e) for f, e in out if not f.is_constant()),
                  key=lambda fe: fe[0].canonical())


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.fractions(-20, 20, max_denominator=7), min_size=3, max_size=3),
    constant=st.fractions(-20, 20, max_denominator=7),
)
def test_linear_factor_fast_path_matches_sympy(coeffs, constant):
    ring = PolyRing(("x", "y", "z"))
    assume(any(coeffs))
    p = ring.linear_form(coeffs, constant)
    assert factor_rational(p) == _sympy_factors(p) == [(p.monic(), 1)]


def _random_product(rng, ring, variables, max_factor_degree, max_degree):
    """A rational multiple of a product of random factors in `variables`,
    with multiplicities, of total degree at most `max_degree`."""
    p = ring.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)))
    degree = 0
    for _ in range(rng.randint(1, 4)):
        d, e = rng.randint(1, max_factor_degree), rng.randint(1, 3)
        if degree + d * e > max_degree:
            continue
        lead = [0] * ring.nvars
        lead[rng.choice(variables)] = d
        terms = {tuple(lead): Fraction(rng.randint(1, 6), rng.randint(1, 4))}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * ring.nvars
            for _ in range(rng.randint(0, d)):
                exps[rng.choice(variables)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        f = Polynomial(ring, terms)
        p = p * f ** e
        degree += f.total_degree() * e
    return p


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(1, 4))
def test_factor_rational_matches_sympy_on_products(seed, nvars):
    # univariate up to degree 12, in two to four variables up to degree 8
    rng = random.Random(seed)
    ring = PolyRing(("u", "x", "y", "z"))
    variables = rng.sample(range(ring.nvars), nvars)
    bounds = (4, 12) if nvars == 1 else (3, 8)
    p = _random_product(rng, ring, variables, *bounds)
    assume(not p.is_constant())
    assert factor_rational(p) == _sympy_factors(p)


@pytest.mark.parametrize("text", [
    "x^48 - 1",
    "x^60 - 1",
    # Swinnerton-Dyer polynomials of sqrt2 + sqrt3 and sqrt2 + sqrt3 + sqrt5:
    # irreducible, yet they split modulo every prime
    "x^4 - 10*x^2 + 1",
    "x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576",
    "x^4 + 1",
    "u^3 + x^3",
    "x^2*y*(x + y)^3*(x*y - 1)^2",
    "(2/3*u^2 - 1/2*x*y)*(3/5*x*z + 7)^2*(1/4*y - 2/9)",
    "6*x^6 + 5*x^5 - 37*x^4 - 25*x^3 + 41*x^2 + 20*x - 12",
    "(x^2 - 2)^3*(x^2 + x + 1)*x^2",
    "(u + x + y + z)*(u*x - y*z + 1)*(u^2 + y^2 - 3)",
])
def test_factor_rational_matches_sympy_on_hard_inputs(text):
    p = PolyRing(("u", "x", "y", "z")).parse(text)
    assert factor_rational(p) == _sympy_factors(p)


def _random_ideal(rng, ring):
    return Ideal(ring, [random_polynomial(ring, rng) for _ in range(rng.randint(1, 3))])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(2, 3))
def test_cached_results_equal_uncached(seed, nvars):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z")[:nvars])
    I = _random_ideal(rng, ring)
    p = random_polynomial(ring, rng, max_degree=3) * random_polynomial(ring, rng)
    terms = [g.terms for g in I.gens]
    key = block_key((0,))

    def components(J):
        return [(c.ideal.key(), c.certified) for c in split_components(J)]

    basis = buchberger(terms, key)
    factors = factor_rational(p)
    comps = None if I.is_unit() else components(I)
    with algebra_cache() as cache:
        for _ in range(2):  # a miss, then a hit
            assert buchberger(terms, key) == basis
            assert buchberger(list(reversed(terms)) + terms, key) == basis
            assert factor_rational(p) == factors
            if comps is not None:
                assert components(Ideal(ring, list(I.groebner()))) == comps
        assert cache.hits["buchberger"] >= 3
    assert ideals._CACHE.get() is None


def test_cache_hits_are_fresh_copies():
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, ["x^2 - y^2", "x*y - y"])
    p = ring.parse("x^2 - y^2")
    terms = [g.terms for g in I.gens]
    with algebra_cache():
        basis = buchberger(terms, grevlex_key)
        expected = [dict(t) for t in basis]
        basis[0].clear()
        basis.append({})
        assert buchberger(terms, grevlex_key) == expected
        comps = split_components(I)
        expected = [(c.ideal, c.certified) for c in comps]
        comps[0].certified = not comps[0].certified
        comps.pop()
        assert [(c.ideal, c.certified) for c in split_components(I)] == expected
        factors = factor_rational(p)
        expected = list(factors)
        factors.clear()
        assert factor_rational(p) == expected


def test_algebra_cache_counts_reduced_spairs():
    # (x^2 - y, x*y - z): the pair of the two generators gives y^2 - x*z;
    # of its pairs, the one with x^2 is coprime and the one with x*y
    # reduces to zero.  A cache hit reduces nothing.
    ring = PolyRing(("x", "y", "z"))
    gens = [ring.parse("x^2 - y").terms, ring.parse("x*y - z").terms]
    with algebra_cache() as cache:
        for _ in range(2):
            buchberger(gens, grevlex_key)
            assert (cache.spairs, cache.zero_reductions) == (2, 1)
        assert cache.summary().endswith("; S-pairs 2 reduced, 1 to zero")


def test_algebra_cache_scope_nests_and_ends():
    assert ideals._CACHE.get() is None
    with algebra_cache() as outer:
        with algebra_cache() as inner:
            assert inner is outer
        assert ideals._CACHE.get() is outer
    assert ideals._CACHE.get() is None


def test_groebner_basis_order_argument():
    ring = PolyRing(("x", "y"))
    gens = [ring.parse("x^2 - y").terms, ring.parse("y^2 - x").terms]
    # the block order with x alone in the lead block (lex with x > y)
    # eliminates x in one basis element: y^4 - y
    basis = [Polynomial(ring, t) for t in buchberger(gens, block_key((0,)))]
    assert ring.parse("y^4 - y") in basis


# ---------------------------------------------------------------------------
# linear ideals


def _linear_generators(ring, rng):
    """Sparse linear forms with Fraction coefficients, some with a
    constant term; combinations of earlier ones; zero generators; now and
    then a nonzero constant, which makes the unit ideal."""
    n = ring.nvars

    def coefficient(share):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < share else 0

    gens = [ring.linear_form([coefficient(0.6) for _ in range(n)], coefficient(0.4))
            for _ in range(rng.randint(1, n + 1))]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(gens), rng.choice(gens)
        gens.append(a * Fraction(rng.randint(-3, 3), rng.randint(1, 3)) + b * rng.randint(-2, 2))
    if rng.random() < 0.15:
        gens.append(ring.const(Fraction(rng.randint(1, 5), rng.randint(1, 5))))
    gens += [ring.zero()] * rng.randint(0, 2)
    rng.shuffle(gens)
    return gens


def _general_kernel(generators, key, n):
    """The packed Buchberger kernel's basis, as `ideals._buchberger` runs
    it on nonlinear input."""
    return ideals._in_fields(key, n, lambda P: [
        P.decode_terms(t)
        for t in ideals._packed_buchberger([P.encode_terms(g) for g in generators], P)
    ])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(1, 6))
def test_linear_bases_match_the_general_kernel_and_sympy(seed, nvars):
    # generators of degree at most 1 are row-reduced: under grevlex and a
    # block order on random lead positions the basis is the packed
    # kernel's item for item, dict order included, and made monic it is
    # sympy's reduced basis
    rng = random.Random(seed)
    ring = PolyRing(tuple("x_%d" % i for i in range(nvars)))
    gens = _linear_generators(ring, rng)
    polys = [g for g in gens if not g.is_zero()]
    assume(polys)
    terms = [_integral(g.terms) for g in gens]
    nonzero = [t for t in terms if t]
    lead = tuple(rng.sample(range(nvars), rng.randint(1, nvars)))
    rest = tuple(j for j in range(nvars) if j not in lead)
    block = ProductOrder((sympy_grevlex, lambda m: tuple(m[j] for j in lead)),
                         (sympy_grevlex, lambda m: tuple(m[j] for j in rest)))
    for key, order in ((grevlex_key, "grevlex"), (block_key(lead), block)):
        assert ideals._linear_basis(nonzero, key) is not None
        ours = buchberger(terms, key)
        assert [list(t.items()) for t in ours] == [
            list(t.items()) for t in _general_kernel(nonzero, key, nvars)]
        monic = [_monic(Polynomial(ring, t), key) for t in ours]
        assert _term_sets(monic) == _term_sets(_sympy_basis(polys, order, key))


def test_linear_bases_count_coefficient_bits_and_no_spairs():
    # the row reduction records what the kernel's --timing line reports:
    # the largest coefficient of the basis, and no S-pair
    ring = PolyRing(("x", "y", "z"))
    gens = [ring.parse(g).terms for g in ("3*x + 5*y - 7", "2*x - y + 11*z")]
    with algebra_cache() as cache:
        basis = buchberger(gens, grevlex_key)
        top = max(abs(c) for t in basis for c in t.values())
        assert (cache.spairs, cache.zero_reductions, cache.coeff_bits) == (0, 0, top.bit_length())
    assert ideals._linear_basis([ring.parse("x^2 + y").terms], grevlex_key) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), nvars=st.integers(1, 4))
def test_linear_shortcuts_match_the_general_routes(seed, nvars):
    # on a linear ideal, split_components, dimension() and radical_member
    # agree with the scan of _split, krull_dimension and the Rabinowitsch
    # test
    rng = random.Random(seed)
    ring = PolyRing(tuple("x_%d" % i for i in range(nvars)))
    I = Ideal(ring, _linear_generators(ring, rng))
    assert I.is_linear()
    assert I.dimension() == krull_dimension(I)
    probes = [random_polynomial(ring, rng, max_degree=2, max_terms=3) for _ in range(3)]
    probes += [g * random_polynomial(ring, rng) for g in I.gens[:2]] + [ring.zero()]
    for g in probes:
        assert radical_member(g, I) == (g.is_zero() or ideals._rabinowitsch(I, g)[0].is_unit())
    if not I.is_unit():
        assert [(c.ideal, c.certified) for c in split_components(I)] == [
            (c.ideal, c.certified) for c in ideals._split(I)]


def test_radical_member_makes_no_basis_to_decide_linearity(monkeypatch):
    # nonlinear generators with no basis made take the Rabinowitsch test
    # and leave the ideal without a basis; an ideal whose basis is made
    # and linear is tested by membership alone
    ring = PolyRing(("x", "y"))
    I = Ideal(ring, ["x^2 - y", "x*y"])
    assert radical_member("y", I) and not radical_member("x + 1", I)
    assert I._gb is None
    J = Ideal(ring, ["x^2 + x", "x - y^3 + y^3"])
    assert J.is_linear() and J.groebner() == (ring.parse("x"),)
    monkeypatch.setattr(ideals, "_rabinowitsch", None)
    assert radical_member("x*y", J) and not radical_member("y", J)

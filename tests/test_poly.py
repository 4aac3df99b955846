"""Polynomial arithmetic, parsing, and monomial orders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levo import ideals
from levo.cli import parse_config
from levo.errors import PolynomialParseError, RingMismatchError
from levo.ideals import Ideal, eliminate, map_poly
from levo.poly import PolyRing, Polynomial, block_key, grevlex_key


@pytest.fixture
def ring():
    return PolyRing(("x", "y", "z"))


def test_parse_roundtrip(ring):
    p = ring.parse("3*x^2*y - 1/2*z + 4")
    assert str(p) == "3*x^2*y - 1/2*z + 4"
    assert ring.parse(str(p)) == p


def test_parse_precedence(ring):
    # '^' binds tighter than '*'
    assert ring.parse("2*x^3") == 2 * ring.var("x") ** 3
    assert ring.parse("(2*x)^3") == 8 * ring.var("x") ** 3
    assert ring.parse("-x^2") == -(ring.var("x") ** 2)


def test_parse_unicode_minus(ring):
    assert ring.parse("x − y") == ring.var("x") - ring.var("y")


def test_parse_rational_literal(ring):
    assert ring.parse("3/2").constant_value() == Fraction(3, 2)


def test_parse_rejects_garbage(ring):
    with pytest.raises(PolynomialParseError):
        ring.parse("x + ")
    with pytest.raises(PolynomialParseError):
        ring.parse("x ** 2")
    with pytest.raises(PolynomialParseError):
        ring.parse("q + 1")


def test_arithmetic_basics(ring):
    x, y = ring.var("x"), ring.var("y")
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (x - x).is_zero()


def test_ring_mismatch_raises(ring):
    other = PolyRing(("x", "y"))
    with pytest.raises(RingMismatchError):
        ring.var("x") + other.var("x")


def test_diff():
    ring = PolyRing(("x", "y"))
    f = ring.parse("x^2 + y^3")
    assert f.diff("y") == ring.parse("3*y^2")
    assert ring.parse("5").diff("x").is_zero()


def test_diff_matches_power_rule():
    # d/du (u^a + x^b)^t = t*a*(u^a + x^b)^(t-1) * u^(a-1)
    ring = PolyRing(("u", "x"))
    a, b, t = 2, 3, 2
    f = ring.parse("(u^%d + x^%d)^%d" % (a, b, t))
    expected = (
        ring.const(t * a)
        * ring.parse("(u^%d + x^%d)" % (a, b)) ** (t - 1)
        * ring.var("u") ** (a - 1)
    )
    assert f.diff("u") == expected


def test_subs_composition(ring):
    p = ring.parse("x^2 + y")
    q = p.subs({"x": ring.parse("y + 1"), "y": ring.parse("z")})
    assert q == ring.parse("(y+1)^2 + z")


def test_subs_constants_and_unknown_names(ring):
    p = ring.parse("x^2*y + z")
    assert p.subs({"x": 2, "y": Fraction(1, 2)}) == ring.parse("2 + z")
    assert p.subs({"y": 0}) == ring.var("z")
    with pytest.raises(KeyError):
        p.subs({"q": 1})


def test_eval_point(ring):
    p = ring.parse("x*y - z")
    assert p.eval_point((2, 3, 5)) == 1


def test_eval_point_needs_one_coordinate_per_variable(ring):
    with pytest.raises(ValueError):
        ring.parse("z").eval_point((1, 2))
    with pytest.raises(ValueError):
        ring.parse("x").eval_point((1, 2, 3, 4))


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def polynomials_and_points(draw):
    ring = PolyRing(("x", "y", "z", "u")[: draw(st.integers(1, 4))])
    exponents = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    terms = draw(st.dictionaries(exponents, RATIONALS, max_size=6))
    return Polynomial(ring, terms), draw(st.tuples(*[RATIONALS] * ring.nvars))


@settings(max_examples=100, deadline=None)
@given(polynomials_and_points())
def test_eval_point_agrees_with_substitution(case):
    p, point = case
    assert p.eval_point(point) == p.subs(dict(zip(p.ring.vars, point))).constant_value()


def test_grevlex_order():
    # in three variables x > y > z: x^2*y > x*z^2 (rightmost smaller wins)
    assert grevlex_key((2, 1, 0)) > grevlex_key((1, 0, 2))
    # degree dominates
    assert grevlex_key((0, 0, 3)) > grevlex_key((1, 1, 0))


def test_block_order_separates():
    # any monomial touching the lead block beats any that does not, for a
    # lead block of any positions; each block is grevlex in ring order
    key = block_key((0,))
    assert key((1, 0, 0)) > key((0, 7, 7))
    key = block_key((0, 2))
    assert key.lead == (0, 2)
    assert key((0, 0, 1)) > key((0, 9, 0)) and key((1, 0, 0)) > key((0, 0, 1))
    assert key((2, 5, 0)) > key((2, 0, 0)) > key((1, 0, 1)) > key((1, 9, 0))


def test_lead_and_monic():
    ring = PolyRing(("x", "y"))
    p = ring.parse("2*x^2 + y")
    m, c = p.lead()
    assert m == (2, 0) and c == 2
    assert p.monic() == ring.parse("x^2 + 1/2*y")


def test_canonical_equality_and_hash():
    ring = PolyRing(("x", "y"))
    p = ring.parse("x + y")
    q = ring.parse("y + x")
    assert p == q and hash(p) == hash(q)


def test_one_ring_per_variable_list():
    ring = PolyRing(["x", "y"], ["w_0", "w_1"])
    assert ring is PolyRing(("x", "y"), ("w_0", "w_1"))
    assert ring.base_ring() is PolyRing(ring.base_vars)
    image = eliminate(Ideal(ring, ["w_0 - x", "w_1 - y^2", "x*y"]), ring.cotangent_vars)
    assert image.ring is ring.base_ring()
    assert ideals._with_tag_var(ring)[0] is ideals._with_tag_var(ring)[0]
    doc = {
        "variables": ["x", "y"],
        "sheaf": {"strata": [{"closure": [], "morse": {"2": {"rank": 1, "torsion": []}}}]},
        "function": "x^2 + y^3",
        "point": [0, 0],
    }
    assert parse_config(doc).ring is ring


@pytest.mark.parametrize("base, cotangent", [
    (("x", "y"), ("w_0",)),  # an unpaired cotangent block
    (("x", "x"), ()),  # a repeated name
    (("x", "y"), ("w_0", "x")),  # a cotangent name repeats a base name
])
def test_a_rejected_variable_list_is_never_entered(base, cotangent):
    before = dict(PolyRing._rings)
    for _ in range(2):
        with pytest.raises(ValueError):
            PolyRing(base, cotangent)
    assert PolyRing._rings == before


def test_a_shared_variable_polynomial_is_never_written_into():
    ring, other = PolyRing(("x", "y")), PolyRing(("x", "y", "z"))
    x = ring.var("x")
    assert x is ring.var("x")
    I = Ideal(ring, [x])
    # every use of the shared polynomial leaves its terms as they were
    uses = [x + 1, 2 * x, x * 1, x ** 3, x ** 1, x.diff("x"), x.subs({"y": 2}),
            x.subs({"x": ring.var("y")}), I.groebner(), I.contains(x),
            I.normal_form(ring.var("y") + x), map_poly(x, other)]
    assert uses and x.terms == {(1, 0): 1}

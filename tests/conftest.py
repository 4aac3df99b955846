"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from levo import ideals
from levo.abgroups import AbGroup, Z
from levo.gecc import SheafSpec, StratumSpec
from levo.ideals import Ideal, quotient_dimension, saturate, split_components
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

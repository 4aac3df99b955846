"""Enriched cycle algebra: sums, scaling, order, grading."""

import random

import pytest

from conftest import random_group
from levo.abgroups import Z, Zmod
from levo.cycles import EnrichedCycle, GradedEnrichedCycle, empty_cycle
from levo.errors import RingMismatchError
from levo.ideals import Ideal
from levo.poly import PolyRing


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def line(ring, name):
    return Ideal(ring, [name])


def test_add_merges_components(ring):
    vx, vy = line(ring, "x"), line(ring, "y")
    a = EnrichedCycle(ring, {vx: Z(1)})
    b = EnrichedCycle(ring, {vx: Z(1)})
    assert (a + b).coefficient(vx) == Z(2)
    c = EnrichedCycle(ring, {vy: Z(1)})
    merged = a + c
    assert set(merged.support()) == {vx, vy}
    assert (a + empty_cycle(ring)) == a


def test_zero_coefficients_dropped(ring):
    assert EnrichedCycle(ring, {line(ring, "x"): Z(0)}).is_zero()


def test_scale(ring):
    vx = line(ring, "x")
    e = EnrichedCycle(ring, {vx: Z(2)})
    assert e.scale(Zmod(2)).coefficient(vx) == Zmod(2, 2)
    assert e.scale(Z(2)).coefficient(vx) == Z(4)


@pytest.mark.parametrize("seed", range(8))
def test_ord_of_scaled_cycle(seed):
    # ranks of q (x) E scale the ordinary cycle by rank(q)
    rng = random.Random(40 + seed)
    ring = PolyRing(("x", "y"))
    comps = {line(ring, "x"): random_group(rng), line(ring, "y"): random_group(rng)}
    e = EnrichedCycle(ring, comps)
    q = random_group(rng)
    scaled = e.scale(q).ord()
    for ideal, nv in e.ord().items():
        assert scaled.get(ideal, 0) == q.rank * nv


def test_partial_order(ring):
    vx = line(ring, "x")
    small = EnrichedCycle(ring, {vx: Z(1)})
    big = EnrichedCycle(ring, {vx: Z(2)})
    assert small.le(big) and not big.le(small)
    assert not EnrichedCycle(ring, {vx: Zmod(4)}).le(EnrichedCycle(ring, {vx: Zmod(2)}))


@pytest.mark.parametrize("seed", range(10))
def test_partial_order_axioms_random(seed):
    rng = random.Random(60 + seed)
    ring = PolyRing(("x", "y"))
    names = ["x", "y", "x - y"]

    def rand_cycle():
        comps = {}
        for name in names:
            if rng.random() < 0.7:
                g = random_group(rng)
                if not g.is_zero():
                    comps[line(ring, name)] = g
        return EnrichedCycle(ring, comps)

    a, b, c = rand_cycle(), rand_cycle(), rand_cycle()
    assert a.le(a)
    if a.le(b) and b.le(c):
        assert a.le(c)
    if a.le(b) and b.le(a):
        assert a == b
    # existence direction: sums dominate their parts
    assert a.le(a + b)


def test_ring_mismatch(ring):
    other = PolyRing(("s", "t"))
    with pytest.raises(RingMismatchError):
        EnrichedCycle(ring, {line(ring, "x"): Z(1)}).add(
            EnrichedCycle(other, {Ideal(other, ["s"]): Z(1)})
        )


def test_graded_shift_and_ord(ring):
    vx = line(ring, "x")
    g = GradedEnrichedCycle(ring, {1: EnrichedCycle(ring, {vx: Z(1)})})
    assert g.ord() == {vx: -1}
    assert g.shift(0) == g
    assert g.shift(2).shift(-2) == g
    assert g.shift(1).piece(0).coefficient(vx) == Z(1)


def test_graded_purity_closed_under_operations(ring):
    vx = line(ring, "x")
    pure = GradedEnrichedCycle(ring, {0: EnrichedCycle(ring, {vx: Z(1)})})
    assert pure.concentrated_in(0)
    assert (pure + pure).concentrated_in(0)
    assert pure.scale(Zmod(3)).concentrated_in(0)
    assert pure.shift(0).concentrated_in(0)


def test_serialization(ring):
    vx = line(ring, "x")
    e = EnrichedCycle(ring, {vx: Z(2) + Zmod(2)})
    assert e.to_json() == [{"ideal": ["x"], "module": {"rank": 2, "torsion": [2]}}]

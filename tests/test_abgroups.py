"""Finitely generated abelian groups: canonical form and operations."""

import doctest
import random

import pytest

import levo.abgroups
from conftest import random_group
from levo.abgroups import AbGroup, Z, ZERO_GROUP, Zmod


def test_invariant_factor_normalization():
    assert Zmod(2, 3) == Zmod(6)
    assert Zmod(12, 60).torsion == (12, 60)
    assert Zmod(4, 6).torsion == (2, 12)
    assert Zmod(1, 1).is_zero()


def test_dsum_examples():
    assert Z(2) + Z(1) == Z(3)
    assert (Zmod(2) + Zmod(4)).torsion == (2, 4)
    assert ZERO_GROUP + Zmod(5) == Zmod(5)


def test_tensor_examples():
    # free times free multiplies ranks: Z^(t-1) tensor Z^b = Z^(b(t-1))
    t, b = 3, 2
    assert Z(t - 1).tensor(Z(b)) == Z(b * (t - 1))
    assert Zmod(4).tensor(Zmod(6)) == Zmod(2)
    g = Zmod(4) + Z(2)
    assert g.tensor(Z(1)) == g


def test_tensor_free_copies_torsion():
    assert Z(3).tensor(Zmod(2)) == Zmod(2, 2, 2)


@pytest.mark.parametrize("seed", range(8))
def test_ring_axioms_random(seed):
    rng = random.Random(500 + seed)
    a, b, c = (random_group(rng) for _ in range(3))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a.tensor(b) == b.tensor(a)
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
    assert a.tensor(b + c) == a.tensor(b) + a.tensor(c)


def test_summand_of_uses_indecomposables():
    # Z/6 + Z/5 = Z/30, so Z/6 is a summand of Z/30
    assert Zmod(6).summand_of(Zmod(30))
    assert not Zmod(4).summand_of(Zmod(2, 2))
    assert Zmod(2, 2).summand_of(Zmod(2, 2, 4))
    assert not Zmod(2, 2).summand_of(Zmod(2, 4))
    assert not Zmod(2, 2).summand_of(Zmod(4))
    assert Z(1).summand_of(Z(2))
    assert not Z(2).summand_of(Z(1) + Zmod(2))


@pytest.mark.parametrize("seed", range(8))
def test_summand_witness_random(seed):
    # direct sums really are summands, and the order is antisymmetric
    rng = random.Random(900 + seed)
    a, p = random_group(rng), random_group(rng)
    total = a + p
    assert a.summand_of(total)
    if a != total:
        assert not total.summand_of(a)


def test_str_and_json_round_trip():
    g = Z(2) + Zmod(2, 4)
    assert str(g) == "Z^2 + Z/2 + Z/4"
    assert AbGroup.from_json(g.to_json()) == g
    assert str(ZERO_GROUP) == "0"


def test_module_docstring_examples_pass():
    result = doctest.testmod(levo.abgroups)
    assert result.attempted == 3 and result.failed == 0

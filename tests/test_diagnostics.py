"""Certificates, transversality, the Thom-condition diagnostic, chain
complexes, and Euler reconciliation."""

import pytest

from conftest import af_exceptional_containment, constant_sheaf_spec, two_plane_spec
from levo.abgroups import Z, ZERO_GROUP
from levo.diagnostics import (
    essential_transversality,
    euler_check,
    isolating_certificate,
    zawatsky_complex,
)
from levo.errors import GenericityError
from levo.gecc import build_gecc, support_of_gecc
from levo.geom import conormal_ideal
from levo.ideals import Ideal, algebra_cache
from levo.poly import PolyRing
from levo.vogel import decompose_all_degrees, polar_levels


def plane():
    return PolyRing(("x", "y"), ("w_0", "w_1"))


def space():
    return PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))


def _two_plane_packages(a=2, b=2, gm=2, dl=2, tau=2):
    ring = space()
    base = ring.base_ring()
    G = build_gecc(two_plane_spec(ring))
    f = base.parse("(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl))
    return decompose_all_degrees(G, f, (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_two_planes_certified_dimension_one():
    packages = _two_plane_packages()
    cert = isolating_certificate(packages, (0, 0, 0, 0))
    assert cert.status == "certified"
    assert cert.d == 1
    assert cert.failing_stage is None


def test_certificate_cusp_certified_dimension_zero():
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    packages = decompose_all_degrees(G, base.parse("x^2 + y^3"), (0, 0))
    cert = isolating_certificate(packages, (0, 0))
    assert cert.status == "certified" and cert.d == 0


def test_certificate_failure_signaled_during_run():
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    with pytest.raises(GenericityError) as excinfo:
        decompose_all_degrees(G, base.parse("x^2*y^2"), (0, 0))
    kind, j, component = excinfo.value.stage
    assert kind == "slice" and j == 1
    assert component.generator_strings() == ["x"]


# ---------------------------------------------------------------------------
# essential transversality of the coordinate flag


def test_transversality_two_plane_strata():
    ring = space()
    base = ring.base_ring()
    point = (0, 0, 0, 0)
    # the strata's conormals are components of the two-plane cycle; as in
    # a report, the support section projects them first and the walks
    # read their images through the eliminate memo
    with algebra_cache():
        support_of_gecc(build_gecc(two_plane_spec(ring)))
        con_ux = conormal_ideal(Ideal(base, ["u", "x"]), ring)
        per_i, verdict = essential_transversality(polar_levels(con_ux), point, ring)
        assert verdict is False
        assert per_i[0] is False  # the base projection is two-dimensional

        con_yz = conormal_ideal(Ideal(base, ["y", "z"]), ring)
        per_i2, verdict2 = essential_transversality(polar_levels(con_yz), point, ring)
        assert verdict2 is True and all(per_i2)

        con_origin = conormal_ideal(Ideal(base, ["u", "x", "y", "z"]), ring)
        per_i3, verdict3 = essential_transversality(polar_levels(con_origin), point, ring)
        assert verdict3 is True and all(per_i3)


# ---------------------------------------------------------------------------
# the Thom-condition diagnostic


def test_af_containment_square_along_its_singular_line():
    ring = plane()
    base = ring.base_ring()
    ok, witness = af_exceptional_containment(
        Ideal(base, []), Ideal(base, ["y"]), base.parse("y^2"), (0, 0)
    )
    assert ok
    assert witness["conditions"]["exceptional_containment"]


def test_af_containment_point_target_is_vacuous():
    ring = plane()
    base = ring.base_ring()
    ok, _ = af_exceptional_containment(
        Ideal(base, []), Ideal(base, ["x", "y"]), base.parse("x^2 + y^3"), (0, 0)
    )
    assert ok


def test_af_containment_fails_on_differential():
    ring = plane()
    base = ring.base_ring()
    ok, witness = af_exceptional_containment(
        Ideal(base, []), Ideal(base, ["y"]), base.parse("x"), (0, 0)
    )
    assert not ok
    assert witness["conditions"]["differential_in_fibre"] is False


# ---------------------------------------------------------------------------
# chain complexes


def test_zawatsky_two_plane_degree_two():
    a, b, gm, dl, tau = 2, 2, 2, 2, 2
    packages = _two_plane_packages(a, b, gm, dl, tau)
    complex2 = zawatsky_complex(packages[2].modules, d=1, degree=2)
    assert [m for m in complex2.modules] == [Z(b * (tau - 1)), Z(4)]
    top_constraint = complex2.constraints[0]
    assert top_constraint["free"] is True
    assert top_constraint["rank_at_most"] == b * (tau - 1)
    assert complex2.alternating_sum == 4 - b * (tau - 1)


def test_zawatsky_two_plane_degree_one_forces_the_stalk():
    packages = _two_plane_packages()
    complex1 = zawatsky_complex(packages[1].modules, d=1, degree=1)
    # 0 -> 0 -> Z -> 0: the only cohomology is the module itself
    assert complex1.modules == [ZERO_GROUP, Z(1)]
    assert complex1.alternating_sum == 1


def test_zawatsky_all_zero():
    complex0 = zawatsky_complex({}, d=0, degree=0)
    assert complex0.modules == [ZERO_GROUP]
    assert complex0.alternating_sum == 0


def test_zawatsky_sums_match_euler_value():
    packages = _two_plane_packages()
    flat = {
        (k, j): grp for k, pkg in packages.items() for j, grp in pkg.modules.items()
    }
    value, _ = euler_check(flat)
    total = 0
    for k, pkg in packages.items():
        total += (-1) ** k * zawatsky_complex(pkg.modules, d=1, degree=k).alternating_sum
    assert total == value


# ---------------------------------------------------------------------------
# Euler values


@pytest.mark.parametrize(
    "params", [(2, 2, 2, 2, 2), (2, 3, 2, 2, 3), (3, 2, 4, 5, 2)]
)
def test_euler_two_plane_formula(params):
    a, b, gm, dl, tau = params
    packages = _two_plane_packages(*params)
    flat = {
        (k, j): grp for k, pkg in packages.items() for j, grp in pkg.modules.items()
    }
    value, verdict = euler_check(flat)
    reduced_fibre = -a * b * tau + b * tau + a * tau - gm * dl + gm + dl - 1
    assert value == -reduced_fibre
    _, verdict2 = euler_check(flat, expected=-reduced_fibre)
    assert verdict2 == "match"


def test_euler_cusp_signed_sum():
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    packages = decompose_all_degrees(G, base.parse("x^2 + y^3"), (0, 0))
    flat = {
        (k, j): grp for k, pkg in packages.items() for j, grp in pkg.modules.items()
    }
    value, _ = euler_check(flat)
    assert value == 2  # two vanishing circles, signed sum in degree (2, 0)


def test_euler_empty_is_zero():
    assert euler_check({}) == (0, "unchecked")
    assert euler_check({}, expected=1) == (0, "mismatch")


def test_perverse_style_input_concentrates_in_degree_zero():
    # a cycle concentrated in degree zero yields modules only at k = 0
    ring = plane()
    base = ring.base_ring()
    from levo.cycles import EnrichedCycle, GradedEnrichedCycle

    G = GradedEnrichedCycle(
        ring, {0: EnrichedCycle(ring, {Ideal(ring, ["w_0", "w_1"]): Z(1)})}
    )
    packages = decompose_all_degrees(G, base.parse("x^2 + y^2"), (0, 0))
    assert set(packages) == {0}
    assert packages[0].modules == {0: Z(1)}

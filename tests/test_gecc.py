"""Characteristic cycles from strata, supports, nearby cycles, stalks."""

import pytest

from conftest import constant_sheaf_spec, milnor_number, two_plane_spec
from levo.abgroups import Z
from levo.cycles import EnrichedCycle, GradedEnrichedCycle
from levo.errors import GenericityError, InputError
from levo.gecc import (
    CriticalComponent,
    SheafSpec,
    StratumSpec,
    build_gecc,
    critical_locus,
    isolated_vanishing_stalk,
    nearby_gecc,
    support_assertions,
    support_of_gecc,
)
from levo.ideals import Ideal, eliminate
from levo.poly import PolyRing


def test_build_two_plane_gecc(space_ring):
    G = build_gecc(two_plane_spec(space_ring))
    assert G.degrees() == [1, 2]
    point_conormal = Ideal(space_ring, ["u", "x", "y", "z"])
    assert G.piece(1).components == {point_conormal: Z(1)}
    assert G.piece(2).components == {
        Ideal(space_ring, ["u", "x", "w_2", "w_3"]): Z(1),
        Ideal(space_ring, ["y", "z", "w_0", "w_1"]): Z(1),
    }


def test_build_single_smooth_stratum(plane_ring):
    base = plane_ring.base_ring()
    spec = SheafSpec(
        plane_ring, strata=[StratumSpec(Ideal(base, ["x"]), {1: Z(1)})]
    )
    G = build_gecc(spec)
    assert G.piece(1).components == {Ideal(plane_ring, ["x", "w_1"]): Z(1)}


def test_build_empty_morse_gives_empty(plane_ring):
    base = plane_ring.base_ring()
    spec = SheafSpec(plane_ring, strata=[StratumSpec(Ideal(base, ["x"]), {})])
    assert build_gecc(spec).is_zero()


def test_stratum_dimension_validation(plane_ring):
    base = plane_ring.base_ring()
    with pytest.raises(InputError):
        StratumSpec(Ideal(base, ["x"]), {1: Z(1)}, dim=0)


def test_ordinary_cycle_of_two_plane_gecc(space_ring):
    # even degree: ranks enter with positive sign
    G = build_gecc(two_plane_spec(space_ring))
    ord2 = G.piece(2).ord()
    assert ord2 == {
        Ideal(space_ring, ["u", "x", "w_2", "w_3"]): 1,
        Ideal(space_ring, ["y", "z", "w_0", "w_1"]): 1,
    }
    # the full graded cycle signs the odd degree negatively
    total = G.ord()
    assert total[Ideal(space_ring, ["u", "x", "y", "z"])] == -1


def test_support_two_planes(space_ring):
    G = build_gecc(two_plane_spec(space_ring))
    report = support_of_gecc(G)
    base = space_ring.base_ring()
    essential = set(report.essential)
    assert essential == {
        Ideal(base, ["u", "x"]),
        Ideal(base, ["y", "z"]),
        Ideal(base, ["u", "x", "y", "z"]),
    }
    assert set(report.total) == {Ideal(base, ["u", "x"]), Ideal(base, ["y", "z"])}


def test_support_zero_section_is_whole_space(plane_ring):
    G = build_gecc(constant_sheaf_spec(plane_ring))
    report = support_of_gecc(G)
    assert report.total == [Ideal(plane_ring.base_ring(), [])]


def test_support_empty():
    ring = PolyRing(("x",), ("w_0",))
    report = support_of_gecc(GradedEnrichedCycle(ring, {}))
    assert report.total == [] and report.essential == []


def test_support_keeps_each_component_image_once(space_ring):
    G = build_gecc(two_plane_spec(space_ring))
    report = support_of_gecc(G)
    assert list(report.images) == G.components()
    for P, image in report.images.items():
        assert image == eliminate(P, space_ring.cotangent_vars)


def _points_cycle(ring, points):
    """Degree-0 cycle of the full cotangent spaces at rational points."""
    comps = {
        Ideal(ring, ["%s - %s" % (z, c) for z, c in zip(ring.base_vars, p)]): Z(1)
        for p in points
    }
    return GradedEnrichedCycle(ring, {0: EnrichedCycle(ring, comps)})


def _holds(assertions):
    return {a["name"]: a["holds"] for a in assertions}


def test_support_assertions_flag_a_point_summand_off_the_critical_locus(plane_ring):
    base = plane_ring.base_ring()
    G = _points_cycle(plane_ring, [(0, 0), (1, 0), (0, 1)])
    # the critical locus misses (1, 0); f = y is not 0 at (0, 1), so that
    # point is not checked
    crit = [CriticalComponent(Ideal(base, ["x", "y"]), 0, 0)]
    out = support_assertions(support_of_gecc(G), crit, base.parse("y"))
    assert _holds(out) == {
        "critical-locus-inside-support": True,
        "point-conormal-summands-reach-the-critical-locus": False,
    }
    assert out[1]["points"] == [
        {"point": ["0", "0"], "in_critical_locus": True},
        {"point": ["1", "0"], "in_critical_locus": False},
    ]


def test_support_assertions_flag_a_critical_component_outside_the_support(plane_ring):
    base = plane_ring.base_ring()
    G = _points_cycle(plane_ring, [(0, 0)])
    crit = [CriticalComponent(Ideal(base, ["y"]), 1, 0)]
    out = support_assertions(support_of_gecc(G), crit, base.zero())
    assert _holds(out) == {
        "critical-locus-inside-support": False,
        "point-conormal-summands-reach-the-critical-locus": True,
    }
    assert out[1]["points"] == [{"point": ["0", "0"], "in_critical_locus": True}]


# ---------------------------------------------------------------------------
# nearby cycles


def test_nearby_line_sheaf(plane_ring):
    base = plane_ring.base_ring()
    spec = SheafSpec(plane_ring, strata=[StratumSpec(Ideal(base, ["x"]), {1: Z(1)})])
    G, skipped = nearby_gecc(spec, base.parse("y"))
    assert skipped == []
    assert G.piece(1).components == {Ideal(plane_ring, ["x", "y"]): Z(1)}


def test_nearby_skips_point_strata(plane_ring):
    base = plane_ring.base_ring()
    spec = SheafSpec(
        plane_ring, strata=[StratumSpec(Ideal(base, ["x", "y"]), {0: Z(1)})]
    )
    G, skipped = nearby_gecc(spec, base.parse("x + y"))
    assert G.is_zero()
    assert len(skipped) == 1


def test_nearby_support_inside_hypersurface(space_ring):
    base = space_ring.base_ring()
    spec = two_plane_spec(space_ring)
    G, _ = nearby_gecc(spec, base.parse("u + y"))
    assert not G.is_zero()
    for comp in G.components():
        assert comp.contains(space_ring.parse("u + y"))


def test_nearby_requires_strata(plane_ring):
    direct = GradedEnrichedCycle(
        plane_ring, {1: EnrichedCycle(plane_ring, {Ideal(plane_ring, ["x", "w_1"]): Z(1)})}
    )
    spec = SheafSpec(plane_ring, direct=direct)
    with pytest.raises(InputError):
        nearby_gecc(spec, plane_ring.base_ring().parse("y"))


# ---------------------------------------------------------------------------
# isolated vanishing stalks


@pytest.mark.parametrize(
    "f_text", ["x^2 + y^2", "x^2 + y^3", "x^3 + y^3", "x*y"]
)
def test_stalk_matches_milnor_oracle(plane_ring, f_text):
    base = plane_ring.base_ring()
    f = base.parse(f_text)
    G = build_gecc(constant_sheaf_spec(plane_ring))
    stalk = isolated_vanishing_stalk(G, f, (0, 0))
    assert stalk == {2: Z(milnor_number(f))}


def test_stalk_away_from_critical_points(plane_ring):
    base = plane_ring.base_ring()
    G = build_gecc(constant_sheaf_spec(plane_ring))
    stalk = isolated_vanishing_stalk(G, base.parse("x^2 + y^2"), (1, 0))
    assert stalk == {}


def test_stalk_on_cuspidal_curve_sheaf(plane_ring):
    # constant coefficients on the cuspidal cubic, generic linear
    # function: the fibre near the singular point is three points, so the
    # degree-one stalk is Z^2, split between the curve conormal and the
    # visible point stratum; the inductive route must agree
    base = plane_ring.base_ring()
    spec = SheafSpec(
        plane_ring,
        strata=[
            StratumSpec(Ideal(base, ["x", "y"]), {1: Z(1)}),
            StratumSpec(Ideal(base, ["x^2 - y^3"]), {1: Z(1)}),
        ],
    )
    G = build_gecc(spec)
    f = base.parse("x")
    assert isolated_vanishing_stalk(G, f, (0, 0)) == {1: Z(2)}
    from levo.vogel import decompose_all_degrees

    packages = decompose_all_degrees(G, f, (0, 0))
    assert packages[1].modules == {0: Z(2)}


def test_stalk_rejects_positive_dimensional(plane_ring):
    base = plane_ring.base_ring()
    G = build_gecc(constant_sheaf_spec(plane_ring))
    with pytest.raises(GenericityError):
        isolated_vanishing_stalk(G, base.parse("y^2"), (0, 0))


# ---------------------------------------------------------------------------
# critical locus


def test_critical_locus_two_planes(space_ring):
    base = space_ring.base_ring()
    G = build_gecc(two_plane_spec(space_ring))
    a, b, gm, dl, tau = 2, 2, 2, 2, 2
    f = base.parse("(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl))
    crit = critical_locus(G, f, support_of_gecc(G).images)
    assert len(crit) == 1
    assert crit[0].ideal == Ideal(base, ["u^2 + x^2", "y", "z"])
    assert crit[0].dim == 1
    assert crit[0].value == 0


def test_critical_locus_empty_for_submersion(plane_ring):
    base = plane_ring.base_ring()
    G = build_gecc(constant_sheaf_spec(plane_ring))
    assert critical_locus(G, base.parse("x"), support_of_gecc(G).images) == []


def test_critical_locus_of_zero_function_is_support(space_ring):
    base = space_ring.base_ring()
    G = build_gecc(two_plane_spec(space_ring))
    crit = critical_locus(G, base.zero(), support_of_gecc(G).images)
    assert {c.ideal for c in crit} == {
        Ideal(base, ["u", "x"]),
        Ideal(base, ["y", "z"]),
    }

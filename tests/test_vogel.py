"""The inductive decomposition, its point modules, and the oracle route."""

import json

import pytest

from conftest import constant_sheaf_spec, milnor_number, two_plane_spec
from levo.abgroups import Z, ZERO_GROUP, Zmod
from levo.cli import parse_config, prepare_job, run_pipeline
from levo.cycles import EnrichedCycle, GradedEnrichedCycle
from levo.diagnostics import essential_transversality
from levo.errors import GenericityError, InputError
from levo.gecc import SheafSpec, StratumSpec, build_gecc, support_of_gecc
from levo.geom import conormal_ideal, graph_ideal
from levo.ideals import Ideal, eliminate, maximal_loci, split_components
from levo.poly import PolyRing, rational
from levo.vogel import (
    decompose_all_degrees,
    polar_levels,
    polar_modules_iterative,
    polar_support_sets,
    vogel_decompose,
)
from test_golden import GOLDEN, JOBS


def plane():
    return PolyRing(("x", "y"), ("w_0", "w_1"))


def space():
    return PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))


# ---------------------------------------------------------------------------
# the gradient graph ideal


def test_graph_ideal_cusp():
    ring = plane()
    f = ring.base_ring().parse("x^2 + y^3")
    assert graph_ideal(f, ring) == Ideal(ring, ["w_0 - 2*x", "w_1 - 3*y^2"])


def test_graph_ideal_two_plane_display():
    ring = space()
    a, b, gm, dl, tau = 2, 3, 2, 2, 3
    f = ring.base_ring().parse("(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl))
    expected = Ideal(
        ring,
        [
            "w_0 - %d*(u^%d + x^%d)^%d*u^%d" % (tau * a, a, b, tau - 1, a - 1),
            "w_1 - %d*(u^%d + x^%d)^%d*x^%d" % (tau * b, a, b, tau - 1, b - 1),
            "w_2 - %d*y^%d" % (gm, gm - 1),
            "w_3 - %d*z^%d" % (dl, dl - 1),
        ],
    )
    assert graph_ideal(f, ring) == expected


def test_graph_ideal_zero_function_is_zero_section():
    ring = plane()
    assert graph_ideal(ring.base_ring().zero(), ring) == Ideal(ring, ["w_0", "w_1"])


# ---------------------------------------------------------------------------
# the decomposition on the worked two-plane example


def _two_plane_run(a, b, gm, dl, tau):
    ring = space()
    base = ring.base_ring()
    G = build_gecc(two_plane_spec(ring))
    f = base.parse("(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl))
    return ring, base, decompose_all_degrees(G, f, (0, 0, 0, 0))


@pytest.mark.parametrize("params", [(2, 2, 2, 2, 2), (2, 3, 2, 2, 3)])
def test_two_plane_distinguished_cycles(params):
    a, b, gm, dl, tau = params
    ring, base, packages = _two_plane_run(*params)
    deg1 = packages[1].decomposition.distinguished
    full = Ideal(ring, ["u", "x", "y", "z", "w_0", "w_1", "w_2", "w_3"])
    assert deg1[0].components == {full: Z(1)}
    assert all(deg1[j].is_zero() for j in deg1 if j != 0)

    deg2 = packages[2].decomposition.distinguished
    curve = Ideal(
        ring, ["y", "z", "w_0", "w_1", "w_2", "w_3", "u^%d + x^%d" % (a, b)]
    )
    assert deg2[1].components == {curve: Z(tau - 1)}
    rank0 = (dl - 1) * (gm - 1) + (b - 1) * (a * tau - 1)
    assert deg2[0].components == {full: Z(rank0)}


@pytest.mark.parametrize("params", [(2, 2, 2, 2, 2), (3, 2, 4, 5, 2)])
def test_two_plane_cycles_and_modules(params):
    a, b, gm, dl, tau = params
    ring, base, packages = _two_plane_run(*params)
    origin = Ideal(base, ["u", "x", "y", "z"])
    curve = Ideal(base, ["u^%d + x^%d" % (a, b), "y", "z"])
    assert packages[1].cycles[0].components == {origin: Z(1)}
    assert packages[2].cycles[1].components == {curve: Z(tau - 1)}
    assert packages[1].modules == {0: Z(1)}
    rank0 = (dl - 1) * (gm - 1) + (b - 1) * (a * tau - 1)
    assert packages[2].modules == {0: Z(rank0), 1: Z(b * (tau - 1))}


def test_two_plane_set_identity_holds():
    # union of distinguished supports = support meet graph, at radical level
    ring, base, packages = _two_plane_run(2, 2, 2, 2, 2)
    f = base.parse("(u^2 + x^2)^2 + y^2 + z^2")
    graph = graph_ideal(f, ring)
    G = build_gecc(two_plane_spec(ring))
    for k, pkg in packages.items():
        deltas = []
        for cyc in pkg.decomposition.distinguished.values():
            deltas.extend(cyc.support())
        for P in G.piece(k).support():
            J = P.plus(graph.gens)
            if J.is_unit():
                continue
            for comp in split_components(J):
                assert any(comp.ideal.contains_ideal(D) for D in deltas)
        for D in deltas:
            assert all(D.contains(g) for g in graph.gens)


def test_dimension_ladder():
    ring, base, packages = _two_plane_run(2, 2, 2, 2, 2)
    for pkg in packages.values():
        for j, cyc in pkg.decomposition.residual.items():
            for P in cyc.support():
                assert P.dimension() == j
        for j, cyc in pkg.decomposition.distinguished.items():
            for P in cyc.support():
                assert P.dimension() == j
        for j, cyc in pkg.cycles.items():
            for P in cyc.support():
                assert P.dimension() == j


# ---------------------------------------------------------------------------
# classical plane cases


def test_nonisolated_square():
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    f = base.parse("y^2")
    packages = decompose_all_degrees(G, f, (0, 0))
    pkg = packages[2]
    line = Ideal(ring, ["w_0", "w_1", "y"])
    assert pkg.decomposition.distinguished[1].components == {line: Z(1)}
    assert pkg.decomposition.residual[1].is_zero()
    assert pkg.decomposition.distinguished[0].is_zero()
    assert pkg.cycles[1].components == {Ideal(base, ["y"]): Z(1)}
    assert pkg.modules == {1: Z(1)}


def test_submersion_has_no_cycles():
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    packages = decompose_all_degrees(G, base.parse("x"), (0, 0))
    pkg = packages[2]
    assert all(c.is_zero() for c in pkg.decomposition.distinguished.values())
    assert pkg.modules == {}
    assert pkg.decomposition.disjoint == [Ideal(ring, ["w_0", "w_1"])]


@pytest.mark.parametrize(
    "f_text,mu",
    [("x^2 + y^2", 1), ("x^2 + y^3", 2), ("x^3 + y^3", 4), ("x*y", 1)],
)
def test_isolated_points_match_milnor_numbers(f_text, mu):
    ring = plane()
    base = ring.base_ring()
    f = base.parse(f_text)
    assert milnor_number(f) == mu
    G = build_gecc(constant_sheaf_spec(ring))
    packages = decompose_all_degrees(G, f, (0, 0))
    assert packages[2].modules == {0: Z(mu)}


def test_components_inside_graph_are_dropped_with_warning():
    ring = plane()
    base = ring.base_ring()
    f = base.parse("x^2 + y^3")
    graph = graph_ideal(f, ring)
    G_k = EnrichedCycle(ring, {graph: Z(1)})
    D = vogel_decompose(G_k, f, degree=2)
    assert D.dropped == [graph]
    assert all(c.is_zero() for c in D.distinguished.values())
    assert any("dropped" in w for w in D.warnings)


def test_decompose_requires_pure_dimension():
    ring = plane()
    base = ring.base_ring()
    bad = EnrichedCycle(ring, {Ideal(ring, ["x", "y", "w_0"]): Z(1)})
    with pytest.raises(InputError):
        vogel_decompose(bad, base.parse("x^2 + y^3"))


def test_improper_stage_is_a_genericity_failure():
    # f = (xy)^2 with the coordinate flag along x: the sliced cycle keeps
    # the one-dimensional branch V(x), which the first hyperplane contains
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    f = base.parse("x^2*y^2")
    with pytest.raises(GenericityError) as excinfo:
        decompose_all_degrees(G, f, (0, 0))
    kind, j, _comp = excinfo.value.stage
    assert (kind, j) == ("slice", 1)


def test_torsion_coefficients_flow_through():
    ring = plane()
    base = ring.base_ring()
    direct = GradedEnrichedCycle(
        ring, {0: EnrichedCycle(ring, {Ideal(ring, ["w_0", "w_1"]): Zmod(4)})}
    )
    G = direct
    packages = decompose_all_degrees(G, base.parse("x^2 + y^3"), (0, 0))
    assert packages[0].modules == {0: Zmod(4, 4)}


def test_point_modules_at_translated_point():
    # the translated cusp keeps its numbers at the translated point
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    f = base.parse("(x - 1)^2 + y^3")
    packages = decompose_all_degrees(G, f, (1, 0))
    assert packages[2].modules == {0: Z(2)}


def test_point_off_critical_locus_gives_nothing():
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    packages = decompose_all_degrees(G, base.parse("x^2 + y^3"), (1, 1))
    assert packages[2].modules == {}


def test_two_plane_with_torsion_coefficients():
    # torsion in a stratum module rides through every tensor step
    ring = space()
    base = ring.base_ring()
    strata = [
        StratumSpec(Ideal(base, ["u", "x", "y", "z"]), {1: Z(1)}),
        StratumSpec(Ideal(base, ["u", "x"]), {2: Z(1)}),
        StratumSpec(Ideal(base, ["y", "z"]), {2: Z(1) + Zmod(2)}),
    ]
    spec = SheafSpec(ring, strata=strata)
    G = build_gecc(spec)
    f = base.parse("(u^2 + x^2)^2 + y^2 + z^2")
    packages = decompose_all_degrees(G, f, (0, 0, 0, 0))
    # tau - 1 = 1 copy of the curve coefficient, then sliced by beta = 2
    assert packages[2].modules[1] == (Z(1) + Zmod(2)).tensor(Z(2))
    # the point module mixes the torsion branch with the free branch
    expected0 = (Z(1) + Zmod(2)).tensor(Z(3)).dsum(Z(1))
    assert packages[2].modules[0] == expected0


# ---------------------------------------------------------------------------
# absolute (zero-function) specialization


def test_polar_line_with_generic_leading_coordinate():
    # slicing order (y, x): the line V(x) has polar cycle the line itself
    ring = PolyRing(("y", "x"), ("w_0", "w_1"))
    base = ring.base_ring()
    spec = SheafSpec(ring, strata=[StratumSpec(Ideal(base, ["x"]), {1: Z(1)})])
    G = build_gecc(spec)
    packages = decompose_all_degrees(G, base.zero(), (0, 0))
    pkg = packages[1]
    assert pkg.cycles == {1: pkg.cycles[1]}
    assert pkg.cycles[1].components == {Ideal(base, ["x"]): Z(1)}
    assert pkg.modules == {1: Z(1)}


def test_polar_point_conormal():
    ring = plane()
    base = ring.base_ring()
    point = Ideal(ring, ["x", "y"])
    G = GradedEnrichedCycle(ring, {0: EnrichedCycle(ring, {point: Z(1)})})
    packages = decompose_all_degrees(G, base.zero(), (0, 0))
    pkg = packages[0]
    assert pkg.cycles[0].components == {Ideal(base, ["x", "y"]): Z(1)}
    assert pkg.modules == {0: Z(1)}
    assert all(j == 0 for j in pkg.modules)


def test_polar_of_directly_supplied_vanishing_data_matches_point_modules():
    # feeding the vanishing-cycle data of the cusp back in as a plain
    # cycle, the absolute route reproduces the same point modules
    ring = plane()
    base = ring.base_ring()
    G = build_gecc(constant_sheaf_spec(ring))
    f = base.parse("x^2 + y^3")
    levo = decompose_all_degrees(G, f, (0, 0))
    vanishing_data = GradedEnrichedCycle(
        ring, {2: EnrichedCycle(ring, {Ideal(ring, ["x", "y"]): Z(2)})}
    )
    polar = decompose_all_degrees(vanishing_data, base.zero(), (0, 0))
    assert polar[2].modules == levo[2].modules == {0: Z(2)}


def test_polar_constant_sheaf_is_empty():
    # the zero section is the whole graph of the zero function: dropped
    ring = plane()
    G = build_gecc(constant_sheaf_spec(ring))
    packages = decompose_all_degrees(G, ring.base_ring().zero(), (0, 0))
    pkg = packages[2]
    assert all(c.is_zero() for c in pkg.decomposition.distinguished.values())
    assert pkg.modules == {}


@pytest.mark.xfail(
    strict=True,
    reason="under [[1, 1], [0, 1]] the first coordinate hyperplane is tangent "
    "to a branch of the node, yet the run is certified with polar modules "
    "j=0 rank 2 and j=1 rank 3 instead of rank 1 and rank 2",
)
def test_certified_polar_modules_of_the_node_agree_across_coordinates():
    rank_one = {"0": {"rank": 1, "torsion": []}}
    doc = {
        "variables": ["x", "y"],
        "sheaf": {
            "strata": [
                {"closure": ["y^2 - x^2 - x^3"], "morse": rank_one},
                {"closure": ["x", "y"], "morse": rank_one},
            ]
        },
        "point": [0, 0],
        "seed": 1,
    }
    certified = []
    for matrix in ([[1, 0], [0, 1]], [[1, 1], [0, 1]]):
        report, _code = run_pipeline(parse_config(dict(doc, coordinate_order=matrix)))
        if report["certificate"]["status"] == "certified":
            certified.append(report["polar_modules"])
    assert all(modules == certified[0] for modules in certified)


# ---------------------------------------------------------------------------
# projectivized support sets


def support_sets(G):
    sets, _walks = polar_support_sets(G, support_of_gecc(G).images)
    return sets


def test_support_sets_line_bad_coordinates():
    ring = plane()
    base = ring.base_ring()
    spec = SheafSpec(ring, strata=[StratumSpec(Ideal(base, ["x"]), {1: Z(1)})])
    (theta0, gamma0), (_, gamma1) = support_sets(build_gecc(spec))
    assert [I.generator_strings() for I in theta0] == [["x"]]
    assert gamma0 == []
    assert [I.generator_strings() for I in gamma1] == [["x"]]


def test_support_sets_two_plane_vanishing_data():
    # the conormal data of the vanishing cycles: the curve component and
    # the point component; at index one the set is the curve itself
    ring = space()
    base = ring.base_ring()
    a, b = 2, 2
    curve_con = conormal_ideal(Ideal(base, ["u^%d + x^%d" % (a, b), "y", "z"]), ring)
    point_con = Ideal(ring, ["u", "x", "y", "z"])
    G = GradedEnrichedCycle(
        ring,
        {
            1: EnrichedCycle(ring, {point_con: Z(1)}),
            2: EnrichedCycle(ring, {curve_con: Z(1), point_con: Z(4)}),
        },
    )
    theta1, gamma1 = support_sets(G)[1]
    assert [I.generator_strings() for I in theta1] == [["z", "y", "u^2 + x^2"]]
    assert [I.generator_strings() for I in gamma1] == [["z", "y", "u^2 + x^2"]]


def test_support_sets_top_index_gives_support():
    ring = space()
    G = build_gecc(two_plane_spec(ring))
    theta3, _ = support_sets(G)[3]
    base = ring.base_ring()
    assert set(theta3) == {Ideal(base, ["u", "x"]), Ideal(base, ["y", "z"])}


def test_support_sets_zero_section_discarded():
    ring = plane()
    G = build_gecc(constant_sheaf_spec(ring))
    assert support_sets(G) == [([], []), ([], [])]


def support_sets_from_scratch(G, m):
    # the per-index construction: cut every component by w_{m+1}..w_n,
    # split, drop the zero-section components, project, keep the maximal
    ring = G.ring
    cot = ring.cotangent_vars
    cut = [ring.var(w) for w in cot[m + 1 :]]
    images = []
    for P in G.components():
        J = P.plus(cut)
        if J.is_unit():
            continue
        for comp in split_components(J):
            if not all(comp.ideal.contains(ring.var(w)) for w in cot):
                images.append(eliminate(comp.ideal, cot))
    ideals = maximal_loci(images)
    return ideals, [I for I in ideals if I.dimension() == m]


def axis_conormals():
    # one component that is not prime, the conormals of both axes: the
    # support table holds the image V(x*y) of the whole, so the walk
    # must split it before reading the table
    ring = plane()
    P = Ideal(ring, ["x*y", "x*w_0", "y*w_1", "w_0*w_1"])
    return GradedEnrichedCycle(ring, {0: EnrichedCycle(ring, {P: Z(1)})})


@pytest.mark.parametrize("name", [j[0] for j in JOBS] + ["axis-conormals"])
def test_support_sets_walk_matches_each_index_from_scratch(name):
    if name == "axis-conormals":
        G = axis_conormals()
    else:
        text = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
        G = build_gecc(prepare_job(parse_config(text)).spec)
    expected = [support_sets_from_scratch(G, m) for m in range(len(G.ring.base_vars))]
    assert support_sets(G) == expected


def test_an_empty_cycle_has_empty_support_sets():
    doc = {"variables": ["x", "y"], "sheaf": {"gecc": {}}, "point": [0, 0]}
    report, _code = run_pipeline(parse_config(json.dumps(doc)))
    assert report["polar_supports"] == {"0": [], "1": []}
    assert report["transversality"] == {}


def transversality_from_scratch(conormal, point):
    # the per-index construction: cut the conormal afresh by
    # w_{i+1}..w_{n-1} and the slices z_0..z_{i-1} = p for every i, split,
    # drop the zero-section components and look at the projections
    ring = conormal.ring
    cot = ring.cotangent_vars
    point = tuple(map(rational, point))
    per_i = []
    for i in range(len(cot)):
        cut = [ring.var(w) for w in cot[i + 1 :]]
        cut += [ring.var(z) - c for z, c in zip(ring.base_vars[:i], point)]
        J = conormal.plus(cut)
        comps = [] if J.is_unit() else [c.ideal for c in split_components(J)]
        images = [
            eliminate(C, cot) for C in comps if not all(C.contains(ring.var(w)) for w in cot)
        ]
        per_i.append(not any(I.vanishes_at(point) and I.dimension() > 0 for I in images))
    return per_i, all(per_i)


def transversality_cases(name):
    """(conormal, point, support table) for each conormal the case names."""
    if name == "zero-section":
        ring = plane()
        G = build_gecc(constant_sheaf_spec(ring))
        return [(P, (0, 0), support_of_gecc(G).images) for P in G.components()]
    if name == "two-plane-conormals":
        G = build_gecc(two_plane_spec(space()))
        return [(P, (0, 0, 0, 0), support_of_gecc(G).images) for P in G.components()]
    if name == "axis-conormals":
        G = axis_conormals()
        return [(P, (0, 0), support_of_gecc(G).images) for P in G.components()]
    if name == "coordinate-planes":
        # the plane V(y) of C^3 holds at index 0 only
        ring = PolyRing(("x", "y", "z"), ("w_0", "w_1", "w_2"))
        base = ring.base_ring()
        return [(conormal_ideal(Ideal(base, [z]), ring), (0, 0, 0), {}) for z in base.vars]
    job = prepare_job(parse_config((GOLDEN / (name + ".json")).read_text(encoding="utf-8")))
    images = support_of_gecc(build_gecc(job.spec)).images
    conormals = [con for _, con in job.spec.conormals]
    conormals += [conormal_ideal(closure, job.ring) for closure in job.af_partition or ()]
    return [(con, job.point, images) for con in conormals]


@pytest.mark.parametrize(
    "name",
    [j[0] for j in JOBS]
    + ["zero-section", "two-plane-conormals", "axis-conormals", "coordinate-planes"],
)
def test_transversality_from_the_walk_matches_each_index_from_scratch(name):
    cases = transversality_cases(name)
    assert cases or name == "polar_gecc"
    for con, point, images in cases:
        walked = essential_transversality(polar_levels(con, images), point, con.ring, images)
        assert walked == transversality_from_scratch(con, point)


# ---------------------------------------------------------------------------
# two-route equivalence


def test_iterative_oracle_matches_polar_package_line():
    ring = PolyRing(("y", "x"), ("w_0", "w_1"))
    base = ring.base_ring()
    spec = SheafSpec(ring, strata=[StratumSpec(Ideal(base, ["x"]), {1: Z(1)})])
    G = build_gecc(spec)
    packages = decompose_all_degrees(G, base.zero(), (0, 0))
    direct = {
        (k, j): grp for k, pkg in packages.items() for j, grp in pkg.modules.items()
    }
    for j in range(2):
        for k in (0, 1, 2):
            oracle = polar_modules_iterative(spec, (0, 0), j, k)
            assert oracle == direct.get((k, j), ZERO_GROUP)


def test_iterative_oracle_runs_without_algebra_cache(cache_calls):
    ring = PolyRing(("y", "x"), ("w_0", "w_1"))
    base = ring.base_ring()
    spec = SheafSpec(ring, strata=[StratumSpec(Ideal(base, ["x"]), {1: Z(1)})])
    assert polar_modules_iterative(spec, (0, 0), 1, 1) == Z(1)
    assert cache_calls and all(cache is None for cache, _ in cache_calls)


def test_iterative_oracle_point_sheaf():
    ring = plane()
    base = ring.base_ring()
    spec = SheafSpec(
        ring, strata=[StratumSpec(Ideal(base, ["x", "y"]), {0: Z(2)})]
    )
    # j = 0 reads the stalk coefficient itself
    assert polar_modules_iterative(spec, (0, 0), 0, 0) == Z(2)
    # beyond the support dimension everything vanishes
    assert polar_modules_iterative(spec, (0, 0), 1, 0) == ZERO_GROUP


def test_iterative_oracle_needs_linear_closures():
    ring = plane()
    base = ring.base_ring()
    spec = SheafSpec(
        ring, strata=[StratumSpec(Ideal(base, ["x^2 - y^3"]), {1: Z(1)})]
    )
    with pytest.raises(InputError):
        polar_modules_iterative(spec, (0, 0), 1, 1)

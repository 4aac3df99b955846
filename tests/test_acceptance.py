"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s); all
comparisons are exact symbolic integers, and the stated wall-clock
budgets are asserted.
"""

import json
import random
import time
from contextlib import contextmanager

from conftest import constant_sheaf_spec, milnor_number, random_group, sliced_multiplicity
from levo.abgroups import Z, ZERO_GROUP
from levo.cli import (
    EXIT_CERTIFIED,
    EXIT_GENERICITY,
    parse_config,
    prepare_job,
    randomize_coordinates,
    report_to_json,
    run_pipeline,
)
from levo.cycles import EnrichedCycle
from levo.diagnostics import (
    essential_transversality,
    isolating_certificate,
    upgrade_by_transversality,
)
from levo.errors import GenericityError
from levo.gecc import build_gecc, isolated_vanishing_stalk
from levo.geom import (
    conormal_ideal,
    graph_ideal,
    local_multiplicity_at_point,
    multiplicity_along,
)
from levo.ideals import Ideal, quotient_dimension, split_components
from levo.poly import PolyRing
from levo.vogel import (
    decompose_all_degrees,
    polar_levels,
    polar_modules_iterative,
)


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(
            "ACCEPTANCE %d: FAIL - %s (%.1f s)"
            % (number, description, time.monotonic() - start)
        )
        raise
    print(
        "ACCEPTANCE %d: PASS - %s (%.1f s)"
        % (number, description, time.monotonic() - start)
    )


def _two_plane_doc(a, b, gm, dl, tau, seed=11):
    return {
        "variables": ["u", "x", "y", "z"],
        "sheaf": {
            "strata": [
                {
                    "closure": ["u", "x", "y", "z"],
                    "morse": {"1": {"rank": 1, "torsion": []}},
                    "label": "origin",
                },
                {
                    "closure": ["u", "x"],
                    "morse": {"2": {"rank": 1, "torsion": []}},
                    "label": "plane-yz",
                },
                {
                    "closure": ["y", "z"],
                    "morse": {"2": {"rank": 1, "torsion": []}},
                    "label": "plane-ux",
                },
            ]
        },
        "function": "(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl),
        "point": [0, 0, 0, 0],
        "seed": seed,
    }


def _constant_sheaf_doc(f_text, variables=("x", "y"), seed=5):
    n = len(variables)
    return {
        "variables": list(variables),
        "sheaf": {
            "strata": [{"closure": [], "morse": {str(n): {"rank": 1, "torsion": []}}}]
        },
        "function": f_text,
        "point": [0] * n,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# 1. golden reproduction of the worked two-plane example


def test_criterion_1_two_plane_golden():
    with criterion(1, "two-plane worked example reproduced for three parameter sets"):
        for params in ((2, 2, 2, 2, 2), (2, 3, 2, 2, 3), (3, 2, 4, 5, 2)):
            a, b, gm, dl, tau = params
            t0 = time.monotonic()
            cfg = parse_config(json.dumps(_two_plane_doc(*params)))
            report, code = run_pipeline(cfg)
            elapsed = time.monotonic() - t0
            assert elapsed <= 60.0, "parameter set %r took %.1f s" % (params, elapsed)
            assert code == EXIT_CERTIFIED

            assert report["gecc"]["1"] == [
                {"ideal": ["z", "y", "x", "u"], "module": {"rank": 1, "torsion": []}}
            ]
            assert report["gecc"]["2"] == [
                {"ideal": ["w_3", "w_2", "x", "u"], "module": {"rank": 1, "torsion": []}},
                {"ideal": ["w_1", "w_0", "z", "y"], "module": {"rank": 1, "torsion": []}},
            ]

            rank0 = (dl - 1) * (gm - 1) + (b - 1) * (a * tau - 1)
            delta = report["decomposition"]["2"]["distinguished"]
            [d1] = delta["1"]
            assert d1["module"] == {"rank": tau - 1, "torsion": []}
            assert set(d1["ideal"]) == {
                "w_0", "w_1", "w_2", "w_3", "y", "z",
            } | {_curve_string(a, b)}
            [d0] = delta["0"]
            assert d0["module"]["rank"] == rank0

            assert report["levo_modules"]["1"]["0"] == {"rank": 1, "torsion": []}
            assert report["levo_modules"]["2"]["1"] == {
                "rank": b * (tau - 1),
                "torsion": [],
            }
            assert report["levo_modules"]["2"]["0"] == {"rank": rank0, "torsion": []}

            reduced_fibre_chi = -a * b * tau + b * tau + a * tau - gm * dl + gm + dl - 1
            assert report["euler"]["signed_sum"] == -reduced_fibre_chi


def _curve_string(a, b):
    ring = PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))
    return str(ring.parse("u^%d + x^%d" % (a, b)).monic())


# ---------------------------------------------------------------------------
# 2. isolated singularities against the brute-force Milnor oracle


def test_criterion_2_milnor_oracle():
    with criterion(2, "top point module equals the Jacobian-algebra dimension"):
        for f_text in ("x^2 + y^2", "x^2 + y^3", "x^3 + y^3", "x*y"):
            t0 = time.monotonic()
            base = PolyRing(("x", "y"))
            mu = milnor_number(base.parse(f_text))
            report, code = run_pipeline(
                parse_config(json.dumps(_constant_sheaf_doc(f_text)))
            )
            assert code == EXIT_CERTIFIED
            assert report["levo_modules"] == {
                "2": {"0": {"rank": mu, "torsion": []}}
            }
            assert time.monotonic() - t0 <= 5.0


# ---------------------------------------------------------------------------
# 3. the non-isolated classic and the critical-point-free case


def test_criterion_3_classics():
    with criterion(3, "y^2 gives the line module; a submersion gives nothing"):
        t0 = time.monotonic()
        report, code = run_pipeline(
            parse_config(json.dumps(_constant_sheaf_doc("y^2")))
        )
        assert code == EXIT_CERTIFIED
        assert report["levo_modules"] == {"2": {"1": {"rank": 1, "torsion": []}}}
        assert time.monotonic() - t0 <= 5.0

        t0 = time.monotonic()
        report2, code2 = run_pipeline(
            parse_config(json.dumps(_constant_sheaf_doc("x")))
        )
        assert code2 == EXIT_CERTIFIED
        assert report2["levo_modules"] == {}
        assert report2["critical_locus"] == []
        assert time.monotonic() - t0 <= 5.0


# ---------------------------------------------------------------------------
# 4. stalk formula versus the inductive route on isolated instances


def _stalk_corpus():
    plane_vars = ("x", "y")
    space_vars = ("x", "y", "z")
    return [
        (plane_vars, "x^2 + y^2", (0, 0)),
        (plane_vars, "x^2 + y^3", (0, 0)),
        (plane_vars, "x^3 + y^3", (0, 0)),
        (plane_vars, "x*y", (0, 0)),
        (plane_vars, "x^2 + y^5", (0, 0)),
        (plane_vars, "(x - 1)^2 + y^2", (1, 0)),
        (space_vars, "x^2 + y^2 + z^2", (0, 0, 0)),
    ]


def test_criterion_4_stalk_vs_inductive():
    with criterion(4, "isolated stalk formula equals the point modules"):
        for variables, f_text, point in _stalk_corpus():
            cot = tuple("w_%d" % i for i in range(len(variables)))
            ring = PolyRing(variables, cot)
            base = ring.base_ring()
            f = base.parse(f_text)
            G = build_gecc(constant_sheaf_spec(ring))
            stalk = isolated_vanishing_stalk(G, f, point)
            packages = decompose_all_degrees(G, f, point)
            derived = {
                k: pkg.modules.get(0, ZERO_GROUP) for k, pkg in packages.items()
            }
            derived = {k: g for k, g in derived.items() if not g.is_zero()}
            assert stalk == derived


# ---------------------------------------------------------------------------
# 5. two-route equivalence on a corpus of linear-strata inputs


def _linear_corpus():
    return [
        (("x", "y"), [["x"]]),
        (("x", "y"), [["y"], ["x", "y"]]),
        (("x", "y"), [["x + y"], ["x", "y"]]),
        (("x", "y"), [["x - y"]]),
        (("x", "y", "z"), [["x", "y"]]),
        (("x", "y", "z"), [["z"], ["y", "z"]]),
        (("x", "y", "z"), [["x"], ["y"]]),
        (("x", "y", "z"), [["x + y + z"], ["x - y", "z"]]),
        (("u", "x", "y", "z"), [["u", "x"]]),
        (("u", "x", "y", "z"), [["y", "z"], ["u", "x", "y", "z"]]),
        (("u", "x", "y", "z"), [["u"], ["u", "x"], ["u", "x", "y"]]),
    ]


def _corpus_doc(variables, closures, rng):
    strata = []
    for gens in closures:
        morse = {}
        for k in range(rng.randint(1, 2)):
            degree = rng.randint(0, 2)
            g = random_group(rng, max_rank=2)
            if g.is_zero():
                g = Z(1)
            morse[str(degree)] = g.to_json()
        strata.append({"closure": gens, "morse": morse})
    return {
        "variables": list(variables),
        "sheaf": {"strata": strata},
        "point": [0] * len(variables),
        "seed": 13,
    }


def test_criterion_5_two_route_equivalence():
    with criterion(5, "direct polar route agrees with the iterated-slice oracle"):
        rng = random.Random(20260809)
        checked = 0
        for variables, closures in _linear_corpus():
            doc = _corpus_doc(variables, closures, rng)
            cfg = parse_config(json.dumps(doc))
            n = len(variables) - 1
            job = None
            for attempt in range(8):
                candidate = randomize_coordinates(cfg, 100 + 17 * attempt)
                trial = prepare_job(candidate)
                G = build_gecc(trial.spec)
                try:
                    packages = decompose_all_degrees(G, G.ring.base_ring().zero(), trial.point)
                except GenericityError:
                    continue
                cert = isolating_certificate(packages, trial.point)
                if cert.status == "proper-uncertified":
                    conormals = [(s.label, con) for s, con in trial.spec.conormals]
                    cert, _ = upgrade_by_transversality(cert, conormals, trial.point, trial.ring)
                if cert.status == "certified":
                    job = (trial, packages)
                    break
            assert job is not None, "no certified coordinates found for %r" % (
                closures,
            )
            trial, packages = job
            direct = {
                (k, j): grp
                for k, pkg in packages.items()
                for j, grp in pkg.modules.items()
            }
            degrees = sorted({k for k, _ in direct} | {0})
            for j in range(n + 1):
                for k in degrees:
                    oracle = polar_modules_iterative(trial.spec, trial.point, j, k)
                    assert oracle == direct.get((k, j), ZERO_GROUP), (
                        "mismatch at (k=%d, j=%d) for %r" % (k, j, closures)
                    )
            checked += 1
        assert checked >= 10


# ---------------------------------------------------------------------------
# 6. randomized property suites, two hundred cases each


def test_criterion_6a_partial_order_axioms():
    with criterion(6, "partial-order axioms over 200 random cycle triples"):
        ring = PolyRing(("x", "y"))
        names = ["x", "y", "x - y", "x + y"]
        for seed in range(200):
            rng = random.Random(81000 + seed)

            def rand_cycle():
                comps = {}
                for name in names:
                    if rng.random() < 0.6:
                        g = random_group(rng)
                        if not g.is_zero():
                            comps[Ideal(ring, [name])] = g
                return EnrichedCycle(ring, comps)

            a, b, c = rand_cycle(), rand_cycle(), rand_cycle()
            assert a.le(a)
            assert a.le(a + b)
            if a.le(b) and b.le(c):
                assert a.le(c)
            if a.le(b) and b.le(a):
                assert a == b


def test_criterion_6b_ord_scaling():
    with criterion(6, "[qE]^ord = rk(q)[E]^ord over 200 random cases"):
        ring = PolyRing(("x", "y"))
        for seed in range(200):
            rng = random.Random(82000 + seed)
            comps = {
                Ideal(ring, ["x"]): random_group(rng),
                Ideal(ring, ["y"]): random_group(rng),
            }
            e = EnrichedCycle(ring, comps)
            q = random_group(rng)
            scaled = e.scale(q).ord()
            plain = e.ord()
            for ideal in set(scaled) | set(plain):
                assert scaled.get(ideal, 0) == q.rank * plain.get(ideal, 0)


def test_criterion_6c_group_ring_axioms():
    with criterion(6, "group sum/tensor axioms over 200 random triples"):
        for seed in range(200):
            rng = random.Random(83000 + seed)
            a, b, c = (random_group(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a.tensor(b) == b.tensor(a)
            assert a.tensor(b.tensor(c)) == a.tensor(b).tensor(c)
            assert a.tensor(b + c) == a.tensor(b) + a.tensor(c)


def test_criterion_6d_conservation_of_module():
    from fractions import Fraction

    with criterion(6, "conservation of module over 200 perturbed linear slices"):
        base = PolyRing(("x", "y"))
        lines = ["x", "y", "x - y", "x + 2*y", "2*x + y"]
        for seed in range(200):
            rng = random.Random(84000 + seed)
            comps = {}
            for name in rng.sample(lines, rng.randint(1, 3)):
                comps[Ideal(base, [name])] = Z(rng.randint(1, 3))
            cycle = EnrichedCycle(base, comps)
            form = base.linear_form([rng.randint(1, 7), -rng.randint(1, 7)], 0)
            if any(P.contains(form) for P in cycle.components):
                continue
            lhs = sum(
                coeff.rank * local_multiplicity_at_point(P.plus([form]), (0, 0))
                for P, coeff in cycle.items()
            )
            t = Fraction(1, 97)
            noise = base.linear_form(
                [rng.randint(-9, 9) for _ in base.vars], rng.randint(-9, 9)
            )
            perturbed = form + noise * t
            rhs = 0
            for P, coeff in cycle.items():
                q = quotient_dimension(P.plus([perturbed]))
                assert q is not None
                rhs += coeff.rank * q
            assert lhs == rhs


def _random_isolated_function(rng, base):
    # x^a + c x^i y^j + y^b stays an isolated singularity for small exponents
    a = rng.randint(2, 3)
    b = rng.randint(2, 3)
    c = rng.randint(-2, 2)
    i, j = rng.randint(1, 2), rng.randint(1, 2)
    text = "x^%d + y^%d" % (a, b)
    if c:
        text += " + %d*x^%d*y^%d" % (c, i, j)
    return base.parse(text)


def test_criterion_6e_set_identity_on_runs():
    with criterion(6, "distinguished supports cover the graph meet on 200 runs"):
        ring = PolyRing(("x", "y"), ("w_0", "w_1"))
        base = ring.base_ring()
        spec = constant_sheaf_spec(ring)
        G = build_gecc(spec)
        completed = 0
        seed = 0
        while completed < 200:
            seed += 1
            rng = random.Random(85000 + seed)
            f = _random_isolated_function(rng, base)
            try:
                packages = decompose_all_degrees(G, f, (0, 0))
            except GenericityError:
                continue
            graph = graph_ideal(f, ring)
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
            completed += 1


def test_criterion_6f_multiplicity_slice_independence():
    with criterion(6, "multiplicity agrees with two independent slicings, 200 cases"):
        ring = PolyRing(("x", "y"), ("w_0", "w_1"))
        base_cases = 0
        seed = 0
        while base_cases < 200:
            seed += 1
            rng = random.Random(86000 + seed)
            P = Ideal(ring, ["w_0", "w_1"])
            e = rng.randint(1, 4)
            c = rng.choice((1, 2, 3, 5))
            g = ring.parse("w_1 - %d*y^%d" % (c, e))
            W = Ideal(ring, ["w_0", "w_1", "y"])
            m1 = multiplicity_along(P, g, W)
            m2 = sliced_multiplicity(P, g, W, rng)
            assert m1 == m2 == e
            base_cases += 1


# ---------------------------------------------------------------------------
# 7. genericity behavior


def test_criterion_7_genericity_behavior():
    with criterion(7, "transversality verdicts, certificates, and the retry flip"):
        ring = PolyRing(("u", "x", "y", "z"), ("w_0", "w_1", "w_2", "w_3"))
        base = ring.base_ring()
        point = (0, 0, 0, 0)

        def transversality(closure):
            levels = polar_levels(conormal_ideal(Ideal(base, closure), ring))
            return essential_transversality(levels, point, ring)

        per_i, verdict = transversality(["u", "x"])
        assert verdict is False and per_i[0] is False
        _, verdict2 = transversality(["y", "z"])
        assert verdict2 is True
        _, verdict3 = transversality(["u", "x", "y", "z"])
        assert verdict3 is True

        report, code = run_pipeline(
            parse_config(json.dumps(_two_plane_doc(2, 2, 2, 2, 2)))
        )
        assert code == EXIT_CERTIFIED
        assert report["certificate"]["status"] == "certified"
        assert report["certificate"]["d"] == 1

        bad = _constant_sheaf_doc("x^2*y^2", seed=3)
        cfg = parse_config(json.dumps(bad))
        report_bad, code_bad = run_pipeline(cfg)
        assert code_bad == EXIT_GENERICITY
        assert report_bad["certificate"]["status"] == "failed"
        report_retry, code_retry = run_pipeline(cfg, retries=3)
        assert code_retry == EXIT_CERTIFIED
        assert report_retry["certificate"]["status"] == "certified"


# ---------------------------------------------------------------------------
# 8. determinism


def test_criterion_8_determinism():
    with criterion(8, "byte-identical reports for identical config and seed"):
        for doc in (
            _two_plane_doc(2, 2, 2, 2, 2),
            _constant_sheaf_doc("x^2 + y^3"),
            _constant_sheaf_doc("y^2"),
        ):
            text = json.dumps(doc)
            r1, c1 = run_pipeline(parse_config(text))
            r2, c2 = run_pipeline(parse_config(text))
            assert c1 == c2
            assert report_to_json(r1) == report_to_json(r2)

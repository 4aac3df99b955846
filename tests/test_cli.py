"""Configuration parsing, pipeline orchestration, and the command line."""

import argparse
import collections
import contextlib
import gc
import io
import json
import re
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import levo
from levo import cli, gecc, ideals
from levo.cli import (
    EXIT_CERTIFIED,
    EXIT_GENERICITY,
    EXIT_INPUT,
    main,
    parse_config,
    prepare_job,
    randomize_coordinates,
    report_to_json,
    report_to_text,
    run_pipeline,
)
from levo.errors import InputError
from levo.geom import conormal_ideal
from levo.ideals import Ideal
from levo.poly import PolyRing, rational
from test_golden import GOLDEN, JOBS


def two_plane_config(**overrides):
    doc = {
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
        "function": "(u^2 + x^2)^2 + y^2 + z^2",
        "point": [0, 0, 0, 0],
        "seed": 11,
    }
    doc.update(overrides)
    return doc


def cusp_config(**overrides):
    doc = {
        "variables": ["x", "y"],
        "sheaf": {
            "strata": [
                {"closure": [], "morse": {"2": {"rank": 1, "torsion": []}}}
            ]
        },
        "function": "x^2 + y^3",
        "point": [0, 0],
        "seed": 5,
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# parsing


def test_parse_valid_two_plane():
    cfg = parse_config(json.dumps(two_plane_config()))
    assert cfg.variables == ("u", "x", "y", "z")
    assert cfg.seed == 11


def test_missing_function_means_polar_mode():
    doc = cusp_config()
    del doc["function"]
    cfg = parse_config(json.dumps(doc))
    job = prepare_job(cfg)
    assert job.f.is_zero()


def test_noninvertible_matrix_rejected():
    doc = cusp_config(coordinate_order=[[1, 1], [1, 1]])
    with pytest.raises(InputError) as excinfo:
        parse_config(json.dumps(doc))
    assert "coordinate_order" in str(excinfo.value)


def test_error_paths_name_fields():
    with pytest.raises(InputError) as excinfo:
        parse_config(json.dumps({"variables": ["x"], "sheaf": {}, "point": [0]}))
    assert "sheaf" in str(excinfo.value)
    bad = cusp_config(point=[0])
    with pytest.raises(InputError) as excinfo2:
        parse_config(json.dumps(bad))
    assert "point" in str(excinfo2.value)
    bad2 = cusp_config()
    bad2["sheaf"]["strata"][0]["morse"] = {"2": {"rank": -1, "torsion": []}}
    with pytest.raises(InputError) as excinfo3:
        prepare_job(parse_config(json.dumps(bad2)))
    assert "morse" in str(excinfo3.value)
    bad3 = cusp_config(af_partition=[["x", "y +"]])
    with pytest.raises(InputError) as excinfo4:
        prepare_job(parse_config(json.dumps(bad3)))
    assert "af_partition[0][1]" in str(excinfo4.value)


def test_bad_json_reports_line():
    with pytest.raises(InputError) as excinfo:
        parse_config("{\n  broken\n}")
    assert "line" in str(excinfo.value)


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text('{"a":' * 100000 + "1" + "}" * 100000, encoding="utf-8")
    assert main(["compute", "--input", str(job)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: invalid JSON: nested too deeply")


def test_integer_past_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # json.dumps refuses such an integer too, so the job is written as text
    text = json.dumps(cusp_config())
    assert '"seed": 5' in text
    job = tmp_path / "job.json"
    job.write_text(text.replace('"seed": 5', '"seed": 1' + "0" * 5000), encoding="utf-8")
    assert main(["compute", "--input", str(job)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: invalid JSON: ")


def test_seed_whose_retries_outgrow_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # a 4299-digit seed prints, but its first retry seed, seed * 7919 + 1,
    # has more digits than an int may print
    doc = json.loads((GOLDEN / "retry.json").read_text(encoding="utf-8"))
    doc["seed"] = int("1" * 4299)
    job = _write_config(tmp_path, doc)
    assert main(["compute", "--input", job, "--retry", "3"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: seed: ")


@pytest.mark.parametrize("argv", [
    ["compute"],
    ["compute", "--input", "job.json", "--retry", "abc"],
    ["compute", "--input", "job.json", "--retry", "-1"],
    ["compute", "--input", "job.json", "--retry", "101"],
], ids=["missing-input", "retry-not-an-int", "retry-negative", "retry-above-the-bound"])
def test_usage_error_exits_as_an_input_error(capsys, argv):
    # argparse's own exit code, 2, is the uncertified exit
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == EXIT_INPUT
    assert "error: " in capsys.readouterr().err


def test_retry_bound_keeps_every_retry_seed_printable():
    for n in (0, cli.MAX_RETRIES):
        assert cli._PARSER.parse_args(["compute", "--input", "j", "--retry", str(n)]).retry == n
    # 640 digits is the least limit sys.set_int_max_str_digits allows
    for seed in (-2**63, 2**63 - 1):
        for _ in range(cli.MAX_RETRIES):
            seed = seed * 7919 + 1
        assert len(str(abs(seed))) < 640


def test_permutation_coordinate_order():
    # the first working coordinate reads the old y, so the cusp becomes
    # y-leading: x^2 + y^3 with (x, y) swapped
    doc = cusp_config(coordinate_order=["y", "x"])
    cfg = parse_config(json.dumps(doc))
    job = prepare_job(cfg)
    assert job.f == job.base.parse("y^2 + x^3")


def test_classical_line_with_embedded_point():
    # f = x^2*y has a one-dimensional critical locus along V(x); with the
    # slicing flag led by the old y, the classical pair of numbers is
    # (1, 2): one for the line, two at the point
    doc = cusp_config(function="x^2*y", coordinate_order=["y", "x"])
    report, code = run_pipeline(parse_config(json.dumps(doc)))
    assert code == EXIT_CERTIFIED
    assert report["levo_modules"]["2"]["1"] == {"rank": 1, "torsion": []}
    assert report["levo_modules"]["2"]["0"] == {"rank": 2, "torsion": []}
    assert report["euler"]["signed_sum"] == 1


def test_three_variable_isolated_point():
    doc = {
        "variables": ["x", "y", "z"],
        "sheaf": {
            "strata": [{"closure": [], "morse": {"3": {"rank": 1, "torsion": []}}}]
        },
        "function": "x^2 + y^2 + z^3",
        "point": [0, 0, 0],
        "seed": 4,
    }
    report, code = run_pipeline(parse_config(json.dumps(doc)))
    assert code == EXIT_CERTIFIED
    assert report["levo_modules"] == {"3": {"0": {"rank": 2, "torsion": []}}}


def test_direct_gecc_matches_strata_route():
    strata_report, _ = run_pipeline(parse_config(json.dumps(cusp_config())))
    direct = {
        "variables": ["x", "y"],
        "sheaf": {
            "gecc": {
                "2": [{"ideal": ["w_0", "w_1"], "module": {"rank": 1, "torsion": []}}]
            }
        },
        "function": "x^2 + y^3",
        "point": [0, 0],
        "seed": 5,
    }
    direct_report, code = run_pipeline(parse_config(json.dumps(direct)))
    assert code == EXIT_CERTIFIED
    assert direct_report["levo_modules"] == strata_report["levo_modules"]
    assert direct_report["euler"] == strata_report["euler"]


def test_direct_gecc_with_matrix_transform():
    # the zero section is invariant under the cotangent transformation
    direct = {
        "variables": ["x", "y"],
        "sheaf": {
            "gecc": {
                "2": [{"ideal": ["w_0", "w_1"], "module": {"rank": 1, "torsion": []}}]
            }
        },
        "function": "x^2 + y^2",
        "point": [0, 0],
        "coordinate_order": [[1, 1], [0, 1]],
        "seed": 5,
    }
    report, code = run_pipeline(parse_config(json.dumps(direct)))
    assert code == EXIT_CERTIFIED
    assert report["levo_modules"] == {"2": {"0": {"rank": 1, "torsion": []}}}


def test_no_modules_beyond_support_dimension_when_certified():
    report, _ = run_pipeline(parse_config(json.dumps(two_plane_config())))
    d = report["certificate"]["d"]
    for degs in report["levo_modules"].values():
        for j in degs:
            assert int(j) <= d


def test_reserved_cotangent_names_rejected():
    doc = cusp_config(variables=["w_0", "y"])
    doc["sheaf"] = {"strata": [{"closure": [], "morse": {"2": {"rank": 1, "torsion": []}}}]}
    doc["function"] = "w_0^2 + y^2"
    doc["point"] = [0, 0]
    with pytest.raises(InputError):
        parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# pipeline behavior


def test_two_plane_pipeline_report():
    cfg = parse_config(json.dumps(two_plane_config()))
    report, code = run_pipeline(cfg)
    assert code == EXIT_CERTIFIED
    assert report["mode"] == "levo"
    assert report["levo_modules"]["1"]["0"] == {"rank": 1, "torsion": []}
    assert report["levo_modules"]["2"]["1"] == {"rank": 2, "torsion": []}
    assert report["levo_modules"]["2"]["0"] == {"rank": 4, "torsion": []}
    assert report["certificate"]["status"] == "certified"
    assert report["certificate"]["d"] == 1
    assert report["euler"]["signed_sum"] == 1
    assert report["transversality"]["plane-yz"]["verdict"] is False
    assert report["transversality"]["plane-ux"]["verdict"] is True


def test_cusp_pipeline_report():
    cfg = parse_config(json.dumps(cusp_config()))
    report, code = run_pipeline(cfg)
    assert code == EXIT_CERTIFIED
    assert report["levo_modules"] == {"2": {"0": {"rank": 2, "torsion": []}}}
    assert report["certificate"]["d"] == 0


def test_polar_mode_report_keys():
    doc = cusp_config(function="0")
    report, code = run_pipeline(parse_config(json.dumps(doc)))
    assert report["mode"] == "polar"
    assert "polar_modules" in report and "levo_modules" not in report


def test_genericity_failure_exit_code_and_retry():
    doc = {
        "variables": ["x", "y"],
        "sheaf": {
            "strata": [{"closure": [], "morse": {"2": {"rank": 1, "torsion": []}}}]
        },
        "function": "x^2*y^2",
        "point": [0, 0],
        "seed": 3,
    }
    cfg = parse_config(json.dumps(doc))
    report, code = run_pipeline(cfg)
    assert code == EXIT_GENERICITY
    assert report["certificate"]["status"] == "failed"
    report2, code2 = run_pipeline(cfg, retries=3)
    assert code2 == EXIT_CERTIFIED
    assert report2["certificate"]["status"] == "certified"
    assert report2["retry"]["seeds"]


def test_determinism_byte_identical(tmp_path, capsys):
    doc = json.dumps(two_plane_config())
    r1, _ = run_pipeline(parse_config(doc))
    r2, _ = run_pipeline(parse_config(doc))
    assert report_to_json(r1) == report_to_json(r2)
    # --timing writes to stderr only
    path = _write_config(tmp_path, two_plane_config())
    main(["compute", "--input", path])
    plain = capsys.readouterr()
    main(["compute", "--input", path, "--timing"])
    timed = capsys.readouterr()
    assert plain.out == timed.out == report_to_json(r1)
    assert plain.err == ""
    assert "algebra cache: buchberger " in timed.err
    assert re.search(r"; S-pairs \d+ reduced, \d+ to zero$", timed.err, re.M)
    # the largest kernel coefficient, next to the S-pair counts
    assert re.search(r"; coefficients up to \d+ bits; S-pairs ", timed.err)


def test_run_pipeline_cache_ends_with_the_run(cache_calls):
    # fails genericity first, so the run includes retries
    cfg = parse_config(json.dumps(cusp_config(function="x^2*y^2", seed=3)))
    caches = []
    for _ in range(2):
        report, _ = run_pipeline(cfg, retries=3)
        assert report["retry"]["seeds"]
        assert ideals._CACHE.get() is None
        first, entries = cache_calls[0]
        assert all(cache is first for cache, _ in cache_calls)
        assert entries == 0  # every run starts empty
        caches.append(first)
        cache_calls.clear()
    assert caches[0] is not None and caches[0] is not caches[1]


def test_only_the_reported_attempt_builds_report_sections(monkeypatch):
    calls = []

    def spy(G, images, _original=cli.polar_support_sets):
        calls.append(G)
        return _original(G, images)

    monkeypatch.setattr(cli, "polar_support_sets", spy)
    # the first attempt fails genericity and the second one is reported
    cfg = parse_config(json.dumps(cusp_config(function="x^2*y^2", seed=3)))
    report, code = run_pipeline(cfg, retries=3)
    assert code == EXIT_CERTIFIED and len(report["retry"]["seeds"]) == 1
    assert len(calls) == 1
    # a failure with no retry left keeps every section
    calls.clear()
    report, code = run_pipeline(cfg)
    assert code == EXIT_GENERICITY and len(calls) == 1
    for key in ("support", "critical_locus", "polar_supports", "polar_varieties",
                "transversality", "support_assertions", "certificate", "failure"):
        assert key in report


def test_each_visible_stratum_conormal_is_computed_once(monkeypatch):
    closures = []

    def spy(I, full_ring, _original=gecc.conormal_ideal):
        closures.append(I)
        return _original(I, full_ring)

    monkeypatch.setattr(gecc, "conormal_ideal", spy)
    run_pipeline(parse_config(json.dumps(two_plane_config())))
    assert len(closures) == 3 and len(set(closures)) == 3


MATRICES = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(-9, 9, max_denominator=4), min_size=n, max_size=n),
    min_size=n, max_size=n,
))


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_matrix_inverse_matches_sympy(M):
    M = [[rational(x) for x in row] for row in M]
    reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                              for row in M])
    inverse = cli._mat_inverse(M)
    if reference.det() == 0:
        assert inverse is None
    else:
        assert inverse == [[Fraction(int(x.p), int(x.q)) for x in row]
                           for row in reference.inv().tolist()]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), n=st.integers(1, 5),
       singular=st.booleans())
def test_matrix_inverse_is_an_inverse_or_none(seed, n, singular):
    # M times the inverse is the identity; a row that combines the others
    # (the zero row when n = 1) makes M singular and the inverse None
    rng = random.Random(seed)
    M = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    if singular:
        i = rng.randrange(n)
        weights = [0 if k == i else rng.randint(-2, 2) for k in range(n)]
        M[i] = [sum(a * row[j] for a, row in zip(weights, M)) for j in range(n)]
    M = [[rational(x) for x in row] for row in M]
    inverse = cli._mat_inverse(M)
    if inverse is None:
        assert sympy.Matrix(M).det() == 0
    else:
        assert not singular and cli._mat_mul(M, inverse) == cli._identity(n)


def test_randomize_coordinates_deterministic():
    cfg = parse_config(json.dumps(cusp_config()))
    a = randomize_coordinates(cfg, 42)
    b = randomize_coordinates(cfg, 42)
    assert a.matrix == b.matrix
    c = randomize_coordinates(cfg, 43)
    assert c.matrix != a.matrix


def test_coordinate_free_outputs_invariant_under_generic_change():
    base_doc = json.dumps(cusp_config())
    ref, code = run_pipeline(parse_config(base_doc))
    assert code == EXIT_CERTIFIED
    found = 0
    seed = 0
    while found < 2 and seed < 12:
        seed += 1
        cfg = randomize_coordinates(parse_config(base_doc), seed)
        report, code = run_pipeline(cfg)
        if code != EXIT_CERTIFIED:
            continue
        found += 1
        assert report["certificate"]["d"] == ref["certificate"]["d"]
        assert report["euler"]["signed_sum"] == ref["euler"]["signed_sum"]
        assert sorted(
            (k, j, tuple(sorted(m.items())))
            for k, degs in report["levo_modules"].items()
            for j, m in degs.items()
        ) == sorted(
            (k, j, tuple(sorted(m.items())))
            for k, degs in ref["levo_modules"].items()
            for j, m in degs.items()
        )
    assert found == 2


def test_rank_only_mode_strips_torsion():
    doc = cusp_config()
    doc["sheaf"]["strata"][0]["morse"]["2"]["torsion"] = [2]
    with_torsion, _ = run_pipeline(parse_config(json.dumps(doc)))
    assert with_torsion["levo_modules"]["2"]["0"]["torsion"] == [2, 2]
    doc["rank_only"] = True
    stripped, _ = run_pipeline(parse_config(json.dumps(doc)))
    assert stripped["levo_modules"]["2"]["0"] == {"rank": 2, "torsion": []}


def test_af_partition_route_upgrades_certificate():
    # a three-dimensional critical locus: the small-dimension certificate
    # cannot apply, but flag transversality to the hypersurface strata can
    doc = {
        "variables": ["u", "x", "y", "z"],
        "sheaf": {
            "strata": [
                {"closure": [], "morse": {"4": {"rank": 1, "torsion": []}}}
            ]
        },
        "function": "(u + x + y + z)^2",
        "point": [0, 0, 0, 0],
        "seed": 2,
        "af_partition": [["u + x + y + z"]],
    }
    # af_partition generators are in input coordinates, like the function;
    # read without the coordinate change, V(u + x + y) would contain the
    # last working coordinate axis and fail the flag transversality
    moved = dict(
        doc,
        function="(u + x + y)^2",
        af_partition=[["u + x + y"]],
        coordinate_order=[[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )
    for job in (doc, moved):
        report, code = run_pipeline(parse_config(json.dumps(job)))
        assert report["certificate"]["d"] == 3
        assert report["certificate"]["status"] == "certified"
        assert report["certificate_route"] == "essential-transversality"
        assert report["levo_modules"] == {"4": {"3": {"rank": 1, "torsion": []}}}
        assert code == EXIT_CERTIFIED


def test_af_partition_conormals_are_computed_only_for_the_upgrade(monkeypatch):
    calls = []

    def spy(I, full_ring, _original=gecc.conormal_ideal):
        calls.append(I)
        return _original(I, full_ring)

    monkeypatch.setattr(gecc, "conormal_ideal", spy)

    def conormals_built(doc):
        calls.clear()
        report, _ = run_pipeline(parse_config(json.dumps(doc)))
        return report, len(calls)

    # a certified run builds the strata conormals and no partition conormal
    report, built = conormals_built(two_plane_config(af_partition=[["u", "x"], ["y", "z"]]))
    assert report["certificate"]["status"] == "certified"
    assert "af_partition_transversality" not in report
    assert built == conormals_built(two_plane_config())[1] == 3
    # a proper-uncertified one builds one more per partition stratum
    doc = json.loads((GOLDEN / "polar_af_partition.json").read_text(encoding="utf-8"))
    report, built = conormals_built(doc)
    assert report["af_partition_transversality"]
    del doc["af_partition"]
    assert built == conormals_built(doc)[1] + 1


def test_af_partition_conormal_is_checked_like_a_strata_conormal(tmp_path, capsys):
    doc = json.loads((GOLDEN / "polar_af_partition.json").read_text(encoding="utf-8"))

    def run(partition):
        path = _write_config(tmp_path, dict(doc, af_partition=partition))
        code = main(["compute", "--input", path])
        out, err = capsys.readouterr()
        return code, json.loads(out)["af_partition_transversality"] if out else err

    # the first hyperplane of the working coordinates is not transverse
    hyperplane = "-3*u - 2*x + 2*y + z"
    assert run([[hyperplane]]) == (2, {"stratum_0": False})
    # squared, the same locus made the conormal the unit ideal, whose
    # empty walk passed the transversality check
    unit = "conormal computation failed for stratum_%d: got dimension -1, not 4\n"
    squared = ["(%s)^2" % hyperplane]
    assert run([squared]) == (EXIT_INPUT, "input error: af_partition[0]: " + unit % 0)
    assert run([["u"], squared]) == (EXIT_INPUT, "input error: af_partition[1]: " + unit % 1)


def test_empty_af_partition_locus_is_an_input_error_on_the_upgrade_route(tmp_path, capsys):
    # read only on that route, it failed in geom and named no field;
    # BAD_FIELDS holds the certified case, which never read it
    doc = json.loads((GOLDEN / "polar_af_partition.json").read_text(encoding="utf-8"))
    doc["af_partition"] = [["u"], ["1"]]
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: af_partition[1]: the locus is empty\n"


def test_two_strata_with_one_conormal_are_an_input_error(tmp_path, capsys):
    # one cusp stratum's conormal is computed, the other's is given
    ring = PolyRing(["x", "y"], ("w_0", "w_1"))
    cusp = Ideal(ring.base_ring(), ["y^2 - x^3"])
    conormal = conormal_ideal(cusp, ring).generator_strings()
    doc = cusp_config()
    doc["sheaf"]["strata"] = [
        {"closure": ["y^2 - x^3"], "morse": {"1": {"rank": 1}}},
        {"closure": ["y^2 - x^3"], "conormal": conormal, "morse": {"1": {"rank": 2}},
         "label": "cusp"},
    ]
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: strata V(x^3 - y^2) and cusp have the same conormal\n"
    )


def test_support_assertions_present():
    report, _ = run_pipeline(parse_config(json.dumps(two_plane_config())))
    names = {a["name"]: a["holds"] for a in report["support_assertions"]}
    assert names == {
        "critical-locus-inside-support": True,
        "point-conormal-summands-reach-the-critical-locus": True,
    }


def test_report_projects_each_cycle_component_once(monkeypatch):
    # the support section projects each distinct component of the
    # reported cycle once; every later cut of the run reads its image
    # from there, so no elimination of a cycle component happens twice
    cycles = []
    projected = []
    real = ideals.eliminate

    def build(spec, _real=cli.build_gecc):
        cycles.append(_real(spec))
        return cycles[-1]

    def spy(ideal, drop_vars):
        cot = ideal.ring.cotangent_vars
        if cot and set(drop_vars) == set(cot):
            projected.append(ideal)
        return real(ideal, drop_vars)

    monkeypatch.setattr(cli, "build_gecc", build)
    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "levo"]:
        if getattr(module, "eliminate", None) is real:
            monkeypatch.setattr(module, "eliminate", spy)
    for name, argv, _ in JOBS:
        cycles.clear()
        projected.clear()
        cfg = parse_config((GOLDEN / (name + ".json")).read_text(encoding="utf-8"))
        run_pipeline(cfg, retries=int(argv[1]) if argv else 0)
        components = {P for G in cycles for P in G.components()}
        counts = collections.Counter(P for P in projected if P in components)
        assert counts == {P: 1 for P in cycles[-1].components()}, name


def test_text_format_prints_cycles():
    cfg = parse_config(json.dumps(cusp_config(format="text")))
    report, _ = run_pipeline(cfg)
    text = report_to_text(report)
    assert "Z^2 [V(y, x)]" in text
    assert "certificate: certified" in text


# ---------------------------------------------------------------------------
# command line entry point


def _write_config(tmp_path, doc):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_compute(tmp_path, capsys):
    path = _write_config(tmp_path, cusp_config())
    code = main(["compute", "--input", path])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert payload["levo_modules"]["2"]["0"]["rank"] == 2


def test_cli_compute_retry_flag(tmp_path, capsys):
    doc = cusp_config(function="x^2*y^2", seed=3)
    path = _write_config(tmp_path, doc)
    assert main(["compute", "--input", path]) == EXIT_GENERICITY
    capsys.readouterr()
    assert main(["compute", "--input", path, "--retry", "3"]) == EXIT_CERTIFIED


def test_redundant_closure_generators_give_the_same_report(tmp_path, capsys):
    def report(origin):
        doc = cusp_config()
        doc["sheaf"]["strata"].append(
            {"closure": origin, "morse": {"1": {"rank": 1, "torsion": []}}, "label": "origin"}
        )
        code = main(["compute", "--input", _write_config(tmp_path, doc)])
        payload = json.loads(capsys.readouterr().out)
        del payload["config"]
        return code, payload

    assert report(["x", "y", "x*y"]) == report(["x", "y"])


def test_failed_conormal_is_an_input_error(tmp_path, capsys):
    # the construction needs reduced closure generators: for x^2 the
    # conormal comes out empty
    doc = cusp_config()
    doc["sheaf"]["strata"].append(
        {"closure": ["x^2"], "morse": {"1": {"rank": 1, "torsion": []}}, "label": "line"}
    )
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_INPUT
    assert "conormal computation failed for line" in capsys.readouterr().err


def _stratum(doc, **fields):
    doc["sheaf"]["strata"][0].update(fields)
    return doc


def _second_stratum_labelled_s(doc):
    _stratum(doc, label="s")
    doc["sheaf"]["strata"].append(
        {"closure": ["x", "y"], "morse": {"1": {"rank": 1, "torsion": []}}, "label": "s"}
    )
    return doc


def _direct_gecc(doc):
    doc["sheaf"] = {"gecc": {"1_0": [{"ideal": ["w_0", "w_1"], "module": {"rank": 1}}]}}
    return doc


def _direct_gecc_past_the_rank_bound(doc):
    doc["sheaf"] = {"gecc": {"2": [{"ideal": ["w_0", "w_1"], "module": {"rank": 2**63}}]}}
    return doc


def _direct_gecc_repeating_a_degree(doc):
    comp = [{"ideal": ["w_0", "w_1"], "module": {"rank": 1}}]
    doc["sheaf"] = {"gecc": {"0": comp, "-0": comp}}
    return doc


def _direct_gecc_of_the_wrong_dimension(doc):
    doc["sheaf"] = {"gecc": {"0": [{"ideal": ["x", "y", "w_0"], "module": {"rank": 1}}]}}
    return doc


def _rename(doc, path, old, new):
    """doc with the key `old` of the object at `path` renamed `new`."""
    target = doc
    for key in path:
        target = target[key]
    target[new] = target.pop(old)
    return doc


def _direct_gecc_with_an_unknown_key(doc):
    doc["sheaf"] = {"gecc": {"2": [{"ideal": ["w_0", "w_1"], "module": {"rank": 1},
                                    "label": "zero section"}]}}
    return doc


# (case, change to the cusp job, path the message must start with)
BAD_FIELDS = [
    # a misspelt key would drop what it names and the job would run
    ("stratum-key-misspelt", lambda d: _rename(d, ("sheaf", "strata", 0), "morse", "mores"),
     "sheaf.strata[0]"),
    ("module-key-torsion-misspelt",
     lambda d: _rename(d, ("sheaf", "strata", 0, "morse", "2"), "torsion", "torsoin"),
     "sheaf.strata[0].morse[2]"),
    ("module-key-rank-misspelt",
     lambda d: _rename(d, ("sheaf", "strata", 0, "morse", "2"), "rank", "rnak"),
     "sheaf.strata[0].morse[2]"),
    ("top-level-key-misspelt", lambda d: dict(d, coordinate_ordr=["y", "x"]), "$"),
    ("sheaf-key-unknown", lambda d: dict(d, sheaf=dict(d["sheaf"], dimension=2)), "sheaf"),
    ("gecc-component-key-unknown", _direct_gecc_with_an_unknown_key, "sheaf.gecc[2][0]"),
    ("rank_only-string", lambda d: dict(d, rank_only="false"), "rank_only"),
    ("label-number", lambda d: _stratum(d, label=5), "sheaf.strata[0].label"),
    ("label-list", lambda d: _stratum(d, label=["a"]), "sheaf.strata[0].label"),
    ("label-repeated", _second_stratum_labelled_s, "sheaf.strata[1].label"),
    ("seed-true", lambda d: dict(d, seed=True), "seed"),
    ("seed-past-64-bits", lambda d: dict(d, seed=2**63), "seed"),
    ("seed-below-64-bits", lambda d: dict(d, seed=-2**63 - 1), "seed"),
    # no stratum to check would certify vacuously
    ("af_partition-empty", lambda d: dict(d, af_partition=[]), "af_partition"),
    ("af_partition-empty-stratum", lambda d: dict(d, af_partition=[[]]), "af_partition[0]"),
    ("af_partition-zero-stratum", lambda d: dict(d, af_partition=[["x"], ["0"]]),
     "af_partition[1]"),
    ("af_partition-empty-locus", lambda d: dict(d, af_partition=[["x"], ["1"]]),
     "af_partition[1]"),
    ("expected_euler-true", lambda d: dict(d, expected_euler=True), "expected_euler"),
    ("point-true", lambda d: dict(d, point=[True, 0]), "point[0]"),
    ("point-exponent", lambda d: dict(d, point=["1e2", 0]), "point[0]"),
    # Fraction() would expand this to ten million digits
    ("point-huge-exponent", lambda d: dict(d, point=["1e10000000", 0]), "point[0]"),
    ("coordinate_order-exponent", lambda d: dict(d, coordinate_order=[["1e2", 0], [0, 1]]),
     "coordinate_order[0][0]"),
    ("morse-rank-true", lambda d: _stratum(d, morse={"2": {"rank": True}}),
     "sheaf.strata[0].morse[2].rank"),
    # a tensor product repeats the other factor's torsion rank times
    ("morse-rank-past-63-bits", lambda d: _stratum(d, morse={"2": {"rank": 2**63}}),
     "sheaf.strata[0].morse[2].rank"),
    ("gecc-rank-past-63-bits", _direct_gecc_past_the_rank_bound, "sheaf.gecc[2][0].module.rank"),
    ("gecc-component-wrong-dimension", _direct_gecc_of_the_wrong_dimension, "sheaf.gecc[0][0]"),
    ("morse-degree-underscore", lambda d: _stratum(d, morse={"1_0": {"rank": 1}}),
     "sheaf.strata[0].morse"),
    ("gecc-degree-underscore", _direct_gecc, "sheaf.gecc"),
    ("morse-degree-repeated", lambda d: _stratum(d, morse={"2": {"rank": 1}, "02": {"rank": 5}}),
     "sheaf.strata[0].morse"),
    ("gecc-degree-repeated", _direct_gecc_repeating_a_degree, "sheaf.gecc"),
    # int() refuses strings of more than sys.get_int_max_str_digits() digits
    ("morse-degree-long", lambda d: _stratum(d, morse={"1" * 5000: {"rank": 1}}),
     "sheaf.strata[0].morse"),
    ("function-long-literal", lambda d: dict(d, function="x^2 + %s*y^3" % ("7" * 5000)),
     "function"),
    ("dimension-string", lambda d: _stratum(d, dimension="2"), "sheaf.strata[0].dimension"),
    ("strata-number", lambda d: dict(d, sheaf={"strata": 5}), "sheaf.strata"),
    ("conormal-number", lambda d: _stratum(d, conormal=5), "sheaf.strata[0].conormal"),
    # a name the polynomial grammar cannot write back
    ("variables-space", lambda d: dict(d, variables=["x", "x y"]), "variables[1]"),
    ("variables-leading-digit", lambda d: dict(d, variables=["2", "y"]), "variables[0]"),
    ("variables-star", lambda d: dict(d, variables=["x", "*"]), "variables[1]"),
    ("variables-empty", lambda d: dict(d, variables=["", "y"]), "variables[0]"),
]


@pytest.mark.parametrize("change, path", [c[1:] for c in BAD_FIELDS],
                         ids=[c[0] for c in BAD_FIELDS])
def test_malformed_field_is_an_input_error_naming_its_path(tmp_path, capsys, change, path):
    doc = change(cusp_config())
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: %s: " % path)


@pytest.fixture
def no_groebner_basis(monkeypatch):
    def refuse(generators, key):
        raise AssertionError("a Groebner basis was computed")

    monkeypatch.setattr(ideals, "_buchberger", refuse)


# these need the working bases: a default label is read off a basis, and
# a dimension or an empty locus needs one; no other case does
NEEDS_A_BASIS = ("label-repeated", "af_partition-empty-locus", "gecc-component-wrong-dimension")
PARSE_TIME = [c for c in BAD_FIELDS if c[0] not in NEEDS_A_BASIS]


@pytest.mark.parametrize("change, path", [c[1:] for c in PARSE_TIME],
                         ids=[c[0] for c in PARSE_TIME])
def test_malformed_field_fails_in_parse_config_before_any_algebra(no_groebner_basis, change,
                                                                   path):
    with pytest.raises(InputError) as excinfo:
        parse_config(json.dumps(change(cusp_config())))
    assert str(excinfo.value).startswith("%s: " % path)


def test_unknown_key_message_names_the_key():
    doc = _rename(cusp_config(), ("sheaf", "strata", 0), "morse", "mores")
    with pytest.raises(InputError, match=r"^sheaf\.strata\[0\]: unknown key 'mores'$"):
        parse_config(json.dumps(doc))


def test_af_partition_typo_fails_before_the_conormals_are_built(no_groebner_basis):
    # the conormal of the first stratum, two quadrics in C^4, takes seconds
    doc = {
        "variables": ["x", "y", "z", "u"],
        "sheaf": {"strata": [
            {"closure": ["2*x^2 + 2*x*y + 4*z^2", "y*z + z*u - 4*y"],
             "morse": {"0": {"rank": 1}}},
            {"closure": ["x", "y", "z", "u"], "morse": {"0": {"rank": 1}}},
        ]},
        "point": [0, 0, 0, 0],
        "af_partition": [["x^"]],
    }
    with pytest.raises(InputError, match=r"^af_partition\[0\]\[0\]: "):
        parse_config(json.dumps(doc))


def test_each_polynomial_string_is_parsed_once_under_retry(monkeypatch, capsys):
    parsed = []

    def counting(ring, text, _original=PolyRing.parse):
        parsed.append(text)
        return _original(ring, text)

    monkeypatch.setattr(PolyRing, "parse", counting)
    job = str(GOLDEN / "retry.json")
    assert main(["compute", "--input", job, "--retry", "3"]) == EXIT_CERTIFIED
    assert json.loads(capsys.readouterr().out)["retry"]["seeds"]
    assert parsed == ["x^2*y"]


@pytest.mark.parametrize("command", ["compute", "gecc"])
@pytest.mark.parametrize("fields, message", [
    ({"conormal": []}, "explicit conormal of V() has dimension 4, not 2"),
    ({"conormal": ["1"]}, "explicit conormal of V() has dimension -1, not 2"),
    ({"closure": ["1"]}, "conormal computation failed for V(1): the closure is empty"),
], ids=["conormal-zero-ideal", "conormal-unit-ideal", "closure-unit-ideal"])
def test_stratum_conormal_of_the_wrong_dimension_is_an_input_error(tmp_path, capsys, command,
                                                                   fields, message):
    # found while the sheaf is specified, before any decomposition
    doc = _stratum(cusp_config(), **fields)
    assert main([command, "--input", _write_config(tmp_path, doc)]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: %s\n" % message


def test_direct_gecc_component_of_the_wrong_dimension_is_an_input_error(tmp_path, capsys):
    # levo gecc printed the component; compute failed inside the decomposition
    doc = _direct_gecc_of_the_wrong_dimension(cusp_config())
    assert main(["gecc", "--input", _write_config(tmp_path, doc)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: sheaf.gecc[0][0]: the component has dimension 1, not 2\n"
    )


def test_the_largest_morse_rank_runs(tmp_path):
    doc = json.loads((GOLDEN / "polar_curve.json").read_text(encoding="utf-8"))
    stratum = doc["sheaf"]["strata"][0]
    stratum["morse"] = {k: {"rank": 2**63 - 1} for k in stratum["morse"]}
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_CERTIFIED


@pytest.mark.parametrize("torsion", [[], [4]], ids=["free", "torsion"])
def test_ranks_that_sum_past_63_bits_run(tmp_path, capsys, torsion):
    # each rank is inside the per-field bound; the cycle adds them
    doc = json.loads((GOLDEN / "polar_gecc.json").read_text(encoding="utf-8"))
    entry = {"ideal": ["z", "w_0", "w_1"], "module": {"rank": 2**63 - 1, "torsion": torsion}}
    doc["sheaf"]["gecc"]["0"] = [entry, entry]
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_CERTIFIED
    module = json.loads(capsys.readouterr().out)["polar_modules"]["0"]["2"]
    assert module == {"rank": 2**64 - 2, "torsion": torsion * 2}


# (case, text of the cusp job, its replacement naming a key twice, path
# of the object that names it)
REPEATED_KEYS = [
    ("morse-degree", '"morse": {"2": {"rank": 1, "torsion": []}}',
     '"morse": {"2": {"rank": 1}, "2": {"rank": 5}}', "sheaf.strata[0].morse"),
    ("module-rank", '{"rank": 1, "torsion": []}', '{"rank": 1, "rank": 5}',
     "sheaf.strata[0].morse[2]"),
    ("top-level-seed", '"seed": 5', '"seed": 5, "seed": 6', "$"),
    # the inner object naming "rank" twice is dropped by the outer repeat
    ("nested-under-repeat", '"morse": {"2": {"rank": 1, "torsion": []}}',
     '"morse": {"2": {"rank": 1, "rank": 5}, "2": {"rank": 1}}', "sheaf.strata[0].morse"),
]


@pytest.mark.parametrize("old, new, path", [c[1:] for c in REPEATED_KEYS],
                         ids=[c[0] for c in REPEATED_KEYS])
def test_repeated_key_is_an_input_error_naming_its_path(tmp_path, capsys, old, new, path):
    text = json.dumps(cusp_config())
    assert old in text
    job = tmp_path / "job.json"
    job.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["compute", "--input", str(job)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: %s: repeated key" % path)


def direct_cusp_config():
    component = {"ideal": ["w_0", "w_1"], "module": {"rank": 1, "torsion": []}}
    return cusp_config(sheaf={"gecc": {"2": [component]}})


TOP_LEVEL = ("variables", "function", "point", "coordinate_order", "seed",
             "af_partition", "rank_only", "expected_euler", "format")
STRATUM = ("sheaf", "strata", 0)
COMPONENT = ("sheaf", "gecc", "2", 0)
# (valid job, path of the field to replace)
FIELD_PATHS = (
    [(job, (key,)) for job in (cusp_config, direct_cusp_config) for key in TOP_LEVEL]
    + [(cusp_config, STRATUM + (key,))
       for key in ("closure", "morse", "label", "conormal", "dimension")]
    + [(cusp_config, STRATUM + ("morse", "2", "torsion"))]
    + [(direct_cusp_config, COMPONENT + (key,)) for key in ("ideal", "module")]
)
NEAR_VALID = ("x", "y", "w_0", "x^2 + y^3", "0", "1/2", "-1", "2", "rank", "torsion",
              "1" * 5000)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
    | st.sampled_from(NEAR_VALID) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NEAR_VALID) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_any_json_in_one_field_is_accepted_or_an_input_error(field, value):
    job, path = field
    doc = job()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        prepare_job(parse_config(json.dumps(doc)))
    except InputError:
        pass


def test_slices_missing_the_component_are_drawn_again(tmp_path, capsys):
    # random slices parallel to the critical line x - 1/2*y once missed it
    # and ended this job as a genericity failure; degrees have no slices
    doc = {
        "variables": ["x", "y"],
        "sheaf": {
            "strata": [
                {"closure": ["x"], "morse": {"0": {"rank": 2, "torsion": [4]}}},
                {"closure": ["x", "y"], "morse": {"2": {"rank": 2, "torsion": []}}},
            ]
        },
        "point": [0, 0],
        "coordinate_order": [[3, -1], [1, -2]],
        "seed": 505183007,
    }
    assert main(["compute", "--input", _write_config(tmp_path, doc)]) == EXIT_CERTIFIED
    report = json.loads(capsys.readouterr().out)
    assert report["polar_modules"] == {
        "0": {"1": {"rank": 2, "torsion": [4]}},
        "2": {"0": {"rank": 2, "torsion": []}},
    }


def test_cli_check(tmp_path, capsys):
    path = _write_config(tmp_path, two_plane_config())
    code = main(["check", "--input", path])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    payload = json.loads(out)
    assert set(payload) >= {"certificate", "transversality", "warnings"}


def test_cli_gecc(tmp_path, capsys):
    path = _write_config(tmp_path, two_plane_config())
    code = main(["gecc", "--input", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert "degree 1" in out and "degree 2" in out


def test_cli_input_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"variables": []})
    assert main(["compute", "--input", path]) == EXIT_INPUT
    assert main(["compute", "--input", str(tmp_path / "missing.json")]) == EXIT_INPUT


def test_cli_seed_override(tmp_path, capsys):
    path = _write_config(tmp_path, cusp_config())
    code = main(["compute", "--input", path, "--seed", "99"])
    out = capsys.readouterr().out
    assert code == EXIT_CERTIFIED
    assert json.loads(out)["seed"] == 99


def test_job_seed_reaches_the_report_only_through_retry(capsys):
    # without --retry the seed is only echoed: nothing it could drive is random
    golden = str(Path(__file__).parent / "golden" / "two_plane.json")
    reports = []
    for seed in ("1", "2"):
        assert main(["compute", "--input", golden, "--seed", seed]) == EXIT_CERTIFIED
        report = json.loads(capsys.readouterr().out)
        del report["seed"], report["config"]["seed"]
        reports.append(report)
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# import boundary

SYMPY_LOADED = "print(any(m.split('.')[0] == 'sympy' for m in sys.modules))"


def _fresh_interpreter(code, env=None):
    """Standard output of `code` run by a new interpreter that imports
    this checkout's levo, with `env` added to its environment."""
    src = str(Path(levo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **(env or {}))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def test_import_leaves_sympy_unloaded():
    assert _fresh_interpreter("import sys, levo, levo.cli\n" + SYMPY_LOADED) == "False\n"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses imports inspect, ast, dis and tokenize: start-up time
    # and memory that every run would pay
    code = "import sys, levo, levo.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh_interpreter(code) == "[]\n"


def test_pipeline_runs_leave_no_reference_cycles():
    jobs = []
    for name, argv, _ in JOBS:
        cfg = parse_config((GOLDEN / (name + ".json")).read_text(encoding="utf-8"))
        jobs.append((cfg, int(argv[argv.index("--retry") + 1]) if "--retry" in argv else 0))

    def run_all():
        for cfg, retries in jobs:
            with ideals.algebra_cache():
                run_pipeline(cfg, retries=retries)

    run_all()  # the first runs fill module-level memos and lazy imports
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_all()
        gc.collect()
        left = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        assert not left, left.most_common(5)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_golden_jobs_through_main_leave_no_garbage():
    runs = [["compute", "--input", str(GOLDEN / (name + ".json"))] + argv
            for name, argv, _ in JOBS]

    def run_all():
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                main(argv)

    run_all()  # the first runs fill module-level memos and lazy imports
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_all()
        gc.collect()
        left = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        assert not left, left.most_common(5)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(), max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(), max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_report_json_matches_json_dumps(value):
    # st.characters() draws non-ASCII (astral too) and control characters
    assert report_to_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    job = str(GOLDEN / "isolated_milnor.json")
    assert [main(["compute", "--input", job]) for _ in range(2)] == [EXIT_CERTIFIED] * 2
    assert built == []


def test_polar_job_with_only_linear_factorizations_runs_without_sympy():
    # coordinate-subspace strata under an integer matrix
    job = Path(__file__).parent / "golden" / "polar_af_partition.json"
    code = (
        "import contextlib, io, sys\n"
        "from levo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['compute', '--input', %r])\n"
        "print(code)\n" % str(job)
        + SYMPY_LOADED
    )
    assert _fresh_interpreter(code) == "0\nFalse\n"


def test_golden_jobs_run_without_sympy():
    # two_plane_split factors u^3 + x^3, a nonlinear polynomial in two variables
    runs = [[str(GOLDEN / (name + ".json"))] + argv for name, argv, _ in JOBS]
    code = (
        "import contextlib, io, sys\n"
        "from levo.cli import main\n"
        "codes = []\n"
        "for run in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(['compute', '--input'] + run))\n"
        "print(codes)\n" % runs
        + SYMPY_LOADED
    )
    assert _fresh_interpreter(code) == "%s\nFalse\n" % [exit_code for _, _, exit_code in JOBS]


def test_golden_reports_do_not_depend_on_the_hash_seed():
    runs = [[str(GOLDEN / (name + ".json"))] + argv for name, argv, _ in JOBS]
    code = (
        "import contextlib, io, sys\n"
        "from levo.cli import main\n"
        "for run in %r:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['compute', '--input'] + run)\n"
        "    sys.stdout.buffer.write(b'%%d\\n' %% code + out.getvalue().encode('utf-8'))\n"
        % runs
    )
    expected = b"".join(
        b"%d\n" % exit_code + (GOLDEN / (name + ".stdout")).read_bytes()
        for name, _, exit_code in JOBS
    )
    stdout = _fresh_interpreter(code, env={"PYTHONHASHSEED": "12345"})
    assert stdout.encode("utf-8") == expected

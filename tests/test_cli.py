"""Configuration parsing, pipeline orchestration, and the command line."""

import json

import pytest

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
    cfg = parse_config(json.dumps(doc))
    with pytest.raises(InputError):
        prepare_job(cfg)


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


def test_determinism_byte_identical():
    doc = json.dumps(two_plane_config())
    r1, _ = run_pipeline(parse_config(doc))
    r2, _ = run_pipeline(parse_config(doc))
    assert report_to_json(r1) == report_to_json(r2)


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


def test_support_assertions_present():
    report, _ = run_pipeline(parse_config(json.dumps(two_plane_config())))
    names = {a["name"]: a["holds"] for a in report["support_assertions"]}
    assert names == {
        "critical-locus-inside-support": True,
        "point-conormal-summands-reach-the-critical-locus": True,
    }


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

"""Configuration ingestion, pipeline orchestration, and report emission.

A job is a single JSON document: the base variables, a sheaf given
either as strata or as a direct graded cycle, a function (absent or "0"
for the absolute polar mode), a rational query point, a coordinate order
(permutation or invertible integer matrix), and a seed.  Reports are
deterministic for a fixed (config, seed) pair.

Exit codes: 0 certified, 2 ran-but-uncertified, 3 genericity failure,
4 input error, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
import time
from fractions import Fraction

from .abgroups import AbGroup
from .cycles import EnrichedCycle, GradedEnrichedCycle
from .diagnostics import (
    essential_transversality,
    euler_check,
    failed_certificate,
    isolating_certificate,
    upgrade_by_transversality,
    zawatsky_complex,
)
from .errors import (
    EngineError,
    GenericityError,
    InputError,
    InternalError,
    PolynomialParseError,
)
from .gecc import SheafSpec, StratumSpec, build_gecc, critical_locus, support_of_gecc
from .geom import conormal_ideal, row_reduce
from .ideals import Ideal, eliminate
from .poly import PolyRing, Polynomial
from .vogel import decompose_all_degrees, polar_support_sets

EXIT_CERTIFIED = 0
EXIT_UNCERTIFIED = 2
EXIT_GENERICITY = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class JobConfig:
    """A validated job document; `raw` is the document as given."""

    variables: tuple
    sheaf: dict
    function: str
    point: tuple
    matrix: list
    seed: int
    fmt: str
    rank_only: bool
    expected_euler: int | None
    af_partition: list | None
    raw: dict


def _fail(path, message):
    raise InputError("%s: %s" % (path, message))


def _as_fraction(value, path):
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, int):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    _fail(path, "expected an integer or rational string, got %r" % (value,))


def _as_group(obj, path, rank_only=False):
    if not isinstance(obj, dict):
        _fail(path, "expected {rank, torsion[]}")
    rank = obj.get("rank", 0)
    torsion = obj.get("torsion", [])
    if not isinstance(rank, int) or rank < 0:
        _fail(path + ".rank", "expected a non-negative integer")
    if not isinstance(torsion, list) or not all(
        isinstance(d, int) and d >= 2 for d in torsion
    ):
        _fail(path + ".torsion", "expected a list of integers >= 2")
    return AbGroup(rank, () if rank_only else tuple(torsion))


def _identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _mat_inverse(M):
    n = len(M)
    reduced, pivots = row_reduce([list(row) + e for row, e in zip(M, _identity(n))], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in reduced]


def parse_config(text_or_dict):
    """Validate a job document; error messages carry the offending field."""
    if isinstance(text_or_dict, str):
        try:
            doc = json.loads(text_or_dict)
        except json.JSONDecodeError as exc:
            raise InputError("invalid JSON at line %d: %s" % (exc.lineno, exc.msg))
    else:
        doc = text_or_dict
    if not isinstance(doc, dict):
        _fail("$", "top level must be an object")

    variables = doc.get("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) and v for v in variables)
    ):
        _fail("variables", "expected a non-empty list of names")
    if len(set(variables)) != len(variables):
        _fail("variables", "names must be unique")
    n = len(variables)

    sheaf = doc.get("sheaf")
    if not isinstance(sheaf, dict) or ("strata" in sheaf) == ("gecc" in sheaf):
        _fail("sheaf", "expected exactly one of {strata: [...]} or {gecc: {...}}")

    rank_only = bool(doc.get("rank_only", False))

    function = doc.get("function")
    if function is None:
        function = "0"
    if not isinstance(function, str):
        _fail("function", "expected a polynomial string")

    point = doc.get("point")
    if not isinstance(point, list) or len(point) != n:
        _fail("point", "expected one coordinate per variable")
    point = tuple(_as_fraction(c, "point[%d]" % i) for i, c in enumerate(point))

    order = doc.get("coordinate_order")
    matrix = _identity(n)
    if order is not None:
        if isinstance(order, list) and all(isinstance(v, str) for v in order):
            if sorted(order) != sorted(variables):
                _fail("coordinate_order", "must be a permutation of the variables")
            # permutation matrix: new coordinate i reads old coordinate order[i]
            matrix = [
                [Fraction(1 if variables[j] == order[i] else 0) for j in range(n)]
                for i in range(n)
            ]
        elif isinstance(order, list) and all(isinstance(r, list) for r in order):
            if len(order) != n or any(len(r) != n for r in order):
                _fail("coordinate_order", "matrix must be %d x %d" % (n, n))
            matrix = [
                [_as_fraction(x, "coordinate_order[%d][%d]" % (i, j)) for j, x in enumerate(row)]
                for i, row in enumerate(order)
            ]
            if _mat_inverse(matrix) is None:
                _fail("coordinate_order", "matrix is not invertible")
        else:
            _fail("coordinate_order", "expected a permutation or a matrix")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        _fail("seed", "expected an integer")

    fmt = doc.get("format", "json")
    if fmt not in ("json", "text"):
        _fail("format", "expected 'json' or 'text'")

    expected_euler = doc.get("expected_euler")
    if expected_euler is not None and not isinstance(expected_euler, int):
        _fail("expected_euler", "expected an integer")

    af_partition = doc.get("af_partition")
    if af_partition is not None:
        if not isinstance(af_partition, list) or not all(
            isinstance(s, list) and all(isinstance(g, str) for g in s)
            for s in af_partition
        ):
            _fail("af_partition", "expected a list of generator-string lists")

    return JobConfig(
        variables=tuple(variables),
        sheaf=sheaf,
        function=function,
        point=point,
        matrix=matrix,
        seed=seed,
        fmt=fmt,
        rank_only=rank_only,
        expected_euler=expected_euler,
        af_partition=af_partition,
        raw=doc,
    )


def randomize_coordinates(cfg, seed):
    """Compose the coordinate matrix with a seeded random invertible
    integer matrix (entries in [-5, 5]); same seed, same matrix."""
    rng = random.Random(seed)
    n = len(cfg.variables)
    while True:
        R = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if _mat_inverse(R) is not None:
            break
    return dataclasses.replace(cfg, matrix=_mat_mul(R, cfg.matrix))


# ---------------------------------------------------------------------------
# building the working job (after the coordinate change)


@dataclasses.dataclass(frozen=True)
class PreparedJob:
    """A job in the working coordinates, ready for the pipeline."""

    ring: PolyRing
    base: PolyRing
    spec: SheafSpec
    f: Polynomial
    point: tuple
    strata_conormals: list
    af_partition: list | None
    cfg: JobConfig


def _cotangent_names(variables):
    names = tuple("w_%d" % i for i in range(len(variables)))
    if set(names) & set(variables):
        raise InputError("variables clash with reserved cotangent names w_0..w_n")
    return names


def _coordinate_change(ring, matrix, inverse):
    """The map rewriting a polynomial on `ring` in the new coordinates:
    base variable i becomes row i of the inverse matrix applied to the
    base variables, cotangent variable i becomes column i of the matrix
    applied to the cotangent variables."""
    n = len(ring.base_vars)
    sub = {}
    for i, name in enumerate(ring.base_vars):
        sub[name] = ring.linear_form(list(inverse[i]) + [0] * (ring.nvars - n))
    for i, name in enumerate(ring.cotangent_vars):
        sub[name] = ring.linear_form([0] * n + [matrix[j][i] for j in range(n)])
    return lambda p: p.subs(sub)


def prepare_job(cfg):
    n = len(cfg.variables)
    ring = PolyRing(cfg.variables, _cotangent_names(cfg.variables))
    base = ring.base_ring()
    if cfg.matrix == _identity(n):
        transform_base = transform_full = lambda p: p
    else:
        Minv = _mat_inverse(cfg.matrix)
        transform_base = _coordinate_change(base, cfg.matrix, Minv)
        transform_full = _coordinate_change(ring, cfg.matrix, Minv)

    def parse_base(text, path):
        try:
            return transform_base(base.parse(text))
        except PolynomialParseError as exc:
            raise InputError("%s: %s" % (path, exc))

    f = parse_base(cfg.function, "function")
    point = tuple(
        sum(cfg.matrix[i][j] * cfg.point[j] for j in range(n)) for i in range(n)
    )

    strata_conormals = []
    if "strata" in cfg.sheaf:
        strata = []
        for idx, s in enumerate(cfg.sheaf["strata"]):
            path = "sheaf.strata[%d]" % idx
            if not isinstance(s, dict):
                _fail(path, "expected an object")
            closure_gens = s.get("closure")
            if not isinstance(closure_gens, list):
                _fail(path + ".closure", "expected a list of generator strings")
            closure = Ideal(
                base, [parse_base(g, path + ".closure[%d]" % i) for i, g in enumerate(closure_gens)]
            )
            conormal = None
            if s.get("conormal") is not None:
                try:
                    conormal = Ideal(
                        ring, [transform_full(ring.parse(g)) for g in s["conormal"]]
                    )
                except PolynomialParseError as exc:
                    raise InputError("%s.conormal: %s" % (path, exc))
            morse_raw = s.get("morse", {})
            if not isinstance(morse_raw, dict):
                _fail(path + ".morse", "expected {degree: module}")
            morse = {}
            for key, mod in morse_raw.items():
                try:
                    k = int(key)
                except ValueError:
                    _fail(path + ".morse", "degree keys must be integers")
                morse[k] = _as_group(mod, path + ".morse[%s]" % key, cfg.rank_only)
            dim = s.get("dimension")
            try:
                stratum = StratumSpec(closure, morse, conormal=conormal, dim=dim,
                                      label=s.get("label"))
            except InputError as exc:
                raise InputError("%s: %s" % (path, exc))
            strata.append(stratum)
        spec = SheafSpec(ring, strata=strata)
        for s in strata:
            if s.is_visible():
                con = s.conormal if s.conormal is not None else conormal_ideal(
                    s.closure, ring
                )
                strata_conormals.append((s.label, con))
    else:
        gecc_raw = cfg.sheaf["gecc"]
        if not isinstance(gecc_raw, dict):
            _fail("sheaf.gecc", "expected {degree: [components]}")
        by_degree = {}
        for key, comp_list in gecc_raw.items():
            path = "sheaf.gecc[%s]" % key
            try:
                k = int(key)
            except ValueError:
                _fail("sheaf.gecc", "degree keys must be integers")
            if not isinstance(comp_list, list):
                _fail(path, "expected a list of components")
            comps = {}
            for i, c in enumerate(comp_list):
                if not isinstance(c, dict):
                    _fail(path + "[%d]" % i, "expected {ideal, module}")
                ideal_gens = c.get("ideal")
                if not isinstance(ideal_gens, list):
                    _fail(path + "[%d].ideal" % i, "expected generator strings")
                try:
                    gens = [transform_full(ring.parse(g)) for g in ideal_gens]
                except PolynomialParseError as exc:
                    raise InputError("%s[%d].ideal: %s" % (path, i, exc))
                ideal = Ideal(ring, gens)
                group = _as_group(c.get("module"), path + "[%d].module" % i, cfg.rank_only)
                comps[ideal] = comps[ideal].dsum(group) if ideal in comps else group
            by_degree[k] = EnrichedCycle(ring, comps)
        spec = SheafSpec(ring, direct=GradedEnrichedCycle(ring, by_degree))

    af_partition = None
    if cfg.af_partition is not None:
        af_partition = [
            Ideal(base, [parse_base(g, "af_partition[%d][%d]" % (i, j))
                         for j, g in enumerate(gens)])
            for i, gens in enumerate(cfg.af_partition)
        ]
    return PreparedJob(ring, base, spec, f, point, strata_conormals, af_partition, cfg)


# ---------------------------------------------------------------------------
# report assembly


def _matrix_json(M):
    return [[str(x) if x.denominator != 1 else str(x.numerator) for x in row] for row in M]


def _support_assertions(job, G, support, crit):
    """Report-level support facts: the critical locus sits inside the
    support, and a rational point whose full cotangent space carries a
    summand, with critical value, shows up in the critical locus."""
    from .ideals import radical_member, rational_point_of

    crit_inside = all(
        any(all(radical_member(g, c.ideal) for g in S.gens) for S in support.total)
        for c in crit
    )
    ring = job.ring
    point_summands = True
    checked = []
    for P in G.components():
        img = eliminate(P, ring.cotangent_vars)
        if img.dimension() != 0:
            continue
        point = rational_point_of(img)
        if point is None:
            continue
        full_cotangent = Ideal(
            ring, [ring.var(z) - c for z, c in zip(ring.base_vars, point)]
        )
        if P != full_cotangent:
            continue
        if job.f.eval_point(point) != 0 and not job.f.is_zero():
            continue
        hit = any(c.ideal.vanishes_at(point) for c in crit)
        checked.append({"point": [str(c) for c in point], "in_critical_locus": hit})
        point_summands = point_summands and hit
    return [
        {"name": "critical-locus-inside-support", "holds": crit_inside},
        {
            "name": "point-conormal-summands-reach-the-critical-locus",
            "holds": point_summands,
            "points": checked,
        },
    ]


def run_pipeline(cfg, retries=0):
    """Full run: characteristic cycle, supports, critical locus, inductive
    decomposition, point modules, diagnostics.  On a genericity failure
    with retries left, rerun under a seeded random coordinate change."""
    job = prepare_job(cfg)
    report, code = _run_once(job)
    attempts = []
    attempt_seed = cfg.seed
    while code == EXIT_GENERICITY and retries > 0:
        retries -= 1
        attempt_seed = attempt_seed * 7919 + 1
        attempts.append(attempt_seed)
        retry_cfg = randomize_coordinates(cfg, attempt_seed)
        job = prepare_job(retry_cfg)
        report, code = _run_once(job)
        report["retry"] = {
            "seeds": list(attempts),
            "matrix": _matrix_json(retry_cfg.matrix),
        }
    return report, code


def _run_once(job):
    cfg = job.cfg
    mode = "polar" if job.f.is_zero() else "levo"
    G = build_gecc(job.spec)
    support = support_of_gecc(G)
    crit = critical_locus(G, job.f)
    n = len(job.ring.base_vars) - 1
    theta = {}
    gamma = {}
    for m in range(n + 1):
        ths, gms = polar_support_sets(G, m)
        theta[str(m)] = [I.generator_strings() for I in ths]
        gamma[str(m)] = [I.generator_strings() for I in gms]

    transversality = {}
    for label, con in job.strata_conormals:
        per_i, verdict = essential_transversality(con, job.point, job.ring)
        transversality[label] = {"per_index": per_i, "verdict": verdict}

    assertions = _support_assertions(job, G, support, crit)

    report = {
        "config": cfg.raw,
        "seed": cfg.seed,
        "mode": mode,
        "coordinate_matrix": _matrix_json(cfg.matrix),
        "point": [str(c) for c in job.point],
        "gecc": G.to_json(),
        "support": support.to_json(),
        "critical_locus": [c.to_json() for c in crit],
        "polar_supports": theta,
        "polar_varieties": gamma,
        "transversality": transversality,
        "support_assertions": assertions,
        "warnings": sorted(G.warnings()),
    }

    try:
        packages = decompose_all_degrees(G, job.f, job.point, seed=cfg.seed)
    except GenericityError as exc:
        cert = failed_certificate(exc.stage)
        report["certificate"] = cert.to_json()
        report["failure"] = str(exc)
        return report, EXIT_GENERICITY

    cert = isolating_certificate(packages, job.point, n + 1)
    if cert.status == "failed":
        report["certificate"] = cert.to_json()
        return report, EXIT_GENERICITY

    if job.af_partition is not None:
        conormals = [
            ("stratum_%d" % i, conormal_ideal(closure, job.ring))
            for i, closure in enumerate(job.af_partition)
        ]
        upgraded, detail = upgrade_by_transversality(
            cert, conormals, job.point, job.ring
        )
        if upgraded.status == "certified" and cert.status != "certified":
            report["certificate_route"] = "essential-transversality"
        cert = upgraded
        if detail is not None:
            report["af_partition_transversality"] = detail

    flat = {}
    cycles_json = {}
    modules_json = {}
    decomposition_json = {}
    warnings = set(report["warnings"])
    for k, pkg in sorted(packages.items()):
        decomposition_json[str(k)] = pkg.decomposition.to_json()
        if pkg.cycles:
            cycles_json[str(k)] = {
                str(j): cyc.to_json() for j, cyc in sorted(pkg.cycles.items())
            }
        if pkg.modules:
            modules_json[str(k)] = {
                str(j): grp.to_json() for j, grp in sorted(pkg.modules.items())
            }
        warnings |= pkg.decomposition.warnings
        for j, grp in pkg.modules.items():
            flat[(k, j)] = grp

    euler_value, euler_verdict = euler_check(flat, cfg.expected_euler)
    zawatsky = {}
    for k, pkg in sorted(packages.items()):
        zawatsky[str(k)] = zawatsky_complex(pkg.modules, cert.d, degree=k).to_json()

    key_cycles = "polar_cycles" if mode == "polar" else "levo_cycles"
    key_modules = "polar_modules" if mode == "polar" else "levo_modules"
    report.update(
        {
            "decomposition": decomposition_json,
            key_cycles: cycles_json,
            key_modules: modules_json,
            "certificate": cert.to_json(),
            "zawatsky": zawatsky,
            "euler": {
                "signed_sum": euler_value,
                "expected": cfg.expected_euler,
                "verdict": euler_verdict,
            },
            "warnings": sorted(warnings),
        }
    )
    code = EXIT_CERTIFIED if cert.status == "certified" else EXIT_UNCERTIFIED
    return report, code


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _cycle_lines(components):
    return [
        "%s [V(%s)]" % (_group_str(c["module"]), ", ".join(c["ideal"]))
        for c in components
    ]


def _group_str(mod):
    g = AbGroup.from_json(mod)
    return str(g)


def report_to_text(report):
    out = []
    out.append("mode: %s" % report["mode"])
    out.append("gecc:")
    for k in sorted(report["gecc"], key=int):
        for line in _cycle_lines(report["gecc"][k]):
            out.append("  degree %s: %s" % (k, line))
    if "critical_locus" in report:
        out.append("critical locus:")
        for c in report["critical_locus"]:
            out.append(
                "  V(%s)  dim %d  value %s"
                % (", ".join(c["ideal"]), c["dimension"], c["critical_value"])
            )
    for key in ("levo_cycles", "polar_cycles"):
        if key in report:
            out.append("%s:" % key.replace("_", " "))
            for k in sorted(report[key], key=int):
                for j in sorted(report[key][k], key=int):
                    for line in _cycle_lines(report[key][k][j]):
                        out.append("  degree %s, j=%s: %s" % (k, j, line))
    for key in ("levo_modules", "polar_modules"):
        if key in report:
            out.append("%s at the point:" % key.replace("_", " "))
            for k in sorted(report[key], key=int):
                for j in sorted(report[key][k], key=int):
                    out.append(
                        "  degree %s, j=%s: %s"
                        % (k, j, _group_str(report[key][k][j]))
                    )
    if "euler" in report:
        out.append(
            "euler signed sum: %d (%s)"
            % (report["euler"]["signed_sum"], report["euler"]["verdict"])
        )
    cert = report.get("certificate")
    if cert:
        out.append(
            "certificate: %s (d=%s)" % (cert["status"], cert["d"])
        )
    if report.get("warnings"):
        out.append("warnings:")
        for w in report["warnings"]:
            out.append("  %s" % w)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _load_config(path, seed_override=None, fmt_override=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    cfg = parse_config(text)
    if seed_override is not None or fmt_override is not None:
        doc = dict(cfg.raw)
        if seed_override is not None:
            doc["seed"] = seed_override
        if fmt_override is not None:
            doc["format"] = fmt_override
        cfg = parse_config(doc)
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="levo",
        description="Symbolic engine for enriched characteristic cycles and "
        "their inductive decompositions along a gradient graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="job JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("json", "text"), default=None)

    p_compute = sub.add_parser("compute", help="run the full pipeline")
    common(p_compute)
    p_compute.add_argument("--retry", type=int, default=0,
                           help="random coordinate retries on genericity failure")
    p_compute.add_argument("--timing", action="store_true",
                           help="print elapsed time to stderr")

    p_check = sub.add_parser("check", help="diagnostics only")
    common(p_check)

    p_gecc = sub.add_parser("gecc", help="print the characteristic cycle and supports")
    common(p_gecc)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.input, args.seed, args.format)
        if args.command == "compute":
            t0 = time.monotonic()
            report, code = run_pipeline(cfg, retries=args.retry)
            _emit(report, cfg.fmt)
            if args.timing:
                print("elapsed: %.3f s" % (time.monotonic() - t0), file=sys.stderr)
            return code
        if args.command == "check":
            report, code = run_pipeline(cfg)
            subset = {
                key: report[key]
                for key in ("certificate", "transversality", "warnings",
                            "af_partition_transversality", "failure")
                if key in report
            }
            _emit(subset, cfg.fmt)
            return code
        if args.command == "gecc":
            job = prepare_job(cfg)
            G = build_gecc(job.spec)
            subset = {
                "gecc": G.to_json(),
                "support": support_of_gecc(G).to_json(),
                "warnings": sorted(G.warnings()),
            }
            if cfg.fmt == "text":
                lines = ["gecc:"]
                for k in sorted(subset["gecc"], key=int):
                    for line in _cycle_lines(subset["gecc"][k]):
                        lines.append("  degree %s: %s" % (k, line))
                sys.stdout.write("\n".join(lines) + "\n")
            else:
                sys.stdout.write(json.dumps(subset, sort_keys=True, indent=2) + "\n")
            return EXIT_CERTIFIED
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except GenericityError as exc:
        print("genericity failure: %s" % exc, file=sys.stderr)
        return EXIT_GENERICITY
    except InternalError as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    parser.error("unknown command")


def _emit(report, fmt):
    if fmt == "text":
        sys.stdout.write(report_to_text(report) if "mode" in report
                         else json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(report_to_json(report))


if __name__ == "__main__":
    sys.exit(main())

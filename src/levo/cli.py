"""Configuration ingestion, pipeline orchestration, and report emission.

A job is a single JSON document: the base variables, a sheaf given
either as strata or as a direct graded cycle, a function (absent or "0"
for the absolute polar mode), a rational query point, a coordinate order
(permutation or invertible integer matrix), and a seed.  Reports are
deterministic for a fixed (config, seed) pair.

Exit codes: 0 certified, 2 ran-but-uncertified, 3 genericity failure,
4 input error, 5 internal invariant violation.
"""

import argparse
import collections
import json
import random
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from math import lcm

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
from .gecc import (
    SheafSpec,
    StratumSpec,
    build_gecc,
    critical_locus,
    stratum_conormal,
    support_assertions,
    support_of_gecc,
)
from .ideals import Ideal, algebra_cache, echelon
from .poly import NAME, PolyRing, rational
from .vogel import decompose_all_degrees, polar_support_sets

EXIT_CERTIFIED = 0
EXIT_UNCERTIFIED = 2
EXIT_GENERICITY = 3
EXIT_INPUT = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# configuration


class JobConfig(collections.namedtuple("JobConfig", (
    "variables", "ring", "sheaf", "function", "point", "matrix", "seed", "fmt",
    "rank_only", "expected_euler", "af_partition", "raw",
))):
    """A checked job document, its polynomials parsed on the full ring
    `ring` and its base ring in the input coordinates; `raw` is the
    document as given.  `sheaf` maps "strata" to a (closure, conormal,
    {degree: group}, dimension, label) tuple per stratum, None standing
    for an absent field, or "gecc" to (generators, group) pairs per
    degree.  `matrix` is a list of rows; `af_partition` may be None."""

    __slots__ = ()


# the keys each object of a job document may name
TOP_KEYS = ("variables", "sheaf", "function", "point", "coordinate_order", "seed",
            "format", "rank_only", "expected_euler", "af_partition")
SHEAF_KEYS = ("strata", "gecc")
STRATUM_KEYS = ("closure", "conormal", "morse", "dimension", "label")
COMPONENT_KEYS = ("ideal", "module")
MODULE_KEYS = ("rank", "torsion")


def _fail(path, message):
    raise InputError("%s: %s" % (path, message))


def _known_keys(obj, path, keys):
    for key in obj:
        if key not in keys:
            _fail(path, "unknown key %r" % key)


def _parse(ring, text, path):
    """`text` parsed on `ring`; a malformed polynomial is an input error at `path`."""
    try:
        return ring.parse(text)
    except PolynomialParseError as exc:
        raise InputError("%s: %s" % (path, exc))


def _is_int(value):
    """A JSON integer; JSON true and false are Python ints but not these."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_rational(value, path):
    """A JSON integer or a string "[-+]digits[/digits]" in ASCII digits, as
    `rational` makes it; Fraction() alone also takes "1e10000000" and
    expands it in full."""
    literal = isinstance(value, str) and re.fullmatch(r"[-+]?[0-9]+(/[0-9]+)?", value)
    try:
        if _is_int(value) or literal:
            return rational(value)
    except (ValueError, ZeroDivisionError):  # a zero denominator or too many digits
        pass
    _fail(path, "expected an integer or rational string, got %r" % (value,))


def _as_group(obj, path, rank_only=False):
    if not isinstance(obj, dict):
        _fail(path, "expected {rank, torsion[]}")
    _known_keys(obj, path, MODULE_KEYS)
    rank = obj.get("rank", 0)
    torsion = obj.get("torsion", [])
    if not _is_int(rank) or not 0 <= rank < 2**63:  # a tensor repeats torsion rank times
        _fail(path + ".rank", "expected an integer in [0, 2^63)")
    if not isinstance(torsion, list) or not all(
        _is_int(d) and d >= 2 for d in torsion
    ):
        _fail(path + ".torsion", "expected a list of integers >= 2")
    return AbGroup(rank, () if rank_only else tuple(torsion))


def _as_degree(key, path, seen):
    """A degree key: an optionally signed run of ASCII digits, which int()
    alone would widen to "1_0", " 1" and non-ASCII digits.  The degree
    joins `seen`; one already there, as "02" after "2", is rejected."""
    if not re.fullmatch(r"-?[0-9]+", str(key)):
        _fail(path, "degree keys must be integers")
    try:
        k = int(key)
    except ValueError:  # more digits than int() converts
        _fail(path, "degree key %.20s... is too long" % key)
    if k in seen:
        _fail(path, "degree %d is named by two keys" % k)
    seen.add(k)
    return k


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _mat_inverse(M):
    """The inverse, read off the `echelon` form of [s*M | I], s the common
    denominator of M's entries: row i is d_i times unit row i beside d_i/s
    times row i of the inverse.  None when M is singular."""
    n = len(M)
    s = lcm(*(x.denominator for row in M for x in row))
    rows = echelon([{**{j: int(x * s) for j, x in enumerate(row) if x}, n + i: 1}
                    for i, row in enumerate(M)])
    if [min(row) for row in rows] != list(range(n)):
        return None
    return [[rational(row.get(n + j, 0) * s, row[i]) for j in range(n)]
            for i, row in enumerate(rows)]


def _load_json(text):
    """The document in `text`; an object naming a key twice is an input
    error at that object's path, since json.loads would keep only the
    last value.  Objects are built inner first, so the last one recorded
    is still in the document: an object that a repeated key dropped was
    built before the object that dropped it.  Nesting deeper than
    json.loads can recurse, and an integer longer than int() converts,
    are input errors too."""
    repeated = []

    def build(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            repeated.append((obj, next(k for k, _ in pairs if k in seen or seen.add(k))))
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=build)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON at line %d: %s" % (exc.lineno, exc.msg))
    except ValueError:  # an integer with more digits than int() converts
        raise InputError(
            "invalid JSON: an integer has more than %d digits" % sys.get_int_max_str_digits()
        )
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply")
    if repeated:
        obj, key = repeated[-1]
        _fail(_path_of(obj, doc), "repeated key %r" % key)
    return doc


def _path_of(target, doc):
    """The path of the object `target` inside the document `doc`."""
    stack = [("$", doc)]
    while stack:
        path, value = stack.pop()
        if value is target:
            return path
        prefix = "" if path == "$" else path
        if isinstance(value, dict):
            for key, child in value.items():
                if not key.isidentifier():
                    key = "%s[%s]" % (prefix, key)
                elif prefix:
                    key = "%s.%s" % (prefix, key)
                stack.append((key, child))
        elif isinstance(value, list):
            stack.extend(("%s[%d]" % (prefix, i), child) for i, child in enumerate(value))


def parse_config(text_or_dict):
    """Validate a job document and parse its polynomials on the input
    rings, with no Groebner basis computed; error messages carry the
    offending field."""
    doc = _load_json(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    if not isinstance(doc, dict):
        _fail("$", "top level must be an object")
    _known_keys(doc, "$", TOP_KEYS)

    variables = doc.get("variables")
    if not isinstance(variables, list) or not variables or not all(
        isinstance(v, str) for v in variables
    ):
        _fail("variables", "expected a non-empty list of names")
    for i, v in enumerate(variables):
        if not re.fullmatch(NAME, v):
            _fail("variables[%d]" % i, "expected a name matching %s" % NAME)
    if len(set(variables)) != len(variables):
        _fail("variables", "names must be unique")
    n = len(variables)

    sheaf = doc.get("sheaf")
    if not isinstance(sheaf, dict) or ("strata" in sheaf) == ("gecc" in sheaf):
        _fail("sheaf", "expected exactly one of {strata: [...]} or {gecc: {...}}")
    _known_keys(sheaf, "sheaf", SHEAF_KEYS)

    rank_only = doc.get("rank_only", False)
    if not isinstance(rank_only, bool):
        _fail("rank_only", "expected true or false")

    function = doc.get("function")
    if function is None:
        function = "0"
    if not isinstance(function, str):
        _fail("function", "expected a polynomial string")

    point = doc.get("point")
    if not isinstance(point, list) or len(point) != n:
        _fail("point", "expected one coordinate per variable")
    point = tuple(_as_rational(c, "point[%d]" % i) for i, c in enumerate(point))

    order = doc.get("coordinate_order")
    matrix = _identity(n)
    if order is not None:
        if isinstance(order, list) and all(isinstance(v, str) for v in order):
            if sorted(order) != sorted(variables):
                _fail("coordinate_order", "must be a permutation of the variables")
            # permutation matrix: new coordinate i reads old coordinate order[i]
            matrix = [
                [1 if variables[j] == order[i] else 0 for j in range(n)]
                for i in range(n)
            ]
        elif isinstance(order, list) and all(isinstance(r, list) for r in order):
            if len(order) != n or any(len(r) != n for r in order):
                _fail("coordinate_order", "matrix must be %d x %d" % (n, n))
            matrix = [
                [_as_rational(x, "coordinate_order[%d][%d]" % (i, j)) for j, x in enumerate(row)]
                for i, row in enumerate(order)
            ]
            if _mat_inverse(matrix) is None:
                _fail("coordinate_order", "matrix is not invertible")
        else:
            _fail("coordinate_order", "expected a permutation or a matrix")

    seed = doc.get("seed", 0)
    # each retry multiplies the seed by 7919: from a seed in 64 bits,
    # MAX_RETRIES retries keep every retry seed under 640 digits, the
    # least limit sys.set_int_max_str_digits allows an int to print
    if not _is_int(seed) or not -2**63 <= seed < 2**63:
        _fail("seed", "expected an integer in [-2^63, 2^63)")

    fmt = doc.get("format", "json")
    if fmt not in ("json", "text"):
        _fail("format", "expected 'json' or 'text'")

    expected_euler = doc.get("expected_euler")
    if expected_euler is not None and not _is_int(expected_euler):
        _fail("expected_euler", "expected an integer")

    af_partition = doc.get("af_partition")
    if af_partition is not None:
        # an empty partition, or an empty stratum, would pass the
        # transversality upgrade vacuously
        if not isinstance(af_partition, list) or not af_partition or not all(
            isinstance(s, list) and all(isinstance(g, str) for g in s)
            for s in af_partition
        ):
            _fail("af_partition", "expected a non-empty list of generator-string lists")
        for i, s in enumerate(af_partition):
            if not s:
                _fail("af_partition[%d]" % i, "expected at least one generator")

    ring = PolyRing(variables, _cotangent_names(variables))
    base = ring.base_ring()
    function = _parse(base, function, "function")
    if "strata" in sheaf:
        sheaf = {"strata": _parse_strata(sheaf["strata"], ring, base, rank_only)}
    else:
        sheaf = {"gecc": _parse_gecc(sheaf["gecc"], ring, rank_only)}
    if af_partition is not None:
        af_partition = [[_parse(base, g, "af_partition[%d][%d]" % (i, j))
                         for j, g in enumerate(s)] for i, s in enumerate(af_partition)]
        for i, s in enumerate(af_partition):
            if all(g.is_zero() for g in s):
                _fail("af_partition[%d]" % i, "every generator is zero")

    return JobConfig(tuple(variables), ring, sheaf, function, point, matrix, seed, fmt,
                     rank_only, expected_euler, af_partition, doc)


def _cotangent_names(variables):
    names = tuple("w_%d" % i for i in range(len(variables)))
    if set(names) & set(variables):
        raise InputError("variables clash with reserved cotangent names w_0..w_n")
    return names


def _parse_strata(strata, ring, base, rank_only):
    if not isinstance(strata, list):
        _fail("sheaf.strata", "expected a list of strata")
    out = []
    for idx, s in enumerate(strata):
        path = "sheaf.strata[%d]" % idx
        if not isinstance(s, dict):
            _fail(path, "expected an object")
        _known_keys(s, path, STRATUM_KEYS)
        closure = s.get("closure")
        if not isinstance(closure, list):
            _fail(path + ".closure", "expected a list of generator strings")
        closure = [_parse(base, g, path + ".closure[%d]" % i) for i, g in enumerate(closure)]
        conormal = s.get("conormal")
        if conormal is not None:
            if not isinstance(conormal, list):
                _fail(path + ".conormal", "expected a list of generator strings")
            conormal = [_parse(ring, g, path + ".conormal") for g in conormal]
        morse = s.get("morse", {})
        if not isinstance(morse, dict):
            _fail(path + ".morse", "expected {degree: module}")
        degrees = set()
        morse = {_as_degree(k, path + ".morse", degrees):
                 _as_group(m, path + ".morse[%s]" % k, rank_only) for k, m in morse.items()}
        dim = s.get("dimension")
        if dim is not None and not _is_int(dim):
            _fail(path + ".dimension", "expected an integer")
        label = s.get("label")
        if label is not None and not isinstance(label, str):
            _fail(path + ".label", "expected a string")
        out.append((closure, conormal, morse, dim, label))
    return out


def _parse_gecc(gecc, ring, rank_only):
    if not isinstance(gecc, dict):
        _fail("sheaf.gecc", "expected {degree: [components]}")
    by_degree, degrees = {}, set()
    for key, comp_list in gecc.items():
        k = _as_degree(key, "sheaf.gecc", degrees)
        if not isinstance(comp_list, list):
            _fail("sheaf.gecc[%s]" % key, "expected a list of components")
        by_degree[k] = []
        for i, c in enumerate(comp_list):
            path = "sheaf.gecc[%s][%d]" % (key, i)
            if not isinstance(c, dict):
                _fail(path, "expected {ideal, module}")
            _known_keys(c, path, COMPONENT_KEYS)
            gens = c.get("ideal")
            if not isinstance(gens, list):
                _fail(path + ".ideal", "expected generator strings")
            gens = [_parse(ring, g, path + ".ideal") for g in gens]
            by_degree[k].append((gens, _as_group(c.get("module"), path + ".module", rank_only)))
    return by_degree


def randomize_coordinates(cfg, seed):
    """Compose the coordinate matrix with a seeded random invertible
    integer matrix (entries in [-5, 5]); same seed, same matrix."""
    rng = random.Random(seed)
    n = len(cfg.variables)
    while True:
        R = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if _mat_inverse(R) is not None:
            break
    return cfg._replace(matrix=_mat_mul(R, cfg.matrix))


# ---------------------------------------------------------------------------
# building the working job (after the coordinate change)


class PreparedJob(collections.namedtuple("PreparedJob", (
    "ring", "base", "spec", "f", "point", "af_partition", "cfg",
))):
    """A job in the working coordinates, ready for the pipeline: `ring`
    with its base ring `base`, a SheafSpec `spec`, `f` on `base`, and the
    JobConfig `cfg` it came from."""

    __slots__ = ()


def _coordinate_change(ring, matrix, inverse):
    """The map rewriting a polynomial on `ring` in the new coordinates:
    base variable i becomes row i of the inverse matrix applied to the
    base variables, cotangent variable i becomes column i of the matrix
    applied to the cotangent variables."""
    n = len(ring.base_vars)
    sub = {name: ring.linear_form(list(row) + [0] * (ring.nvars - n))
           for name, row in zip(ring.base_vars, inverse)}
    for i, name in enumerate(ring.cotangent_vars):
        sub[name] = ring.linear_form([0] * n + [row[i] for row in matrix])
    return lambda p: p.subs(sub)


def prepare_job(cfg):
    """The job of `cfg` in its working coordinates, those of `cfg.matrix`.
    Raises InputError only for what needs the working bases: a declared
    dimension, a repeated label, two equal conormals, a conormal or a
    gecc component of the wrong dimension, or an empty `af_partition`
    locus."""
    ring, base = cfg.ring, cfg.function.ring
    if cfg.matrix == _identity(len(cfg.variables)):
        to_base = to_full = lambda p: p
    else:
        Minv = _mat_inverse(cfg.matrix)
        to_base = _coordinate_change(base, cfg.matrix, Minv)
        to_full = _coordinate_change(ring, cfg.matrix, Minv)

    f = to_base(cfg.function)
    point = tuple(rational(sum(a * c for a, c in zip(row, cfg.point))) for row in cfg.matrix)

    if "strata" in cfg.sheaf:
        strata, labelled = [], {}
        for idx, (closure, conormal, morse, dim, label) in enumerate(cfg.sheaf["strata"]):
            if conormal is not None:
                conormal = Ideal(ring, [to_full(g) for g in conormal])
            try:
                stratum = StratumSpec(Ideal(base, [to_base(g) for g in closure]), morse,
                                      conormal=conormal, dim=dim, label=label)
            except InputError as exc:
                _fail("sheaf.strata[%d]" % idx, exc)
            if stratum.label in labelled:
                _fail("sheaf.strata[%d].label" % idx, "%r is also the label of sheaf.strata[%d]"
                      % (stratum.label, labelled[stratum.label]))
            labelled[stratum.label] = idx
            strata.append(stratum)
        spec = SheafSpec(ring, strata=strata)
    else:
        by_degree, n = {}, len(cfg.variables)
        for k, components in cfg.sheaf["gecc"].items():
            comps = {}
            for i, (gens, group) in enumerate(components):
                ideal = Ideal(ring, [to_full(g) for g in gens])
                if ideal.dimension() != n:
                    _fail("sheaf.gecc[%d][%d]" % (k, i), "the component has dimension %d, not %d"
                          % (ideal.dimension(), n))
                comps[ideal] = comps[ideal].dsum(group) if ideal in comps else group
            by_degree[k] = EnrichedCycle(ring, comps)
        spec = SheafSpec(ring, direct=GradedEnrichedCycle(ring, by_degree))

    af_partition = None if cfg.af_partition is None else [
        Ideal(base, [to_base(g) for g in s]) for s in cfg.af_partition]
    for i, locus in enumerate(af_partition or ()):
        if locus.is_unit():
            _fail("af_partition[%d]" % i, "the locus is empty")
    return PreparedJob(ring, base, spec, f, point, af_partition, cfg)


# ---------------------------------------------------------------------------
# report assembly


def _matrix_json(M):
    return [[str(x) if x.denominator != 1 else str(x.numerator) for x in row] for row in M]


def run_pipeline(cfg, retries=0):
    """Full run: characteristic cycle, inductive decomposition, point
    modules, supports, critical locus, diagnostics.  On a genericity
    failure with retries left, rerun under a seeded random coordinate
    change.  An attempt that a retry replaces runs only the
    decomposition; the report sections are built for the attempt whose
    report is returned.  The attempts share one algebra cache, which
    ends with the run."""
    with algebra_cache():
        job = prepare_job(cfg)
        G, packages = _decompose(job)
        attempts = []
        attempt_seed = cfg.seed
        while isinstance(packages, GenericityError) and retries > 0:
            retries -= 1
            attempt_seed = attempt_seed * 7919 + 1
            attempts.append(attempt_seed)
            job = prepare_job(randomize_coordinates(cfg, attempt_seed))
            G, packages = _decompose(job)
        report, code = _report(job, G, packages)
        if attempts:
            report["retry"] = {"seeds": attempts, "matrix": _matrix_json(job.cfg.matrix)}
    return report, code


def _decompose(job):
    """The job's characteristic cycle and its decomposition in every
    degree, or the GenericityError that ended the decomposition."""
    G = build_gecc(job.spec)
    try:
        return G, decompose_all_degrees(G, job.f, job.point)
    except GenericityError as exc:
        return G, exc


def _report(job, G, packages):
    """The report of one attempt and its exit code, from its
    characteristic cycle G and the outcome of `_decompose`."""
    cfg = job.cfg
    mode = "polar" if job.f.is_zero() else "levo"
    support = support_of_gecc(G)
    crit = critical_locus(G, job.f)
    theta, gamma = {}, {}
    sets, walks = polar_support_sets(G)
    for m, (ths, gms) in enumerate(sets):
        theta[str(m)] = [I.generator_strings() for I in ths]
        gamma[str(m)] = [I.generator_strings() for I in gms]

    transversality = {}
    for stratum, con in job.spec.conormals:
        per_i, verdict = essential_transversality(walks[con], job.point, job.ring)
        transversality[stratum.label] = {"per_index": per_i, "verdict": verdict}

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
        "support_assertions": support_assertions(G, support, crit, job.f),
        "warnings": [],
    }

    if isinstance(packages, GenericityError):
        report["certificate"] = failed_certificate(packages.stage).to_json()
        report["failure"] = str(packages)
        return report, EXIT_GENERICITY

    cert = isolating_certificate(packages, job.point)

    # only a proper-uncertified certificate reads the conormals
    if job.af_partition is not None and cert.status == "proper-uncertified":
        conormals = []
        for i, closure in enumerate(job.af_partition):
            label = "stratum_%d" % i
            try:
                conormals.append((label, stratum_conormal(closure, label, job.ring)))
            except InputError as exc:
                _fail("af_partition[%d]" % i, exc)
        upgraded, detail = upgrade_by_transversality(cert, conormals, job.point, job.ring)
        if upgraded.status == "certified":
            report["certificate_route"] = "essential-transversality"
        cert = upgraded
        report["af_partition_transversality"] = detail

    flat = {}
    cycles_json = {}
    modules_json = {}
    decomposition_json = {}
    warnings = set()
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
    """The bytes of json.dumps(report, sort_keys=True, indent=2) and a
    newline.  json.dumps with an indent runs the stdlib's pure-Python
    encoder, whose closures refer to one another, so every call would
    leave garbage that only the cyclic collector frees."""
    out = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline, out):
    """Append the indented JSON text of value to out; `newline` is a
    newline and the indent of value's own line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        out.append(json.dumps(value))


def _cycle_lines(components):
    return ["%s [V(%s)]" % (AbGroup.from_json(c["module"]), ", ".join(c["ideal"]))
            for c in components]


def _gecc_lines(gecc):
    out = ["gecc:"]
    for k in sorted(gecc, key=int):
        for line in _cycle_lines(gecc[k]):
            out.append("  degree %s: %s" % (k, line))
    return out


def report_to_text(report):
    out = ["mode: %s" % report["mode"]] + _gecc_lines(report["gecc"])
    if "critical_locus" in report:
        out.append("critical locus:")
        for c in report["critical_locus"]:
            out.append("  V(%s)  dim %d  value %s"
                       % (", ".join(c["ideal"]), c["dimension"], c["critical_value"]))
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
                    out.append("  degree %s, j=%s: %s"
                               % (k, j, AbGroup.from_json(report[key][k][j])))
    if "euler" in report:
        out.append("euler signed sum: %d (%s)"
                   % (report["euler"]["signed_sum"], report["euler"]["verdict"]))
    cert = report.get("certificate")
    if cert:
        out.append("certificate: %s (d=%s)" % (cert["status"], cert["d"]))
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
    doc = _load_json(text)
    for key, value in (("seed", seed_override), ("format", fmt_override)):
        if value is not None and isinstance(doc, dict):
            doc[key] = value
    return parse_config(doc)


class _Parser(argparse.ArgumentParser):
    """argparse ending a usage error, in a subcommand too, with the input
    error's exit code; argparse's own 2 is the uncertified exit."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


MAX_RETRIES = 100


def _retry_count(text):
    if not re.fullmatch(r"[0-9]{1,3}", text) or int(text) > MAX_RETRIES:
        raise argparse.ArgumentTypeError("expected 0 to %d, got %r" % (MAX_RETRIES, text))
    return int(text)


def _build_parser():
    parser = _Parser(
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
    p_compute.add_argument("--retry", type=_retry_count, default=0,
                           help="coordinate retries on genericity failure, 0 to %d" % MAX_RETRIES)
    p_compute.add_argument("--timing", action="store_true",
                           help="print elapsed time and algebra cache hits to stderr")

    p_check = sub.add_parser("check", help="diagnostics only")
    common(p_check)

    p_gecc = sub.add_parser("gecc", help="print the characteristic cycle and supports")
    common(p_gecc)
    return parser


# built once per process: a parser is a graph of reference cycles, so one
# per call would leave garbage that only the cyclic collector frees
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load_config(args.input, args.seed, args.format)
        if args.command == "compute":
            t0 = time.monotonic()
            with algebra_cache() as cache:
                report, code = run_pipeline(cfg, retries=args.retry)
            sys.stdout.write(report_to_text(report) if cfg.fmt == "text" else report_to_json(report))
            if args.timing:
                print("elapsed: %.3f s" % (time.monotonic() - t0), file=sys.stderr)
                print(cache.summary(), file=sys.stderr)
            return code
        if args.command == "check":
            report, code = run_pipeline(cfg)
            subset = {
                key: report[key]
                for key in ("certificate", "transversality", "warnings",
                            "af_partition_transversality", "failure")
                if key in report
            }
            sys.stdout.write(report_to_json(subset))  # JSON under either format
            return code
        if args.command == "gecc":
            with algebra_cache():  # a component in several degrees is projected once
                G = build_gecc(prepare_job(cfg).spec)
                support = support_of_gecc(G)
            subset = {"gecc": G.to_json(), "support": support.to_json(), "warnings": []}
            if cfg.fmt == "text":
                sys.stdout.write("\n".join(_gecc_lines(subset["gecc"])) + "\n")
            else:
                sys.stdout.write(report_to_json(subset))
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
    _PARSER.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())

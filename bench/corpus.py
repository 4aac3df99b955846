"""Seeded job corpora for the levo benchmark.

A workload turns a seed into a sequence of passes; a pass is a list of
jobs, and a job is a plain `levo compute` JSON document plus extra
command-line arguments and the values an independent oracle expects.
Nothing here imports levo: expectations come from closed forms in the
job parameters, never from the pipeline under test.

The same seed always gives the same passes.  Within one run no
(config, seed) pair repeats, so a cache cannot win on duplicate jobs
that users would not send.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("two-plane", "isolated", "polar")

# Per-job wall budget in seconds; a job that runs longer counts as failed.
JOB_BUDGET_S = {"two-plane": 60.0, "isolated": 10.0, "polar": 20.0}

RETRIES = 5


class Job:
    """One job: the document, extra CLI arguments and expectations."""

    __slots__ = ("name", "doc", "argv", "expect")

    def __init__(self, name, doc, argv, expect):
        self.name = name
        self.doc = doc
        self.argv = list(argv)
        self.expect = expect

    def to_json(self):
        return {"name": self.name, "doc": self.doc, "argv": self.argv,
                "expect": self.expect}


class _Seeds:
    """Job seeds drawn without repetition within one run."""

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def draw(self):
        while True:
            s = self.rng.randrange(1, 2**31)
            if s not in self.used:
                self.used.add(s)
                return s


def _group(rank, torsion=()):
    return {"rank": rank, "torsion": list(torsion)}


def _dsum(groups):
    rank = sum(g["rank"] for g in groups)
    torsion = sorted(t for g in groups for t in g["torsion"])
    return _group(rank, torsion)


# ---------------------------------------------------------------------------
# two-plane: (u^a + x^b)^tau + y^gamma + z^delta on two transverse planes

TWO_PLANE_STRATA = [
    {"closure": ["u", "x", "y", "z"], "morse": {"1": _group(1)}, "label": "origin"},
    {"closure": ["u", "x"], "morse": {"2": _group(1)}, "label": "plane-yz"},
    {"closure": ["y", "z"], "morse": {"2": _group(1)}, "label": "plane-ux"},
]


def _two_plane_tuples(rng):
    """(a, b, gamma, delta, tau) for one pass: one tuple per cost class.

    (a, b) = (2, 2) and (a, b) = (2, 3) or (3, 2) draw the other
    exponents; the heaviest job, which sets slowest_job_s, is always
    (3, 3, 3, 3, 3), so that metric compares like with like.
    """
    a, b = rng.choice(((2, 3), (3, 2)))
    return [
        (2, 2, rng.randint(2, 5), rng.randint(2, 5), rng.choice((2, 3))),
        (a, b, rng.randint(2, 5), rng.randint(2, 5), rng.choice((2, 3))),
        (3, 3, 3, 3, 3),
    ]


def _curve_factors(a, b):
    """Irreducible factors over Q of u^a + x^b, each as its set of terms."""
    if a == b == 3:  # u^3 + x^3 = (u + x)(u^2 - u x + x^2)
        return [["u", "x"], ["u^2", "-u*x", "x^2"]]
    return [["u^%d" % a, "x^%d" % b]]


def two_plane_expect(a, b, gm, dl, tau):
    """Closed forms of the worked example (acceptance criterion 1)."""
    rank0 = (dl - 1) * (gm - 1) + (b - 1) * (a * tau - 1)
    reduced_fibre_chi = -a * b * tau + b * tau + a * tau - gm * dl + gm + dl - 1
    return {
        "exit": 0,
        "certificate": {"status": "certified", "d": 1},
        "modules_key": "levo_modules",
        "modules": {
            "1": {"0": _group(1)},
            "2": {"1": _group(b * (tau - 1)), "0": _group(rank0)},
        },
        "euler": -reduced_fibre_chi,
        "gecc": {
            "1": [["z", "y", "x", "u"]],
            "2": [["w_3", "w_2", "x", "u"], ["w_1", "w_0", "z", "y"]],
        },
        "distinguished": {
            "1": {"rank": tau - 1, "curve_factors": _curve_factors(a, b)},
            "0": {"rank": rank0},
        },
        "retry": False,
    }


def _two_plane_pass(rng, seeds, p):
    """Why: the paper's worked example has large Groebner bases, so
    Buchberger and repeated sub-computations dominate each 2-5 s job;
    pair selection and an algebra cache show here."""
    jobs = []
    for a, b, gm, dl, tau in _two_plane_tuples(rng):
        seed = seeds.draw()
        doc = {
            "variables": ["u", "x", "y", "z"],
            "sheaf": {"strata": TWO_PLANE_STRATA},
            "function": "(u^%d + x^%d)^%d + y^%d + z^%d" % (a, b, tau, gm, dl),
            "point": [0, 0, 0, 0],
            "seed": seed,
            # the run is certified already, so this only adds the check
            "af_partition": [["u", "x"], ["y", "z"]],
        }
        name = "p%d-two-plane-%d%d%d%d%d" % (p, a, b, gm, dl, tau)
        jobs.append(Job(name, doc, [], two_plane_expect(a, b, gm, dl, tau)))
    return jobs


# ---------------------------------------------------------------------------
# isolated: constant coefficients on C^2 and C^3


def _constant_sheaf_doc(f_text, n, seed):
    return {
        "variables": ["x", "y", "z"][:n],
        "sheaf": {"strata": [{"closure": [], "morse": {str(n): _group(1)}}]},
        "function": f_text,
        "point": [0] * n,
        "seed": seed,
    }


def _lambda_expect(degree, lambdas, retry):
    """Expected report for Le numbers {j: lambda^j} in the given degree."""
    modules = {str(j): _group(r) for j, r in sorted(lambdas.items()) if r}
    return {
        "exit": 0,
        "certificate": {"status": "certified"},
        "modules_key": "levo_modules",
        "modules": {str(degree): modules},
        "euler": sum((-1) ** (degree + j) * r for j, r in lambdas.items()),
        "retry": retry,
    }


def _ade(rng):
    """A random ADE normal form in x, y with its Milnor number."""
    kind = rng.choice(("A", "D", "E"))
    if kind == "A":
        k = rng.randint(1, 8)
        return "x^%d + y^2" % (k + 1), k
    if kind == "D":
        k = rng.randint(4, 8)
        return "x^2*y + y^%d" % (k - 1), k
    return rng.choice((("x^3 + y^4", 6), ("x^3 + x*y^3", 7), ("x^3 + y^5", 8)))


def _isolated_pass(rng, seeds, p):
    """Why: many small jobs on constant coefficients, so the fixed cost
    per job (parsing, set-up, sympy factor_list, JSON) dominates and
    Buchberger bases are tiny; a lazy sympy import shows in setup_s."""
    jobs = []

    def add(label, f, n, lambdas, argv=(), retry=False, **doc_fields):
        doc = dict(_constant_sheaf_doc(f, n, seeds.draw()), **doc_fields)
        degree = n
        if "sheaf" in doc_fields:
            [stratum] = doc_fields["sheaf"]["strata"]
            [degree] = map(int, stratum["morse"])
        jobs.append(Job("p%d-%s-%d" % (p, label, len(jobs)), doc, argv,
                        _lambda_expect(degree, lambdas, retry)))

    for _ in range(8):
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        add("bp2", "x^%d + y^%d" % (a, b), 2, {0: (a - 1) * (b - 1)})
    for _ in range(6):
        a, b, c = (rng.randint(2, 4) for _ in range(3))
        add("bp3", "x^%d + y^%d + z^%d" % (a, b, c), 3, {0: (a - 1) * (b - 1) * (c - 1)})
    for _ in range(4):
        f, mu = _ade(rng)
        add("ade2", f, 2, {0: mu})
    for _ in range(4):
        f, mu = _ade(rng)
        add("ade3", f + " + z^2", 3, {0: mu})
    # x*y^b: a non-isolated locus in good position already
    for _ in range(3):
        b = rng.randint(2, 3)
        add("xyb", "x*y^%d" % b, 2, {1: b - 1, 0: b})
    # x^a*y with a >= 2: the critical line x = 0 is a coordinate
    # hyperplane, so the first attempt fails and --retry recovers
    for _ in range(2):
        a = rng.randint(2, 3)
        add("retry", "x^%d*y" % a, 2, {1: a - 1, 0: a}, ["--retry", str(RETRIES)], True)
    # the heaviest job of every pass: E7 + A2, mu = 7 * 2 by Thom-Sebastiani
    add("e7a2", "x^3 + x*y^3 + z^3", 3, {0: 14})
    # constant coefficients on the plane z = 0 of C^3: only f restricted
    # to the plane counts, mu = (a - 1)(b - 1)
    a, b = rng.randint(2, 5), rng.randint(2, 5)
    add("plane", "x^%d + y^%d + z*%s" % (a, b, rng.choice(("1", "x", "y^2", "z"))), 3,
        {0: (a - 1) * (b - 1)},
        sheaf={"strata": [{"closure": ["z"], "morse": {"2": _group(1)}}]})
    # the square of a generic linear form: a plane of A1 points, with its
    # zero set passed as the Thom-condition partition
    form = " + ".join("%d*%s" % (rng.choice((1, 2, 3)) * rng.choice((-1, 1)), v)
                      for v in ("x", "y", "z")).replace("+ -", "- ")
    add("line2", "(%s)^2" % form, 3, {2: 1}, af_partition=[[form]])
    return jobs


# ---------------------------------------------------------------------------
# polar: absolute mode on linear strata under random integer coordinates

_POLAR_VARS = {2: ["x", "y"], 3: ["x", "y", "z"], 4: ["u", "x", "y", "z"]}


def _det(m):
    """Integer determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:] for row in m[1:]])
        for c in range(len(m))
        if m[0][c]
    )


def totally_nonsingular(M):
    """Every square minor of M is nonzero.  Then every coordinate
    subspace, and its annihilator, meets every coordinate flag
    transversally in the new coordinates."""
    n = len(M)
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                if not _det([[M[r][c] for c in cols] for r in rows]):
                    return False
    return True


def _random_matrix(rng, n):
    while True:
        M = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        if totally_nonsingular(M):
            return M


def _random_module(rng):
    torsion = [rng.choice((2, 3, 4))] if rng.random() < 0.5 else []
    return _group(rng.randint(1, 2), torsion)


def _strata_sets(n, max_dim):
    """Zero-set index sets S of coordinate subspaces V(x_S) of positive
    dimension n - |S| <= max_dim, alone or in pairs that are nested or
    meet only at the origin."""
    singles = [
        frozenset(S)
        for k in range(1, n)
        for S in itertools.combinations(range(n), k)
        if n - k <= max_dim
    ]
    full = frozenset(range(n))
    out = [(S,) for S in singles]
    for S, T in itertools.combinations(singles, 2):
        if S | T == full or S < T or T < S:
            out.append((S, T))
    return out


# Fixed shapes of the C^4 slots (zero-index sets before a random
# relabelling of the variables), so that the heaviest jobs of every
# pass have the same structure.
_C4_SHAPES = (
    ("planes", ({0, 1}, {2, 3})),       # two planes meeting at the origin, d = 2
    ("flag", ({0, 1}, {0, 1, 2})),      # a plane containing a line, d = 2
    ("hyperline", ({0}, {1, 2, 3})),    # a hyperplane and a transverse line, d = 3
    ("hyper", ({0},)),                  # a hyperplane, d = 3
)


def _polar_job(rng, seeds, n, closures, max_degrees, name, direct=False,
               af_partition=False):
    """A polar job on strata given as (closure generators, dimension),
    each smooth at the origin with Morse modules in 1..max_degrees random
    degrees.  `direct` gives the same sheaf as a gecc (coordinate
    subspaces only); `af_partition` also passes the closures as the
    Thom-condition partition."""
    names = _POLAR_VARS[n]
    strata = []
    for gens, dim in closures:
        degrees = rng.sample((0, 1, 2), rng.randint(1, max_degrees))
        strata.append((gens, dim, {str(k): _random_module(rng) for k in sorted(degrees)}))
    matrix = _random_matrix(rng, n)
    seed = seeds.draw()

    # In generic coordinates a stratum that is smooth at the point adds
    # its Morse modules at the index of its dimension: the degree-k,
    # index-j point module is the sum of the degree-k Morse modules of
    # the j-dimensional strata.
    modules = {}
    for _gens, dim, morse in strata:
        for k, grp in morse.items():
            modules.setdefault(k, {}).setdefault(str(dim), []).append(grp)
    modules = {k: {j: _dsum(gs) for j, gs in per.items()} for k, per in modules.items()}
    d = max(dim for _gens, dim, _morse in strata)
    linear = all(g in names for gens, _dim, _morse in strata for g in gens)

    strata_doc = {
        "variables": names,
        "sheaf": {"strata": [{"closure": gens, "morse": morse} for gens, _dim, morse in strata]},
        "point": [0] * n,
        "coordinate_order": matrix,
        "seed": seed,
    }
    if af_partition:
        strata_doc["af_partition"] = [gens for gens, _dim, _morse in strata]
    expect = {
        "exit": 0 if d <= 2 else 2,
        "certificate": {"status": "certified" if d <= 2 else "proper-uncertified", "d": d},
        "modules_key": "polar_modules",
        "modules": modules,
        "euler": None,
        "retry": False,
        # the iterated-slice oracle needs linear closures; direct-gecc
        # jobs go through their equivalent strata job
        "iterated_oracle": strata_doc if d <= 2 and linear else None,
    }
    if not direct:
        return Job(name, strata_doc, [], expect)
    # the conormal of V(x_i : i in S) is (x_i : i in S) + (w_i : i not in S)
    gecc = {}
    for gens, _dim, morse in strata:
        ideal = gens + ["w_%d" % i for i, v in enumerate(names) if v not in gens]
        for k, grp in morse.items():
            gecc.setdefault(k, []).append({"ideal": ideal, "module": grp})
    return Job(name, dict(strata_doc, sheaf={"gecc": gecc}), [], expect)


def _coordinate_strata(n, sets):
    names = _POLAR_VARS[n]
    return [([names[i] for i in sorted(S)], n - len(S)) for S in sets]


def _random_strata(rng, n, max_dim):
    sets = list(rng.choice(_strata_sets(n, max_dim)))
    if rng.random() < 0.5:
        sets.append(frozenset(range(n)))  # the origin as a point stratum
    return _coordinate_strata(n, sets)


def _polar_pass(rng, seeds, p):
    """Why: absolute polar mode on (nearly all) linear strata, so the
    factorizations are linear and splitting, polar support sets and the
    torsion bookkeeping dominate; random coordinates mean jobs share no
    work."""
    jobs = []

    def add(kind, n, closures, max_degrees=2, **options):
        name = "p%d-polar-%s-%d" % (p, kind, len(jobs))
        jobs.append(_polar_job(rng, seeds, n, closures, max_degrees, name, **options))

    for _ in range(4):
        add("c2", 2, _random_strata(rng, 2, 1))
    for _ in range(4):
        add("c3", 3, _random_strata(rng, 3, 2))
    for _ in range(2):
        add("gecc", 3, _random_strata(rng, 3, 2), direct=True)
    # a smooth curved stratum through the origin: the only slot whose
    # multiplicities need saturation
    x, y = rng.sample(("x", "y"), 2)
    curve = "%s %s %d*%s^%d" % (y, rng.choice("+-"), rng.randint(1, 3), x, rng.randint(2, 3))
    add("curve", 2, [([curve], 1), (["x", "y"], 0)], max_degrees=1)
    for shape, sets in _C4_SHAPES:
        perm = rng.sample(range(4), 4)
        sets = [frozenset(perm[i] for i in S) for S in sets] + [frozenset(range(4))]
        add(shape, 4, _coordinate_strata(4, sets), max_degrees=1,
            af_partition=shape in ("planes", "flag"))
    return jobs


_PASS = {"two-plane": _two_plane_pass, "isolated": _isolated_pass, "polar": _polar_pass}


def passes(workload, seed):
    """Endless generator of passes (lists of Jobs) for a workload seed."""
    if workload not in _PASS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s/%d" % (workload, seed))
    seeds = _Seeds(rng)
    for p in itertools.count():
        yield _PASS[workload](rng, seeds, p)


def corpus(workload, seed, npasses):
    """The first `npasses` passes as lists of Jobs."""
    return list(itertools.islice(passes(workload, seed), npasses))


def job_key(job):
    """The (config, seed) identity of a job, CLI arguments included."""
    doc = dict(job.doc)
    seed = doc.pop("seed")
    return json.dumps([doc, job.argv], sort_keys=True), seed

"""Intersection theory on the cotangent ring.

Hypersurface intersections with exact multiplicities (generic linear
slicing with cross-checked independent slices), point-local
multiplicities by localization at the point, conormal and
relative-conormal ideals, push-forward along the gradient graph, and an
experimental Rees-style blow-up used as an independent cross-check.

All randomness is drawn from seeded generators and the seeds are
recorded in the results.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .abgroups import AbGroup
from .cycles import EnrichedCycle
from .errors import (
    GenericityError,
    ImproperIntersectionError,
    InputError,
    InternalError,
    RingMismatchError,
)
from .ideals import (
    Ideal,
    _eliminate_to,
    _fresh_names,
    eliminate,
    map_ideal,
    map_poly,
    quotient_dimension,
    saturate,
    saturate_ideal,
    split_components,
)
from .poly import PolyRing, Polynomial

SLICE_COEFF_BOUND = 50


def _child_seed(seed, *branch):
    s = seed & 0x7FFFFFFF
    for b in branch:
        s = (s * 1000003 + b + 1) & 0x7FFFFFFF
    return s


# ---------------------------------------------------------------------------
# multiplicities


def _random_affine_form(ring, rng):
    while True:
        coeffs = [rng.randint(-SLICE_COEFF_BOUND, SLICE_COEFF_BOUND) for _ in ring.vars]
        if any(coeffs):
            const = rng.randint(-SLICE_COEFF_BOUND, SLICE_COEFF_BOUND)
            return ring.linear_form(coeffs, const)


def _witnesses(W, others):
    """One polynomial per other component: vanishing there, not on W."""
    out = []
    for other in others:
        for g in other.groebner():
            if not W.contains(g):
                out.append(g)
                break
        else:
            raise InternalError("components are not incomparable")
    return out


def _sliced_length(P, g, W, witnesses, forms):
    """Length ratio for one slice; None signals a bad slice, "nonintegral"
    a ratio that failed to divide."""
    Q = P.plus((g,) + forms)
    for h in witnesses:
        Q = saturate(Q, h)
    num = quotient_dimension(Q)
    if num is None or num == 0:
        return None
    den = quotient_dimension(W.plus(forms))
    if den is None or den == 0:
        return None
    if num % den:
        return "nonintegral"
    return num // den


def multiplicity_along(P, g, W, seed=0, others=None):
    """Intersection multiplicity of the hypersurface V(g) with V(P) along
    the component W of V(P + (g)).

    Cuts W down to points with random affine-linear slices, removes the
    other components by saturation against witness polynomials, and
    divides the sliced length by the degree of W.  Two independent slices
    must agree; three rounds of retries are allowed before the slice
    choice is declared non-generic.
    """
    if isinstance(g, str):
        g = P.ring.parse(g)
    if P.contains(g):
        raise ImproperIntersectionError(P, g)
    if others is None:
        others = [c.ideal for c in split_components(P.plus([g])) if c.ideal != W]
    witnesses = _witnesses(W, others)
    dim_w = W.dimension()
    if dim_w < 0:
        raise InputError("component is empty")
    if dim_w == 0:
        m = _sliced_length(P, g, W, witnesses, ())
        if m == "nonintegral":
            raise InternalError("non-integral multiplicity on a point component")
        if m is None:
            raise InternalError("zero-dimensional slice degenerated")
        return m, []

    nonintegral_everywhere = True
    seeds_used = []
    for attempt in range(3):
        s1 = _child_seed(seed, attempt, 0)
        s2 = _child_seed(seed, attempt, 1)
        rng1, rng2 = random.Random(s1), random.Random(s2)
        f1 = tuple(_random_affine_form(P.ring, rng1) for _ in range(dim_w))
        f2 = tuple(_random_affine_form(P.ring, rng2) for _ in range(dim_w))
        m1 = _sliced_length(P, g, W, witnesses, f1)
        m2 = _sliced_length(P, g, W, witnesses, f2)
        seeds_used.extend([s1, s2])
        if not (m1 == "nonintegral" and m2 == "nonintegral"):
            nonintegral_everywhere = False
        if m1 == m2 and isinstance(m1, int):
            return m1, seeds_used
    if nonintegral_everywhere:
        raise InternalError(
            "persistent non-integral multiplicity along %r" % (W,)
        )
    raise GenericityError(
        "non-generic slice while computing a multiplicity",
        stage=("slice", "multiplicity", W),
    )


class IntersectionRecord:
    __slots__ = ("parent", "component", "multiplicity", "certified", "seeds")

    def __init__(self, parent, component, multiplicity, certified, seeds):
        self.parent = parent
        self.component = component
        self.multiplicity = multiplicity
        self.certified = certified
        self.seeds = seeds

    def to_json(self):
        return {
            "parent": self.parent.generator_strings(),
            "component": self.component.generator_strings(),
            "multiplicity": self.multiplicity,
            "certified": self.certified,
            "slice_seeds": list(self.seeds),
        }


class IntersectionResult:
    __slots__ = ("cycle", "records", "proper")

    def __init__(self, cycle, records):
        self.cycle = cycle
        self.records = records
        self.proper = True


def intersect_hypersurface(E, g, seed=0):
    """Proper intersection of an enriched cycle with the hypersurface V(g).

    Every component must avoid containing g; each component splits into
    the minimal components of (component + g), weighted by the
    intersection multiplicity tensored into the coefficient.
    """
    if isinstance(g, str):
        g = E.ring.parse(g)
    if g.ring != E.ring:
        raise RingMismatchError("hypersurface lives in a different ring")
    acc = {}
    warnings = set(E.warnings)
    records = []
    for idx, (P, coeff) in enumerate(E.items()):
        if P.contains(g):
            raise ImproperIntersectionError(P, g)
        comps = split_components(P.plus([g]))
        ideals = [c.ideal for c in comps]
        for jdx, comp in enumerate(comps):
            W = comp.ideal
            others = [J for J in ideals if J != W]
            m, seeds = multiplicity_along(
                P, g, W, seed=_child_seed(seed, idx, jdx), others=others
            )
            group = coeff.tensor(AbGroup(m))
            acc[W] = acc[W].dsum(group) if W in acc else group
            if not comp.certified:
                warnings.add("uncertified component: V(%s)" % ", ".join(W.generator_strings()))
            records.append(IntersectionRecord(P, W, m, comp.certified, seeds))
    return IntersectionResult(EnrichedCycle(E.ring, acc, warnings), records)


def local_multiplicity_at_point(J, point):
    """Length of the local ring of ring/J at a rational point.

    Every component of V(J) that misses the point is removed by
    saturating J with one of its basis elements that is nonzero at the
    point; what is left is supported at the point alone, so its quotient
    dimension is the length.  Components missing the point may have any
    dimension; a positive-dimensional component through the point is
    rejected.  Zero when the point is off the locus.
    """
    ring = J.ring
    point = tuple(Fraction(c) for c in point)
    if len(point) != ring.nvars:
        raise InputError("point has wrong number of coordinates")
    comps = [] if J.is_unit() else [c.ideal for c in split_components(J)]
    if not any(C.vanishes_at(point) for C in comps):
        return 0
    local = J
    for C in comps:
        if not C.vanishes_at(point):
            local = saturate(local, next(g for g in C.groebner() if g.eval_point(point)))
        elif C.dimension() > 0:
            raise InputError(
                "local multiplicity requires the locus to be zero-dimensional "
                "at the point; V(%s) is not" % ", ".join(C.generator_strings())
            )
    length = quotient_dimension(local)
    if length is None:
        raise InternalError("localization at the point left a positive-dimensional locus")
    return length


def dim_at_point(J, point):
    """Max dimension of the components of V(J) through the point; None if
    the point is off the locus."""
    if J.is_unit():
        return None
    best = None
    for comp in split_components(J):
        if comp.ideal.vanishes_at(point):
            d = comp.ideal.dimension()
            best = d if best is None else max(best, d)
    return best


# ---------------------------------------------------------------------------
# conormal geometry


def graph_ideal(f, full_ring):
    """The image of the differential of f: V(w_i - df/dz_i for all i)."""
    if not full_ring.cotangent_vars:
        raise InputError("ring carries no cotangent block")
    if f.ring != full_ring:
        f = map_poly(f, full_ring)
    gens = []
    for z, w in zip(full_ring.base_vars, full_ring.cotangent_vars):
        gens.append(full_ring.var(w) - f.diff(z))
    return Ideal(full_ring, gens)


def _linear_coefficient_rows(gens, ring, columns):
    rows = []
    for g in gens:
        row = []
        for name in columns:
            i = ring.index(name)
            e = [0] * ring.nvars
            e[i] = 1
            row.append(g.terms.get(tuple(e), Fraction(0)))
        rows.append(row)
    return rows


def row_reduce(rows, ncols):
    """Exact Gauss-Jordan elimination over the rationals, pivoting only in
    the first `ncols` columns; returns (reduced rows, pivot columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _nullspace(rows, ncols):
    """Basis of the rational null space of the given coefficient rows."""
    m, pivots = row_reduce(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def _is_linear_ideal(I):
    return all(g.total_degree() <= 1 for g in I.gens)


def _minor_dets(matrix, size):
    """All size x size minors of a matrix of polynomials."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    if size <= 0 or size > nrows or size > ncols:
        return []
    out = []
    for rows in itertools.combinations(range(nrows), size):
        for cols in itertools.combinations(range(ncols), size):
            out.append(_det([[matrix[r][c] for c in cols] for r in rows]))
    return out


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        entry = m[0][j]
        if isinstance(entry, Polynomial) and entry.is_zero():
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        term = entry * _det(sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        return m[0][0].ring.zero()
    return total


def conormal_ideal(I, full_ring):
    """Ideal of the closure of the conormal to the smooth part of V(I).

    For the zero ideal this is the zero section; for linear ideals the
    fibre conditions come from the tangent null space; otherwise the
    bordered-Jacobian minors saturated by the singular-locus minors.
    """
    if not full_ring.cotangent_vars:
        raise InputError("ring carries no cotangent block")
    if I.is_unit():
        raise InputError("conormal of the empty locus")
    lifted = map_ideal(I, full_ring)
    base = full_ring.base_vars
    cot = full_ring.cotangent_vars
    if I.is_zero():
        return Ideal(full_ring, [full_ring.var(w) for w in cot])
    if _is_linear_ideal(I):
        rows = _linear_coefficient_rows(lifted.gens, full_ring, base)
        gens = list(lifted.gens)
        for v in _nullspace(rows, len(base)):
            form = full_ring.zero()
            for coeff, w in zip(v, cot):
                if coeff:
                    form = form + full_ring.var(w) * coeff
            if not form.is_zero():
                gens.append(form)
        return Ideal(full_ring, gens)
    codim = len(base) - I.dimension()
    jac = [[g.diff(z) for z in base] for g in lifted.gens]
    bordered = jac + [[full_ring.var(w) for w in cot]]
    gens = list(lifted.gens) + _minor_dets(bordered, codim + 1)
    cone = Ideal(full_ring, gens)
    sing = [p for p in _minor_dets(jac, codim) if not p.is_zero()]
    if not sing:
        return cone
    return saturate_ideal(cone, Ideal(full_ring, sing))


def function_values_on(I, f):
    """None when f is dominant (non-constant) on V(I); otherwise the monic
    univariate eliminant whose roots are the values of f."""
    ring = I.ring
    (tname,) = _fresh_names(set(ring.vars), "_v", 1)
    ext = PolyRing(ring.vars + (tname,))
    gens = [map_poly(g, ext) for g in I.gens]
    gens.append(ext.var(tname) - map_poly(f, ext))
    values = eliminate(Ideal(ext, gens), set(ring.vars))
    gb = values.groebner()
    if not gb:
        return None
    return gb[0]


def constant_value_on(I, f):
    """(is_constant, rational value or None) for f restricted to V(I)."""
    eliminant = function_values_on(I, f)
    if eliminant is None:
        return False, None
    if eliminant.total_degree() == 1:
        # monic t - c
        const = -eliminant.terms.get((0,) * eliminant.ring.nvars, Fraction(0))
        return True, const
    # finitely many conjugate values: constant on each geometric piece
    return True, None


def relative_conormal_ideal(I, f, full_ring):
    """Closure of the covectors annihilating ker(df) within the tangent
    spaces of the smooth part of V(I).

    Rejects f constant on the locus.  Bordered-Jacobian construction
    saturated by the singular minors and the locus where df is tangent.
    """
    if not full_ring.cotangent_vars:
        raise InputError("ring carries no cotangent block")
    if I.is_unit():
        raise InputError("relative conormal of the empty locus")
    base_I = I if I.ring != full_ring else eliminate(I, full_ring.cotangent_vars)
    f_base = f if f.ring == base_I.ring else map_poly(f, base_I.ring)
    constant, _ = constant_value_on(base_I, f_base)
    if constant:
        raise InputError("function is constant on the locus; no relative conormal")
    lifted = map_ideal(base_I, full_ring)
    flift = map_poly(f, full_ring)
    base = full_ring.base_vars
    cot = full_ring.cotangent_vars
    codim = len(base) - base_I.dimension()
    jac = [[g.diff(z) for z in base] for g in lifted.gens]
    df_row = [flift.diff(z) for z in base]
    w_row = [full_ring.var(w) for w in cot]
    gens = list(lifted.gens) + _minor_dets(jac + [df_row, w_row], codim + 2)
    cone = Ideal(full_ring, gens)
    for minor_set in (_minor_dets(jac, codim), _minor_dets(jac + [df_row], codim + 1)):
        nonzero = [p for p in minor_set if not p.is_zero()]
        if nonzero:
            cone = saturate_ideal(cone, Ideal(full_ring, nonzero))
    return cone


def graph_pushforward(E, f):
    """Push an enriched cycle supported inside the gradient graph down to
    the base; the graph projection is an isomorphism, so coefficients are
    carried unchanged."""
    full = E.ring
    graph = graph_ideal(f, full)
    base = full.base_ring()
    acc = {}
    for P, coeff in E.items():
        for g in graph.gens:
            if not P.contains(g):
                raise InputError(
                    "component V(%s) is not inside the gradient graph"
                    % ", ".join(P.generator_strings())
                )
        image = eliminate(P, full.cotangent_vars)
        acc[image] = acc[image].dsum(coeff) if image in acc else coeff
    return EnrichedCycle(base, acc, E.warnings)


# ---------------------------------------------------------------------------
# blow-up cross-check (experimental; exercised only by diagnostics/tests)


class ExceptionalComponent:
    __slots__ = ("ideal", "multiplicity", "chart", "certified")

    def __init__(self, ideal, multiplicity, chart, certified):
        self.ideal = ideal
        self.multiplicity = multiplicity
        self.chart = chart
        self.certified = certified

    def __repr__(self):
        return "ExceptionalComponent(%r, mult=%d, chart=%s)" % (
            self.ideal,
            self.multiplicity,
            self.chart,
        )


def blowup_exceptional(P, g_tuple, seed=0):
    """Blow up V(P) along the tuple g and decompose the exceptional
    divisor with multiplicities.

    Returns the blow-up ideal (in a ring extended by projective
    coordinates) and the exceptional components; multiplicities are
    computed chart by chart.  Experimental: used as a cross-check against
    the inductive intersection route.
    """
    ring = P.ring
    g_tuple = tuple(ring.parse(g) if isinstance(g, str) else g for g in g_tuple)
    if all(P.contains(g) for g in g_tuple):
        raise InputError("blow-up undefined on component: the tuple vanishes on it")
    d1 = len(g_tuple)
    enames = _fresh_names(set(ring.vars), "e_", d1)
    (tname,) = _fresh_names(set(ring.vars) | set(enames), "_t", 1)
    rees_ring = PolyRing(ring.vars + tuple(enames) + (tname,))
    gens = [map_poly(h, rees_ring) for h in P.gens]
    t = rees_ring.var(tname)
    for name, g in zip(enames, g_tuple):
        gens.append(rees_ring.var(name) - t * map_poly(g, rees_ring))
    ext_ring = PolyRing(ring.vars + tuple(enames))
    blowup = _eliminate_to(Ideal(rees_ring, gens), {tname}, ext_ring)
    g_ext = [map_poly(g, ext_ring) for g in g_tuple]
    blowup = saturate_ideal(blowup, Ideal(ext_ring, g_ext))

    total = blowup.plus(g_ext)
    if total.is_unit():
        return blowup, []
    out = []
    for idx, comp in enumerate(split_components(total)):
        W = comp.ideal
        evars = [ext_ring.var(n) for n in enames]
        if all(W.contains(e) for e in evars):
            continue  # cone point only; empty projectively
        chart = next(j for j, e in enumerate(evars) if not W.contains(e))
        chart_ring = PolyRing(
            ring.vars + tuple(n for j, n in enumerate(enames) if j != chart)
        )
        sub = {enames[chart]: Fraction(1)}

        def to_chart(p):
            return map_poly(p.subs(sub), chart_ring)

        B_chart = Ideal(chart_ring, [to_chart(h) for h in blowup.gens])
        W_chart = Ideal(chart_ring, [to_chart(h) for h in W.gens])
        g_chart = to_chart(g_ext[chart])
        m, _seeds = multiplicity_along(
            B_chart, g_chart, W_chart, seed=_child_seed(seed, idx)
        )
        out.append(ExceptionalComponent(W, m, chart, comp.certified))
    return blowup, out

"""Intersection theory on the cotangent ring.

Intersection multiplicities along components and at rational points,
both exact local lengths from one routine (1 for a cut that is its own
component, else degree ratios after removing the other components),
conormal and relative-conormal ideals, and push-forward along the
gradient graph.  Nothing here is random.
"""

from __future__ import annotations

import collections
import itertools

from .abgroups import AbGroup
from .cycles import EnrichedCycle
from .errors import (
    ImproperIntersectionError,
    InputError,
    InternalError,
    RingMismatchError,
)
from .ideals import (
    Ideal,
    _eliminate_to,
    _with_tag_var,
    degree,
    eliminate,
    map_ideal,
    map_poly,
    saturate,
    saturate_ideal,
    split_components,
)
from .poly import PolyRing, Polynomial, rational

# ---------------------------------------------------------------------------
# multiplicities


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


def _local_length(Q, W, others):
    """Length of ring/Q localized at its component W, where `others` are
    the other components of V(Q).

    When Q is W itself the local ring is a field and the length is 1.
    Otherwise saturating Q by one witness polynomial per other component
    leaves W as the only top-dimensional associated prime, so the degree
    of the saturation is the length times the degree of W.
    """
    if Q == W:
        return 1
    for h in _witnesses(W, others):
        Q = saturate(Q, h)
    if Q.dimension() != W.dimension():
        raise InternalError(
            "saturated ideal has dimension %d, its component %d"
            % (Q.dimension(), W.dimension())
        )
    num, den = degree(Q), degree(W)
    if num % den:
        raise InternalError("non-integral local length along %r" % (W,))
    return num // den


def multiplicity_along(P, g, W, others=None):
    """Intersection multiplicity of the hypersurface V(g) with V(P) along
    the component W of V(P + (g)): the local length of P + (g) at W."""
    if isinstance(g, str):
        g = P.ring.parse(g)
    if P.contains(g):
        raise ImproperIntersectionError(P, g)
    Q = P.plus([g])
    if others is None:
        others = [c.ideal for c in split_components(Q) if c.ideal != W]
    if W.dimension() < 0:
        raise InputError("component is empty")
    return _local_length(Q, W, others)


class IntersectionRecord(collections.namedtuple(
    "IntersectionRecord", ("parent", "component", "multiplicity", "certified")
)):
    __slots__ = ()

    def to_json(self):
        return {
            "parent": self.parent.generator_strings(),
            "component": self.component.generator_strings(),
            "multiplicity": self.multiplicity,
            "certified": self.certified,
        }


IntersectionResult = collections.namedtuple("IntersectionResult", ("cycle", "records"))


def intersect_hypersurface(E, g):
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
    records = []
    for P, coeff in E.items():
        if P.contains(g):
            raise ImproperIntersectionError(P, g)
        Q = P.plus([g])
        comps = split_components(Q)
        ideals = [c.ideal for c in comps]
        for comp in comps:
            W = comp.ideal
            m = _local_length(Q, W, [J for J in ideals if J is not W])
            group = coeff.tensor(AbGroup(m))
            acc[W] = acc[W].dsum(group) if W in acc else group
            records.append(IntersectionRecord(P, W, m, comp.certified))
    return IntersectionResult(EnrichedCycle(E.ring, acc), records)


def local_multiplicity_at_point(J, point):
    """Length of the local ring of ring/J at a rational point: the local
    length of J at the point's maximal ideal, the components that miss
    the point being the others.  These may have any dimension; a
    positive-dimensional component through the point is rejected.  Zero
    when the point is off the locus.
    """
    ring = J.ring
    point = tuple(map(rational, point))
    if len(point) != ring.nvars:
        raise InputError("point has wrong number of coordinates")
    comps = [] if J.is_unit() else [c.ideal for c in split_components(J)]
    through = [C for C in comps if C.vanishes_at(point)]
    if not through:
        return 0
    for C in through:
        if C.dimension() > 0:
            raise InputError(
                "local multiplicity requires the locus to be zero-dimensional "
                "at the point; V(%s) is not" % ", ".join(C.generator_strings())
            )
    W = Ideal(ring, [ring.var(v) - c for v, c in zip(ring.vars, point)])
    return _local_length(J, W, [C for C in comps if C not in through])


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


def _minor_dets(matrix, size):
    """All size x size minors of a matrix of polynomials, by row sets and
    then column sets in lexicographic order.  The sub-minors of one call
    are shared (`_det`)."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    if size <= 0 or size > nrows or size > ncols:
        return []
    memo = {}
    return [
        _det(matrix, rows, cols, memo)
        for rows in itertools.combinations(range(nrows), size)
        for cols in itertools.combinations(range(ncols), size)
    ]


def _det(matrix, rows, cols, memo):
    """The minor of `matrix` on the index tuples rows and cols, expanded
    along its first row; `memo` keeps each minor by (rows, cols)."""
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    if (rows, cols) in memo:
        return memo[rows, cols]
    total = None
    for j, c in enumerate(cols):
        entry = matrix[rows[0]][c]
        if isinstance(entry, Polynomial) and entry.is_zero():
            continue
        term = entry * _det(matrix, rows[1:], cols[:j] + cols[j + 1:], memo)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = matrix[rows[0]][cols[0]].ring.zero()
    memo[rows, cols] = total
    return total


def _bordered_conormal(I, extra_rows, full_ring):
    """Conormal-type ideal of V(I) bordered by extra covector rows.

    The generators of I lifted to the full ring plus the
    (codim + 1 + len(extra_rows))-minors of the Jacobian of I stacked on
    the extra rows and the row of cotangent variables; then, for each
    r = 0..len(extra_rows), saturated by the nonzero (codim + r)-minors
    of the Jacobian stacked on the first r extra rows.
    """
    lifted = map_ideal(I, full_ring)
    base = full_ring.base_vars
    codim = len(base) - I.dimension()
    jac = [[g.diff(z) for z in base] for g in lifted.gens]
    w_row = [full_ring.var(w) for w in full_ring.cotangent_vars]
    size = codim + 1 + len(extra_rows)
    cone = Ideal(full_ring, list(lifted.gens) + _minor_dets(jac + extra_rows + [w_row], size))
    for r in range(len(extra_rows) + 1):
        sing = [p for p in _minor_dets(jac + extra_rows[:r], codim + r) if not p.is_zero()]
        if sing:
            cone = saturate_ideal(cone, Ideal(full_ring, sing))
    return cone


def conormal_ideal(I, full_ring):
    """Ideal of the closure of the conormal to the smooth part of V(I).

    Covectors at a smooth point of the top-dimensional part of V(I)
    that vanish on its tangent space: the bordered-Jacobian minors,
    saturated by the singular-locus minors.  A linear ideal gives the
    subspace times its annihilator, I plus w.v for each variable f leading
    no monic basis element: v_f = 1, v_p = -(f's coefficient in the one p
    leads).  The zero ideal gives the zero section.
    """
    if not full_ring.cotangent_vars:
        raise InputError("ring carries no cotangent block")
    if I.is_unit():
        raise InputError("conormal of the empty locus")
    if not I.is_linear():
        return _bordered_conormal(I, [], full_ring)
    n, basis = I.ring.nvars, I.groebner()  # I's ring is the base ring
    leads = [next(iter(g.terms)).index(1) for g in basis]
    gens = list(map_ideal(I, full_ring).gens)
    for f in [f for f in range(n) if f not in leads]:
        unit = tuple(int(j == f) for j in range(n))
        coeffs = [0] * (n + f) + [1] + [0] * (n - 1 - f)
        for g, p in zip(basis, leads):
            coeffs[n + p] = -g.terms.get(unit, 0)
        gens.append(full_ring.linear_form(coeffs))
    return Ideal(full_ring, gens)


def constant_value_on(I, f):
    """(is_constant, rational value or None) for f restricted to V(I).

    f is constant on V(I) exactly when I + (t - f) has a nonzero
    eliminant in t; its roots are the values of f.  That ideal has no
    basis to key the `eliminate` memo by."""
    ext, t = _with_tag_var(I.ring)
    gens = [map_poly(g, ext) for g in I.gens]
    gens.append(ext.var(t) - map_poly(f, ext))
    values = _eliminate_to(Ideal(ext, gens), PolyRing((t,))).groebner()
    if not values:
        return False, None
    eliminant = values[0]
    if eliminant.total_degree() == 1:
        # monic t - c
        const = -eliminant.terms.get((0,) * eliminant.ring.nvars, 0)
        return True, const
    # finitely many conjugate values: constant on each geometric piece
    return True, None


def relative_conormal_ideal(I, f, full_ring):
    """Closure of the covectors annihilating ker(df) within the tangent
    spaces of the smooth part of V(I).

    Rejects f constant on the locus.  The bordered-Jacobian construction
    of `conormal_ideal` with the row df added, saturated by the singular
    minors and by the locus where df vanishes on the tangent space.
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
    flift = map_poly(f, full_ring)
    df_row = [flift.diff(z) for z in full_ring.base_vars]
    return _bordered_conormal(base_I, [df_row], full_ring)


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
    return EnrichedCycle(base, acc)

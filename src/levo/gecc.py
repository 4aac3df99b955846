"""Graded enriched characteristic cycles from stratification data.

A sheaf is specified either by strata (closure ideals with their
per-degree normal-data modules) or directly as a graded enriched cycle
on conormal-type components.  From either we derive supports, nearby
cycles along a function, point stalks of vanishing cycles at isolated
points, and the critical locus.
"""

from __future__ import annotations

import collections

from .abgroups import ZERO_GROUP, AbGroup
from .cycles import EnrichedCycle, GradedEnrichedCycle
from .errors import GenericityError, InputError
from .geom import (
    conormal_ideal,
    constant_value_on,
    graph_ideal,
    intersect_hypersurface,
    local_multiplicity_at_point,
    relative_conormal_ideal,
)
from .ideals import (
    Ideal,
    _dedupe,
    eliminate,
    map_poly,
    maximal_loci,
    radical_member,
    rational_point_of,
    split_components,
)


class StratumSpec:
    """Closed stratum data: closure ideal in the base ring, optional
    explicit conormal ideal in the full ring, dimension, and the map
    degree -> module of normal Morse data (trusted input, never derived
    from an actual complex of sheaves)."""

    __slots__ = ("closure", "conormal", "dim", "morse", "label")

    def __init__(self, closure, morse, conormal=None, dim=None, label=None):
        self.closure = closure
        self.morse = {int(k): g for k, g in morse.items() if not g.is_zero()}
        self.conormal = conormal
        d = closure.dimension()
        if dim is not None and dim != d:
            raise InputError(
                "declared dimension %d but the closure has dimension %d" % (dim, d)
            )
        self.dim = d
        self.label = label if label is not None else "V(%s)" % ", ".join(
            closure.generator_strings()
        )

    def is_visible(self):
        return bool(self.morse)


_SAME_CONORMAL = "strata %s and %s have the same conormal"


class SheafSpec:
    """Either a list of strata or a directly supplied graded cycle.

    In strata mode `conormals` pairs each visible stratum, in input
    order, with its conormal ideal from `stratum_conormal`; no two may
    be equal.  Direct mode has none.
    """

    __slots__ = ("strata", "direct", "ring", "conormals")

    def __init__(self, ring, strata=None, direct=None):
        if (strata is None) == (direct is None):
            raise InputError("specify exactly one of strata or a direct cycle")
        self.ring = ring
        self.strata = list(strata) if strata is not None else None
        self.direct = direct
        self.conormals = []
        if self.strata is None:
            return
        seen = {}
        for s in self.strata:
            c = s.conormal.key() if s.conormal is not None else ("closure", s.closure.key())
            if c in seen:
                raise InputError(_SAME_CONORMAL % (seen[c].label, s.label))
            seen[c] = s
        for s in self.strata:
            if s.is_visible():
                con = stratum_conormal(s.closure, s.label, ring, s.conormal)
                for other, c in self.conormals:
                    if con == c:
                        raise InputError(_SAME_CONORMAL % (other.label, s.label))
                self.conormals.append((s, con))

    def in_strata_mode(self):
        return self.strata is not None


def stratum_conormal(closure, label, ring, explicit=None):
    """The conormal ideal of a stratum: `explicit` when given, else the
    conormal of its non-empty closure.  It is the one place a stratum's
    conormal is resolved; an empty closure, or a conormal whose dimension
    is not that of the base, is an input error naming `label`."""
    n = len(ring.base_vars)
    if explicit is not None:
        if explicit.dimension() != n:
            raise InputError("explicit conormal of %s has dimension %d, not %d"
                             % (label, explicit.dimension(), n))
        return explicit
    if closure.is_unit():
        raise InputError("conormal computation failed for %s: the closure is empty" % label)
    con = conormal_ideal(closure, ring)
    if con.dimension() != n:
        raise InputError("conormal computation failed for %s: got dimension %d, not %d"
                         % (label, con.dimension(), n))
    return con


def build_gecc(spec):
    """Sum, per degree, the Morse modules on the strata conormals.

    Strata with no nonzero module are invisible and contribute nothing.
    Direct mode returns the supplied cycle unchanged.
    """
    if not spec.in_strata_mode():
        return spec.direct
    ring = spec.ring
    by_degree = {}
    for stratum, con in spec.conormals:
        for k, module in stratum.morse.items():
            piece = by_degree.setdefault(k, {})
            piece[con] = piece[con].dsum(module) if con in piece else module
    return GradedEnrichedCycle(
        ring, {k: EnrichedCycle(ring, comps) for k, comps in by_degree.items()}
    )


class SupportReport(collections.namedtuple(
    "SupportReport", ("per_degree", "essential", "total", "images")
)):
    """The base images of a cycle's components: per degree, all of them
    (`essential`), the maximal ones (`total`), and `images`, each distinct
    component's image keyed by the component in `G.components()` order."""

    __slots__ = ()

    def to_json(self):
        return {
            "per_degree": {
                str(k): [I.generator_strings() for I in ideals]
                for k, ideals in self.per_degree.items()
            },
            "essential_subvarieties": [I.generator_strings() for I in self.essential],
            "total": [I.generator_strings() for I in self.total],
        }


def support_of_gecc(G):
    """Project each distinct component to the base once: the essential subvarieties.

    `total` keeps only maximal subvarieties (those not inside another),
    whose union is the support.
    """
    cot = G.ring.cotangent_vars
    images = {P: eliminate(P, cot) for P in G.components()}
    per_degree = {
        k: _dedupe(images[P] for P in G.piece(k).components) for k in G.degrees()
    }
    essential = _dedupe(I for ideals in per_degree.values() for I in ideals)
    return SupportReport(per_degree, essential, maximal_loci(essential), images)


def support_assertions(support, crit, f):
    """The report's checks of the support against the critical locus
    `crit` of f: the critical locus lies inside the support, and each
    rational point whose full cotangent space is a component, with f = 0
    there, lies on the critical locus.  Reads the images `support` kept."""
    crit_inside = all(
        any(all(radical_member(g, c.ideal) for g in S.gens) for S in support.total)
        for c in crit
    )
    checked = []
    for P, img in support.images.items():
        point = rational_point_of(img)
        if point is None or f.eval_point(point) != 0:
            continue
        ring = P.ring
        if P != Ideal(ring, [ring.var(z) - c for z, c in zip(ring.base_vars, point)]):
            continue
        hit = any(c.ideal.vanishes_at(point) for c in crit)
        checked.append({"point": [str(c) for c in point], "in_critical_locus": hit})
    return [
        {"name": "critical-locus-inside-support", "holds": crit_inside},
        {
            "name": "point-conormal-summands-reach-the-critical-locus",
            "holds": all(p["in_critical_locus"] for p in checked),
            "points": checked,
        },
    ]


def base_images(ideals, extra, images, skip_zero_section=False):
    """Each distinct component of V(P + extra), for every P in `ideals`,
    mapped to its base projection; a component of the cycle takes its
    projection from `images`, the support section's table.

    With `skip_zero_section`, components inside the zero section (which
    carry no projective direction) are discarded before projecting.
    """
    out = {}
    for P in ideals:
        J = P.plus(extra)
        if J.is_unit():
            continue
        cot = J.ring.cotangent_vars
        for C in (comp.ideal for comp in split_components(J)):
            if C in out or skip_zero_section and all(C.contains(J.ring.var(w)) for w in cot):
                continue
            out[C] = images[C] if C in images else eliminate(C, cot)
    return out


def nearby_gecc(spec, f):
    """Characteristic cycle of the nearby cycles along f.

    Per visible stratum on which f is non-constant, the relative conormal
    carries the stratum's modules; the sum is then cut by V(f).  Strata
    with f constant are skipped.  Returns the cycle and the sorted labels
    of the skipped strata.
    """
    if not spec.in_strata_mode():
        raise InputError(
            "nearby cycles need strata data; no conormal-only formula exists"
        )
    ring = spec.ring
    if f.ring != ring.base_ring():
        raise InputError("function must live in the base ring")
    skipped = []
    by_degree = {}
    for stratum in spec.strata:
        if not stratum.is_visible():
            continue
        constant, _value = constant_value_on(stratum.closure, f)
        if constant:
            skipped.append(stratum.label)
            continue
        rel = relative_conormal_ideal(stratum.closure, f, ring)
        for k, module in stratum.morse.items():
            piece = by_degree.setdefault(k, {})
            piece[rel] = piece[rel].dsum(module) if rel in piece else module
    out = {}
    f_full = map_poly(f, ring)
    for k, comps in by_degree.items():
        cyc = EnrichedCycle(ring, comps)
        out[k] = intersect_hypersurface(cyc, f_full).cycle
    result = GradedEnrichedCycle(ring, out)
    return result, sorted(skipped)


def isolated_vanishing_stalk(G, f, point):
    """Stalk modules of the vanishing cycles of f at a point where the
    intersection of the support with the gradient graph is isolated.

    Per degree, the coefficient of each component is tensored by the
    local multiplicity of (component + graph) at (p, df(p)).
    """
    ring = G.ring
    base = ring.base_ring()
    if f.ring != base:
        raise InputError("function must live in the base ring")
    point = tuple(point)
    if len(point) != len(ring.base_vars):
        raise InputError("point has wrong number of coordinates")
    grad = [f.diff(z).eval_point(point) for z in base.vars]
    lifted_point = point + tuple(grad)
    graph = graph_ideal(f, ring)
    out = {}
    for k in G.degrees():
        total = ZERO_GROUP
        for P, coeff in G.piece(k).items():
            J = P.plus(graph.gens)
            try:
                mult = local_multiplicity_at_point(J, lifted_point)
            except InputError as exc:
                raise GenericityError(
                    "support meets the gradient graph in positive dimension; "
                    "use the inductive decomposition route",
                    stage=("stalk", None, J),
                ) from exc
            total = total.dsum(coeff.tensor(AbGroup(mult)))
        if not total.is_zero():
            out[k] = total
    return out


class CriticalComponent(collections.namedtuple("CriticalComponent", ("ideal", "dim", "value"))):
    __slots__ = ()

    def to_json(self):
        return {
            "ideal": self.ideal.generator_strings(),
            "dimension": self.dim,
            "critical_value": None if self.value is None else str(self.value),
        }


def critical_locus(G, f, images):
    """Base components where the support meets the gradient graph, with
    the value of f on each (None when irrational or non-unique)."""
    graph = graph_ideal(f, G.ring)
    out = []
    for I in maximal_loci(base_images(G.components(), graph.gens, images).values()):
        constant, value = constant_value_on(I, f)
        out.append(CriticalComponent(I, I.dimension(), value if constant else None))
    return out

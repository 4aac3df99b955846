"""The inductive intersection process on the gradient graph.

Starting from a degree slice of a characteristic cycle, intersect one
graph hypersurface w_j - df/dz_j at a time, splitting each result into
the residual part (components off the graph, carried forward) and the
distinguished part (components inside the graph).  The distinguished
parts push down to the base as the degree-j cycles, and iterated
coordinate slicing at a point extracts the point modules.  Setting f to
zero specializes the whole machine to the absolute polar package.
"""

from __future__ import annotations

import collections

from .abgroups import ZERO_GROUP
from .cycles import EnrichedCycle
from .errors import (
    GenericityError,
    ImproperIntersectionError,
    InputError,
    InternalError,
)
from .gecc import (
    SheafSpec,
    StratumSpec,
    base_images,
    build_gecc,
    isolated_vanishing_stalk,
    nearby_gecc,
)
from .geom import (
    conormal_ideal,
    graph_ideal,
    graph_pushforward,
    intersect_hypersurface,
)
from .ideals import eliminate, map_poly, maximal_loci, split_components
from .poly import rational


class VogelDecomposition(collections.namedtuple(
    "VogelDecomposition",
    ("degree", "residual", "distinguished", "dropped", "disjoint", "records"),
)):
    """Result of the inductive process for one degree.

    residual[j] are the carried cycles (j = n+1 .. 0) and
    distinguished[j] the graph-trapped cycles (j = n .. 0); `dropped`
    lists input components contained in the graph, `disjoint` those that
    never meet it, and `records` the properness log as (stage, record).
    """

    __slots__ = ()

    @property
    def warnings(self):
        """Report lines for each dropped component and each uncertified
        component of the properness log."""
        dropped = (
            "component inside the gradient graph dropped: V(%s)"
            % ", ".join(P.generator_strings())
            for P in self.dropped
        )
        uncertified = (
            "uncertified component: V(%s)" % ", ".join(r.component.generator_strings())
            for _, r in self.records
            if not r.certified
        )
        return {*dropped, *uncertified}

    def to_json(self):
        return {
            "degree": self.degree,
            "residual": {str(j): c.to_json() for j, c in sorted(self.residual.items())},
            "distinguished": {
                str(j): c.to_json() for j, c in sorted(self.distinguished.items())
            },
            "dropped": [I.generator_strings() for I in self.dropped],
            "disjoint_from_graph": [I.generator_strings() for I in self.disjoint],
            "warnings": sorted(self.warnings),
            "properness_log": [
                dict(stage=j, **record.to_json()) for j, record in self.records
            ],
        }


def vogel_decompose(G_k, f, degree=0):
    """Run the inductive graph-hypersurface process on one degree slice.

    Components contained in the graph are dropped with a warning;
    components disjoint from the graph are dropped silently (they carry
    no germ near it).  An improper step raises a genericity failure
    naming the stage and component.
    """
    ring = G_k.ring
    nbase = len(ring.base_vars)
    graph = graph_ideal(f, ring)
    f_full = map_poly(f, ring) if f.ring != ring else f

    for P in G_k.support():
        if P.dimension() != nbase:
            raise InputError(
                "input component V(%s) is not purely %d-dimensional"
                % (", ".join(P.generator_strings()), nbase)
            )
    disjoint = []
    dropped, start = _by_graph(G_k, graph, disjoint)

    residual = {nbase: start}
    distinguished = {}
    records = []
    for j in range(nbase - 1, -1, -1):
        w = ring.var(ring.cotangent_vars[j])
        hyp = w - f_full.diff(ring.base_vars[j])
        try:
            result = intersect_hypersurface(residual[j + 1], hyp)
        except ImproperIntersectionError as exc:
            raise GenericityError(
                "improper intersection at stage %d on component V(%s)"
                % (j, ", ".join(exc.component.generator_strings())),
                stage=("vogel", j, exc.component),
            ) from exc
        records.extend((j, record) for record in result.records)
        distinguished[j], residual[j] = _by_graph(result.cycle, graph, disjoint)
        _check_dimensions(residual[j], j, "residual")
        _check_dimensions(distinguished[j], j, "distinguished")

    decomposition = VogelDecomposition(
        degree, residual, distinguished, dropped.support(), disjoint, records
    )
    _check_set_identity(start, graph, distinguished)
    return decomposition


def _by_graph(cycle, graph, disjoint):
    """(the part of `cycle` inside the graph, the part that meets it
    elsewhere); components that never meet the graph go to `disjoint`."""
    inside, meets = {}, {}
    for P, coeff in cycle.items():
        if P.contains_ideal(graph):
            inside[P] = coeff
        elif P.plus(graph.gens).is_unit():
            disjoint.append(P)
        else:
            meets[P] = coeff
    return EnrichedCycle(cycle.ring, inside), EnrichedCycle(cycle.ring, meets)


def _check_dimensions(cycle, j, label):
    for P in cycle.support():
        if P.dimension() != j:
            raise InternalError(
                "%s cycle at stage %d has a component of dimension %d"
                % (label, j, P.dimension())
            )


def _check_set_identity(start, graph, distinguished):
    """Radical-level identity: the union of the distinguished supports is
    the intersection of the processed support with the graph."""
    deltas = []
    for cyc in distinguished.values():
        deltas.extend(cyc.support())
    for P in start.support():
        J = P.plus(graph.gens)
        if J.is_unit():
            continue
        for comp in split_components(J):
            W = comp.ideal
            if not any(W.contains_ideal(D) for D in deltas):
                raise InternalError(
                    "graph component V(%s) missing from the distinguished cycles"
                    % ", ".join(W.generator_strings())
                )
    for D in deltas:
        if not D.contains_ideal(graph):
            raise InternalError("distinguished component escapes the graph")


def levo_cycles(decomposition, f):
    """Push each distinguished cycle down to the base ring."""
    out = {}
    for j, cyc in decomposition.distinguished.items():
        if cyc.is_zero():
            continue
        out[j] = graph_pushforward(cyc, f)
    return out


def levo_modules(cycles_by_j, point):
    """Point modules: slice the degree-j cycle by the first j coordinate
    hyperplanes through the point, keeping only components through the
    point; what is left sits at the point with length one, so the
    coefficients add up unchanged.
    """
    out = {}
    for j, lam in sorted(cycles_by_j.items()):
        base = lam.ring
        pt = tuple(map(rational, point))
        cur = _through_point(lam, pt)
        for i in range(j):
            hyp = base.var(base.vars[i]) - pt[i]
            try:
                cur = intersect_hypersurface(cur, hyp).cycle
            except ImproperIntersectionError as exc:
                raise GenericityError(
                    "coordinate slice %d is improper on V(%s) for the "
                    "%d-dimensional cycle"
                    % (i, ", ".join(exc.component.generator_strings()), j),
                    stage=("slice", j, exc.component),
                ) from exc
            cur = _through_point(cur, pt)
        # a zero-dimensional split component through a rational point is
        # that point's maximal ideal, of length one
        total = ZERO_GROUP
        for W, coeff in cur.items():
            if W.dimension() > 0:
                raise GenericityError(
                    "sliced cycle is not isolated at the point",
                    stage=("slice", j, W),
                )
            if not all(W.contains(base.var(z) - c) for z, c in zip(base.vars, pt)):
                raise InternalError(
                    "point component V(%s) is not the maximal ideal of the point"
                    % ", ".join(W.generator_strings())
                )
            total = total.dsum(coeff)
        if not total.is_zero():
            out[j] = total
    return out


def _through_point(cycle, point):
    comps = {
        P: c for P, c in cycle.components.items() if P.vanishes_at(point)
    }
    return EnrichedCycle(cycle.ring, comps)


# ---------------------------------------------------------------------------
# degree-indexed driver shared by the relative and absolute modes


DegreePackage = collections.namedtuple("DegreePackage", ("decomposition", "cycles", "modules"))


def decompose_all_degrees(G, f, point):
    """VogelDecomposition, base cycles, and point modules per degree."""
    out = {}
    for k in G.degrees():
        decomposition = vogel_decompose(G.piece(k), f, degree=k)
        cycles = levo_cycles(decomposition, f)
        modules = levo_modules(cycles, point)
        out[k] = DegreePackage(decomposition, cycles, modules)
    return out


# ---------------------------------------------------------------------------
# projectivized support sets


def polar_levels(P, images):
    """One component P's walk down the cotangent coordinates: for
    m = 0..n-1, a dict from each component of V(P + w_{m+1}..w_{n-1})
    off the zero section to its base image (read from `images`, the
    support section's table, when it is there).

    Level n-1 splits P and each lower level splits the level above cut by
    one more w.  A component of V(P + w_{m+1}..) off the zero section is a
    component of V(C + w_{m+1}) for the C above that contains it, and
    every other split lies inside one of those.  This holds after any
    further cut too, such as coordinate slices, so the maximal images, and
    whether a positive-dimensional image meets a point, are those of
    cutting P afresh.  Zero-section components carry no projective
    direction and are discarded with their cuts.
    """
    cot = P.ring.cotangent_vars
    levels = [base_images([P], [], images, skip_zero_section=True)]
    for w in reversed(cot[1:]):
        levels.append(base_images(levels[-1], [P.ring.var(w)], images, skip_zero_section=True))
    return levels[::-1]


def polar_support_sets(G, images):
    """(the maximal base images of the projectivized support cut by
    w_{m+1}..w_{n-1}, the m-dimensional ones) for m = 0..n-1, merged from
    the `polar_levels` walks of G's components, and those walks by
    component; `images` is the support section's table."""
    walks = {P: polar_levels(P, images) for P in G.components()}
    sets = []
    for m in range(len(G.ring.cotangent_vars)):
        ideals = maximal_loci(img for levels in walks.values() for img in levels[m].values())
        sets.append((ideals, [I for I in ideals if I.dimension() == m]))
    return sets, walks


# ---------------------------------------------------------------------------
# independent iterated-slice oracle


def _strata_from_gecc(G):
    """Reconstruct strata from a cycle whose components are certified
    conormals of smooth (linear) closures; the oracle's precondition."""
    ring = G.ring
    per_comp = {}
    for k in G.degrees():
        for P, coeff in G.piece(k).items():
            per_comp.setdefault(P, {})[k] = coeff
    strata = []
    for P in sorted(per_comp, key=lambda P: P.sort_key()):
        morse = per_comp[P]
        closure = eliminate(P, ring.cotangent_vars)
        if not closure.is_linear():
            raise InputError(
                "iterated-slice oracle needs smooth linear closures; got V(%s)"
                % ", ".join(closure.generator_strings())
            )
        if conormal_ideal(closure, ring) != P:
            raise InputError(
                "component V(%s) is not the conormal of its base image"
                % ", ".join(P.generator_strings())
            )
        strata.append(StratumSpec(closure, morse, conormal=P))
    return SheafSpec(ring, strata=strata)


def polar_modules_iterative(spec, point, j, k, seed=0):
    """Independent route to the degree-k, index-j point module: iterate
    the nearby-cycle construction along the first j coordinates, then
    take the isolated vanishing-cycle stalk along the next one.

    Requires smooth-closure strata and an isolated stalk at every stage;
    failures surface as "coordinates not isolating for the oracle".
    The route is deterministic; `seed` is accepted and ignored.
    """
    if not spec.in_strata_mode():
        raise InputError("the oracle requires strata input")
    for stratum in spec.strata:
        if not stratum.closure.is_linear():
            raise InputError(
                "iterated-slice oracle needs smooth linear closures; got %s"
                % stratum.label
            )
    ring = spec.ring
    base = ring.base_ring()
    n = len(base.vars) - 1
    if not 0 <= j <= n:
        raise InputError("index out of range")
    pt = tuple(map(rational, point))
    current = spec
    G = build_gecc(spec)
    for i in range(j):
        if G.is_zero():
            return ZERO_GROUP
        zi = base.var(base.vars[i]) - pt[i]
        try:
            G, _skipped = nearby_gecc(current, zi)
        except ImproperIntersectionError as exc:
            raise GenericityError(
                "coordinates not isolating for the oracle",
                stage=("oracle", i, exc.component),
            ) from exc
        if G.is_zero():
            return ZERO_GROUP
        current = _strata_from_gecc(G)
    fj = base.var(base.vars[j]) - pt[j]
    try:
        stalk = isolated_vanishing_stalk(G, fj, pt)
    except GenericityError as exc:
        raise GenericityError(
            "coordinates not isolating for the oracle", stage=exc.stage
        ) from exc
    return stalk.get(k, ZERO_GROUP)

"""Genericity certificates, transversality checks, chain-complex
assembly, and Euler-characteristic reconciliation.

The certificate is read off a completed decomposition.  Computing the
point modules already cut every degree-j base cycle through the point
by the first j coordinate hyperplanes and raised GenericityError unless
each cut was proper and isolated at the point, so a completed run has
every slice verified.  It is certified when the local support dimension
d at the point is at most 2; for d >= 3 it is reported as
proper-uncertified (the small-dimension certificate theorem does not
cover it).  A GenericityError raised by a step or a slice yields a
failed certificate carrying its stage.
"""

from __future__ import annotations

import collections

from .abgroups import ZERO_GROUP
from .gecc import base_images
from .poly import rational
from .vogel import polar_levels


class GenericityCertificate(collections.namedtuple(
    "GenericityCertificate", ("status", "d", "failing_stage", "checks")
)):
    __slots__ = ()

    def to_json(self):
        return self._asdict()


def _stage_json(stage):
    if stage is None:
        return None
    kind, j, component = stage
    return {
        "kind": kind,
        "stage": j,
        "component": component.generator_strings()
        if hasattr(component, "generator_strings")
        else None,
    }


def failed_certificate(stage):
    return GenericityCertificate("failed", None, _stage_json(stage), [])


def isolating_certificate(packages, point):
    """Certificate from a completed run.

    The packages must come from `vogel.decompose_all_degrees` at this
    point: its point modules have sliced each degree-j base cycle by the
    first j coordinate hyperplanes and found every slice isolated, so
    the checks, one per component through the point, record slices
    already verified.  d is the largest dimension among those
    components, None when there is none.
    """
    point = tuple(map(rational, point))
    dims = []
    checks = []
    for k, pkg in sorted(packages.items()):
        for j, lam in sorted(pkg.cycles.items()):
            for W in lam.support():
                if W.vanishes_at(point):
                    dims.append(W.dimension())
                    checks.append(
                        {
                            "degree": k,
                            "j": j,
                            "component": W.generator_strings(),
                            "isolated": True,
                        }
                    )
    d = max(dims, default=None)
    if d is None or d <= 2:
        return GenericityCertificate("certified", d, None, checks)
    return GenericityCertificate("proper-uncertified", d, None, checks)


def essential_transversality(levels, point, full_ring):
    """Per-index transversality of the coordinate flag to one stratum.

    `levels` is the stratum conormal's `vogel.polar_levels` walk.  Index i
    cuts each level-i component by the hyperplanes z_0..z_{i-1} through
    the point (level 0 is read as it is); it holds when no base image
    (`base_images`) of the cuts off the zero section is
    positive-dimensional at the point.
    """
    point = tuple(map(rational, point))
    per_i = []
    for i, level in enumerate(levels):
        if i:
            slices = [full_ring.var(z) - c for z, c in zip(full_ring.base_vars[:i], point)]
            level = base_images(level, slices, skip_zero_section=True)
        per_i.append(not any(I.vanishes_at(point) and I.dimension() > 0 for I in level.values()))
    return per_i, all(per_i)


def upgrade_by_transversality(certificate, conormals, point, full_ring):
    """Alternative certification: if the coordinate flag is essentially
    transverse to every supplied stratum at the point, a fully proper run
    is certified regardless of the support dimension.

    The caller asserts that the strata form a Whitney-a partition (for
    the relative case, the hypersurface strata of a Thom-condition
    partition); only the transversality itself is checked here.  The
    caller passes a proper-uncertified certificate.
    """
    detail = {}
    for label, con in conormals:
        _, verdict = essential_transversality(polar_levels(con), point, full_ring)
        detail[label] = verdict
        if not verdict:
            return certificate, detail
    return certificate._replace(status="certified"), detail


# ---------------------------------------------------------------------------
# chain complexes and Euler values


class ZawatskyComplex(collections.namedtuple(
    "ZawatskyComplex", ("degree", "top", "modules", "constraints", "alternating_sum")
)):
    """The degree-k chain complex of point modules, highest index first.

    Boundary maps are not computable from cycle data; only the shape, the
    rank bounds on cohomology, the freeness of the top kernel, and the
    alternating sum are emitted.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "degree": self.degree,
            "top_index": self.top,
            "modules": [m.to_json() for m in self.modules],
            "constraints": self.constraints,
            "alternating_sum": self.alternating_sum,
        }


def zawatsky_complex(modules_by_j, d, degree=0):
    """Assemble 0 -> m^d -> ... -> m^0 -> 0 with its derived constraints."""
    top = max(d if d is not None else 0, 0)
    chain = [modules_by_j.get(j, ZERO_GROUP) for j in range(top, -1, -1)]
    constraints = []
    for offset, mod in enumerate(chain):
        j = top - offset
        constraints.append(
            {
                "cohomology_degree": -j,
                "rank_at_most": mod.rank,
                "free": bool(j == top and mod.is_free()),
            }
        )
    alternating = sum(
        (-1) ** j * modules_by_j.get(j, ZERO_GROUP).rank for j in range(top + 1)
    )
    return ZawatskyComplex(degree, top, chain, constraints, alternating)


def euler_check(modules, expected=None):
    """Signed rank sum over all (degree, index) point modules.

    `modules` maps (k, j) -> AbGroup.  Returns (value, verdict); the
    verdict compares against `expected` when supplied.
    """
    value = 0
    for (k, j), group in modules.items():
        value += (-1) ** (k + j) * group.rank
    if expected is None:
        return value, "unchecked"
    return value, ("match" if value == expected else "mismatch")

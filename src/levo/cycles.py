"""Enriched cycles: varieties weighted by finitely generated abelian groups.

An enriched cycle is a formal sum of component ideals with nonzero
group coefficients; a graded enriched cycle indexes such cycles by an
integer degree.  Both are plain immutable values: a ring and its
components.  Whether a component was certified is recorded once, in the
properness log of the decomposition that produced it.
"""

from __future__ import annotations

from .abgroups import ZERO_GROUP
from .errors import RingMismatchError


class EnrichedCycle:
    __slots__ = ("ring", "components")

    def __init__(self, ring, components=None):
        self.ring = ring
        comps = {}
        for ideal, group in (components or {}).items():
            if ideal.ring != ring:
                raise RingMismatchError("component ideal in a different ring")
            if not group.is_zero():
                comps[ideal] = group
        self.components = comps

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.components

    def support(self):
        """Component ideals, canonically sorted."""
        return sorted(self.components, key=lambda I: I.sort_key())

    def coefficient(self, ideal):
        return self.components.get(ideal, ZERO_GROUP)

    def items(self):
        return [(I, self.components[I]) for I in self.support()]

    # -- algebra ----------------------------------------------------------------

    def add(self, other):
        """Componentwise direct sum."""
        if self.ring != other.ring:
            raise RingMismatchError("cycles live in different rings")
        comps = dict(self.components)
        for ideal, group in other.components.items():
            comps[ideal] = comps[ideal].dsum(group) if ideal in comps else group
        return EnrichedCycle(self.ring, comps)

    __add__ = add

    def scale(self, group):
        """Tensor every coefficient by a fixed group."""
        comps = {I: group.tensor(g) for I, g in self.components.items()}
        return EnrichedCycle(self.ring, comps)

    def ord(self):
        """Underlying ordinary cycle: ranks only, as {ideal: int}."""
        return {I: g.rank for I, g in self.components.items() if g.rank}

    def le(self, other):
        """Partial order: self + P = other for some enriched cycle P."""
        if self.ring != other.ring:
            raise RingMismatchError("cycles live in different rings")
        for ideal, group in self.components.items():
            if not group.summand_of(other.coefficient(ideal)):
                return False
        return True

    # -- identity -----------------------------------------------------------------

    def _key(self):
        return (self.ring._key(), tuple((I.key(), g) for I, g in self.items()))

    def __eq__(self, other):
        if not isinstance(other, EnrichedCycle):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if not self.components:
            return "EnrichedCycle(0)"
        parts = ["(%s)[V(%s)]" % (g, ", ".join(I.generator_strings()))
                 for I, g in self.items()]
        return " + ".join(parts)

    def to_json(self):
        return [
            {"ideal": I.generator_strings(), "module": g.to_json()}
            for I, g in self.items()
        ]


def empty_cycle(ring):
    return EnrichedCycle(ring, {})


class GradedEnrichedCycle:
    """Degree-indexed enriched cycles over a bounded set of degrees."""

    __slots__ = ("ring", "by_degree")

    def __init__(self, ring, by_degree=None):
        self.ring = ring
        degs = {}
        for k, cyc in (by_degree or {}).items():
            if cyc.ring != ring:
                raise RingMismatchError("graded piece in a different ring")
            if not cyc.is_zero():
                degs[int(k)] = cyc
        self.by_degree = degs

    def degrees(self):
        return sorted(self.by_degree)

    def piece(self, k):
        return self.by_degree.get(k, empty_cycle(self.ring))

    def is_zero(self):
        return not self.by_degree

    def components(self):
        """All component ideals across degrees, deduped, sorted."""
        seen = {}
        for cyc in self.by_degree.values():
            for I in cyc.components:
                seen[I] = I
        return sorted(seen.values(), key=lambda I: I.sort_key())

    def add(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("cycles live in different rings")
        degs = dict(self.by_degree)
        for k, cyc in other.by_degree.items():
            degs[k] = degs[k].add(cyc) if k in degs else cyc
        return GradedEnrichedCycle(self.ring, degs)

    __add__ = add

    def scale(self, group):
        return GradedEnrichedCycle(
            self.ring, {k: c.scale(group) for k, c in self.by_degree.items()}
        )

    def shift(self, k):
        """Reindex: (shifted by k) in degree i equals old degree i + k."""
        return GradedEnrichedCycle(
            self.ring, {d - k: c for d, c in self.by_degree.items()}
        )

    def ord(self):
        """Alternating-sign ordinary cycle: {ideal: signed rank}."""
        out = {}
        for k, cyc in self.by_degree.items():
            sign = -1 if k % 2 else 1
            for I, g in cyc.components.items():
                if g.rank:
                    s = out.get(I, 0) + sign * g.rank
                    if s:
                        out[I] = s
                    else:
                        out.pop(I, None)
        return out

    def concentrated_in(self, k):
        return set(self.by_degree) <= {k}

    def __eq__(self, other):
        if not isinstance(other, GradedEnrichedCycle):
            return NotImplemented
        return self.ring == other.ring and self.by_degree == other.by_degree

    def __repr__(self):
        if not self.by_degree:
            return "GradedEnrichedCycle(0)"
        return "; ".join(
            "deg %d: %r" % (k, self.by_degree[k]) for k in self.degrees()
        )

    def to_json(self):
        return {str(k): self.by_degree[k].to_json() for k in self.degrees()}

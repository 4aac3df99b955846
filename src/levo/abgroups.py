"""Finitely generated abelian groups in invariant-factor form.

A group is a free rank plus a divisibility chain d_1 | d_2 | ... of
invariant factors (each >= 2).  The canonical form is unique, so
isomorphism is structural equality.

>>> Z(2) + Zmod(2, 4)
AbGroup(rank=2, torsion=(2, 4))
>>> Zmod(6) + Zmod(4)
AbGroup(rank=0, torsion=(2, 12))
>>> Zmod(4).tensor(Zmod(6))
AbGroup(rank=0, torsion=(2,))
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm


def _invariant_factors(divisors):
    """Canonical chain from arbitrary cyclic orders (0 and 1 dropped)."""
    ds = sorted(abs(d) for d in divisors if abs(d) > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds) - 1):
            a, b = ds[i], ds[i + 1]
            if b % a:
                ds[i], ds[i + 1] = gcd(a, b), lcm(a, b)
                changed = True
        if changed:
            ds.sort()
    return tuple(d for d in ds if d > 1)


def _factorint(n):
    out = {}
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class AbGroup:
    """Z^rank plus cyclic torsion in invariant-factor form."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank=0, torsion=()):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.rank = int(rank)
        self.torsion = _invariant_factors(torsion)

    # -- constructors-like helpers in module scope below --

    def is_zero(self):
        return self.rank == 0 and not self.torsion

    def is_free(self):
        return not self.torsion

    # -- operations -----------------------------------------------------------

    def dsum(self, other):
        """Direct sum, renormalized."""
        return AbGroup(self.rank + other.rank, self.torsion + other.torsion)

    __add__ = dsum

    def tensor(self, other):
        """Tensor product over the integers.

        Rank multiplies; free x torsion copies the torsion; cyclic torsion
        pairs contribute their gcd.
        """
        torsion = [gcd(a, b) for a in self.torsion for b in other.torsion]
        for factors, rank in ((self.torsion, other.rank), (other.torsion, self.rank)):
            if factors:  # even an empty tuple cannot repeat 2^63 or more times
                torsion.extend(factors * rank)
        return AbGroup(self.rank * other.rank, torsion)

    def elementary_divisors(self):
        """Multiset of prime-power indecomposable summands."""
        out = Counter()
        for d in self.torsion:
            for p, e in _factorint(d).items():
                out[p**e] += 1
        return out

    def summand_of(self, other):
        """True iff some G satisfies self + G = other.

        By Krull-Schmidt for finitely generated abelian groups this holds
        exactly when the rank fits and the prime-power summand multiset
        embeds.
        """
        if self.rank > other.rank:
            return False
        mine, theirs = self.elementary_divisors(), other.elementary_divisors()
        return all(theirs[q] >= k for q, k in mine.items())

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AbGroup):
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return "AbGroup(rank=%d, torsion=%s)" % (self.rank, self.torsion)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj):
        return cls(int(obj.get("rank", 0)), tuple(int(d) for d in obj.get("torsion", ())))


ZERO_GROUP = AbGroup(0, ())


def Z(rank=1):
    return AbGroup(rank, ())


def Zmod(*divisors):
    return AbGroup(0, divisors)

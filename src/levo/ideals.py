"""Ideal arithmetic over exact rationals.

Reduced Groebner bases via Buchberger's algorithm (heap-ordered normal
selection plus the product and chain criteria), full normal forms,
block-order elimination, intersection, saturation, Krull dimension,
degree and quotient vector-space dimension from the staircase, radical
membership, and decomposition into rational components by recursive
factorization.  `factor_rational` factors over Q with the native
factorizer over Z of `levo.zfactor`; levo has no third-party runtime
dependency.

Ideals are identified by the unique reduced grevlex basis, so equal
ideals hash alike and can key cycle component maps.  Inside the kernel
a basis entry is a pair (leading monomial, term dict) with leading
coefficient 1, and Buchberger's output is reduced in one sweep in
ascending leading-monomial order.  An `Ideal` keeps its reduced basis
as such entries, so no leading monomial is found twice.
`split_components` certifies a component prime only in the classes
its docstring lists.

Inside an `algebra_cache()` scope, `buchberger`, `split_components` and
`factor_rational` remember their results by canonical input: the
generator set and order, the reduced basis, the polynomial.  Their
results are unique (a split up to the generators listed for each
component), so a hit returns what a fresh call would.  Outside a scope
nothing is cached.
"""

from __future__ import annotations

import contextvars
import heapq
import itertools
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import InternalError, RingMismatchError
from .poly import (
    PolyRing,
    Polynomial,
    block_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

# ---------------------------------------------------------------------------
# per-run algebra cache

_CACHE = contextvars.ContextVar("levo_algebra_cache", default=None)

_CACHE_KINDS = ("buchberger", "split_components", "factor_rational")


class AlgebraCache:
    """Results by (kind, canonical input), with hits and misses per kind."""

    __slots__ = ("entries", "hits", "misses")

    def __init__(self):
        self.entries = {}
        self.hits = Counter()
        self.misses = Counter()

    def summary(self):
        """One line of hits and misses per kind."""
        return "algebra cache: " + ", ".join(
            "%s %d hits %d misses" % (kind, self.hits[kind], self.misses[kind])
            for kind in _CACHE_KINDS
        )


@contextmanager
def algebra_cache():
    """Install a fresh algebra cache for the duration of the block and
    yield it.  Inside a scope that already has one, yield that one."""
    cache = _CACHE.get()
    if cache is not None:
        yield cache
        return
    cache = AlgebraCache()
    token = _CACHE.set(cache)
    try:
        yield cache
    finally:
        _CACHE.reset(token)


def _memo(kind, key, compute, copy):
    """copy(compute()), where compute() runs at most once per kind and key
    inside an algebra-cache scope.  Callers get a copy, so mutating a
    result never reaches the cache."""
    cache = _CACHE.get()
    if cache is None:
        return compute()
    value = cache.entries.get((kind, key))
    if value is None:
        cache.misses[kind] += 1
        value = cache.entries[(kind, key)] = compute()
    else:
        cache.hits[kind] += 1
    return copy(value)


# ---------------------------------------------------------------------------
# low-level reduction on plain term dicts (faster than Polynomial inside loops)


def _reduce_terms(terms, basis, key):
    """Full normal form of a term dict against monic basis entries (lm, terms)."""
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for blm, bterms in basis:
            if monomial_divides(blm, m):
                q = monomial_div(m, blm)
                for bm, bc in bterms.items():
                    if bm == blm:
                        continue
                    mm = monomial_mul(bm, q)
                    s = work.get(mm, _ZERO) - c * bc
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


_ZERO = Fraction(0)


def _entry(terms, key):
    """The basis entry (lm, terms) of a nonzero term dict, scaled to
    leading coefficient 1."""
    lm = max(terms, key=key)
    lc = terms[lm]
    if lc != 1:
        terms = {m: c / lc for m, c in terms.items()}
    return lm, terms


def _spoly(e1, e2):
    lm1, t1 = e1
    lm2, t2 = e2
    lcm = monomial_lcm(lm1, lm2)
    q1, q2 = monomial_div(lcm, lm1), monomial_div(lcm, lm2)
    res = {monomial_mul(m, q1): c for m, c in t1.items()}
    for m, c in t2.items():
        mm = monomial_mul(m, q2)
        s = res.get(mm, _ZERO) - c
        if s:
            res[mm] = s
        else:
            res.pop(mm, None)
    return res


def _is_monomial(terms):
    return len(terms) == 1


def buchberger(generators, key):
    """Reduced Groebner basis of the given Polynomials' term dicts.

    Returns a list of term dicts, monic, fully inter-reduced, sorted by
    ascending leading monomial.  The classical algorithm with normal
    selection from a heap of pairs and the two classical criteria
    (product, chain).
    """
    gens = [g for g in generators if g]
    return _memo(
        "buchberger",
        (key, frozenset(frozenset(g.items()) for g in gens)),
        lambda: _buchberger(gens, key),
        lambda basis: [dict(t) for t in basis],
    )


def _buchberger(generators, key):
    # deterministic startup order
    gens = sorted(generators, key=lambda t: sorted(t, key=key, reverse=True))

    basis = []
    for g in gens:
        g = _reduce_terms(g, basis, key)
        if g:
            basis.append(_entry(g, key))

    # Every pending pair is in `pairs` (for the chain criterion) and has
    # one heap entry; popping the heap is normal selection, the smallest
    # lcm under the order with ties broken by the pair.
    pairs = set()
    heap = []

    def add_pair(i, j):
        lcm = monomial_lcm(basis[i][0], basis[j][0])
        pairs.add((i, j))
        heapq.heappush(heap, (key(lcm), (i, j), lcm))

    for i in range(len(basis)):
        for j in range(i):
            add_pair(j, i)

    def chain_criterion(i, j, lcm):
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if not monomial_divides(basis[k][0], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                return True
        return False

    while heap:
        _, (i, j), lcm = heapq.heappop(heap)
        pairs.discard((i, j))
        # S-polynomials of two monomials vanish identically
        if _is_monomial(basis[i][1]) and _is_monomial(basis[j][1]):
            continue
        # product criterion: coprime leading monomials
        if lcm == monomial_mul(basis[i][0], basis[j][0]):
            continue
        if chain_criterion(i, j, lcm):
            continue
        s = _reduce_terms(_spoly(basis[i], basis[j]), basis, key)
        if not s:
            continue
        basis.append(_entry(s, key))
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)

    return _reduce_basis(basis, key)


def _reduce_basis(basis, key):
    """The reduced basis of the ideal a Groebner basis of monic entries
    generates, as term dicts in ascending leading-monomial order.

    In that order an entry whose lm a kept lm divides is redundant, and
    every other entry is reduced against the kept ones alone: its terms
    lie below its lm, and a monomial divisible by lm(g) is never smaller
    than lm(g), so no later entry can divide them.
    """
    kept = []
    for lm, terms in sorted(basis, key=lambda e: key(e[0])):
        if not any(monomial_divides(k, lm) for k, _ in kept):
            kept.append((lm, _reduce_terms(terms, kept, key)))
    return [terms for _, terms in kept]


# ---------------------------------------------------------------------------
# Ideal


class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("ring", "gens", "_gb", "_entries", "_key", "_dim")

    def __init__(self, ring, gens):
        self.ring = ring
        clean = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise RingMismatchError("generator not in the ideal's ring")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._gb = None
        self._entries = None
        self._key = None
        self._dim = None

    # -- Groebner ------------------------------------------------------------

    def groebner(self):
        """The reduced Groebner basis under the ring's order.

        Its first computation also records the basis entries (lm, terms)
        that `normal_form` and `leading_monomials` read."""
        if self._gb is None:
            key = self.ring.key()
            dicts = buchberger([g.terms for g in self.gens], key)
            self._entries = tuple((max(t, key=key), t) for t in dicts)
            self._gb = tuple(Polynomial(self.ring, t, _clean=False) for t in dicts)
        return self._gb

    def leading_monomials(self):
        """The leading monomials of the reduced basis, in its order."""
        self.groebner()
        return [lm for lm, _ in self._entries]

    def normal_form(self, p):
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the ideal's ring")
        self.groebner()
        terms = _reduce_terms(p.terms, self._entries, self.ring.key())
        return Polynomial(self.ring, terms, _clean=False)

    def contains(self, p):
        """Ideal membership via zero normal form."""
        return self.normal_form(p).is_zero()

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self.groebner()

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    # -- identity --------------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = (self.ring._key(), tuple(g.canonical() for g in self.groebner()))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.groebner())

    def generator_strings(self):
        return [str(g) for g in self.groebner()]

    # -- numerical invariants ----------------------------------------------------

    def dimension(self):
        """Krull dimension of the vanishing locus; -1 for the unit ideal."""
        if self._dim is None:
            self._dim = krull_dimension(self)
        return self._dim

    def vanishes_at(self, point):
        return all(g.eval_point(point) == 0 for g in self.gens)

    def plus(self, polys):
        return Ideal(self.ring, self.gens + tuple(polys))


# ---------------------------------------------------------------------------
# dimension and quotient dimension


def krull_dimension(ideal):
    gb = ideal.groebner()
    if not gb:
        return ideal.ring.nvars
    if ideal.is_unit():
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in ideal.leading_monomials()]
    # drop supersets; they are hit whenever their subset is hit
    minimal = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in minimal):
            minimal.append(s)
    n = ideal.ring.nvars
    best = 0

    def recurse(remaining, excluded):
        nonlocal best
        if n - len(excluded) <= best:
            return
        if not remaining:
            best = max(best, n - len(excluded))
            return
        s = remaining[0]
        if s & excluded:
            recurse(remaining[1:], excluded)
            return
        for v in sorted(s):
            recurse([t for t in remaining[1:] if v not in t], excluded | {v})

    recurse(minimal, frozenset())
    return best


def degree(ideal):
    """Degree of V(ideal): (dim)! times the leading coefficient of the
    affine Hilbert polynomial of ring/ideal; 0 for the unit ideal.

    A graded order keeps the affine Hilbert function, so this is the
    degree of the ideal of leading monomials: the sum, over the sets S
    of dim variables that carry no leading monomial, of the number of
    standard monomials in the other variables once those in S are set
    to 1.
    """
    d = ideal.dimension()
    if d < 0:
        return 0
    lms = ideal.leading_monomials()
    n = ideal.ring.nvars
    total = 0
    for free in itertools.combinations(range(n), d):
        rest = [i for i in range(n) if i not in free]
        if any(all(lm[i] == 0 for i in rest) for lm in lms):
            continue
        total += _standard_count([tuple(lm[i] for i in rest) for lm in lms], len(rest))
    return total


def _standard_count(lms, n):
    """Number of monomials in n variables that no monomial of lms
    divides; finite here."""
    origin = (0,) * n
    seen = {origin}
    stack = [origin]
    count = 0
    while stack:
        m = stack.pop()
        count += 1
        for i in range(n):
            mm = list(m)
            mm[i] += 1
            mm = tuple(mm)
            if mm in seen:
                continue
            if any(monomial_divides(lm, mm) for lm in lms):
                continue
            seen.add(mm)
            stack.append(mm)
    return count


def quotient_dimension(ideal):
    """dim_Q of ring/ideal as a vector space; None if not finite."""
    if ideal.dimension() > 0:
        return None
    return degree(ideal)


# ---------------------------------------------------------------------------
# ring extension / elimination plumbing


def _fresh_names(taken, prefix, count):
    out = []
    i = 0
    while len(out) < count:
        name = "%s%d" % (prefix, i)
        if name not in taken:
            out.append(name)
        i += 1
    return out


def map_poly(p, target):
    """Reinterpret a polynomial in another ring containing its variables."""
    positions = [target._index.get(v) for v in p.ring.vars]
    res = {}
    tn = target.nvars
    for m, c in p.terms.items():
        mm = [0] * tn
        for i, e in enumerate(m):
            if e:
                if positions[i] is None:
                    raise InternalError("cannot map monomial involving dropped var")
                mm[positions[i]] = e
        res[tuple(mm)] = c
    return Polynomial(target, res, _clean=False)


def eliminate(ideal, drop_vars):
    """Intersect with the subring omitting `drop_vars` (a name iterable).

    Uses a block order with the dropped variables dominating; the result
    lives in the canonical subring (cotangent block kept only if the
    base/cotangent pairing survives intact).
    """
    ring = ideal.ring
    drop = set(drop_vars)
    for name in drop:
        ring.index(name)
    if not drop:
        return ideal
    keep = [v for v in ring.vars if v not in drop]
    target = _subring(ring, keep)
    return _eliminate_to(ideal, drop, target)


def _subring(ring, keep):
    keep_base = tuple(v for v in ring.base_vars if v in keep)
    keep_cot = tuple(v for v in ring.cotangent_vars if v in keep)
    if keep_cot and len(keep_cot) != len(keep_base):
        # pairing broken; flatten everything into base variables
        return PolyRing(tuple(v for v in ring.vars if v in keep))
    return PolyRing(keep_base, keep_cot)


def _eliminate_to(ideal, drop, target):
    ring = ideal.ring
    dropped = [v for v in ring.vars if v in drop]
    ndrop = len(dropped)
    work = PolyRing(tuple(dropped + [v for v in ring.vars if v not in drop]))
    dicts = buchberger([map_poly(g, work).terms for g in ideal.gens], block_key(ndrop))
    return Ideal(target, [
        map_poly(Polynomial(work, t, _clean=False), target)
        for t in dicts
        if not any(any(m[:ndrop]) for m in t)
    ])


def _with_tag_var(ring):
    """The ring with one fresh tag variable in front, and its name."""
    (name,) = _fresh_names(set(ring.vars), "_t", 1)
    return PolyRing((name,) + ring.vars), name


def _rabinowitsch(I, g):
    """I + (1 - t*g) in the ring extended by a tag variable t, and t.

    Its contraction to the original ring is the saturation I : g^infinity,
    and it is the unit ideal exactly when g lies in rad(I) (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 4 sec. 4, Thm. 14).
    """
    ext, t = _with_tag_var(I.ring)
    gens = [map_poly(h, ext) for h in I.gens]
    gens.append(ext.one() - ext.var(t) * map_poly(g, ext))
    return Ideal(ext, gens), t


def map_ideal(I, target):
    """Reinterpret an ideal in another ring containing its variables."""
    return Ideal(target, [map_poly(g, target) for g in I.gens])


def intersect(I, J):
    """Ideal intersection via the single-tag trick."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ext, t = _with_tag_var(I.ring)
    tv = ext.var(t)
    gens = [tv * map_poly(g, ext) for g in I.gens]
    gens += [(ext.one() - tv) * map_poly(g, ext) for g in J.gens]
    return _eliminate_to(Ideal(ext, gens), {t}, I.ring)


def saturate(I, g):
    """I : g^infinity, by eliminating t from I + (1 - t*g)."""
    if isinstance(g, str):
        g = I.ring.parse(g)
    if g.is_zero():
        raise ValueError("saturation by the zero polynomial")
    if g.is_constant():
        return I
    K, t = _rabinowitsch(I, g)
    return _eliminate_to(K, {t}, I.ring)


def saturate_ideal(I, J):
    """I : J^infinity for a nonzero J: the intersection of the
    saturations by the generators of J, and I itself when some generator
    is a nonzero constant, since J is then the unit ideal."""
    if any(g.is_constant() for g in J.gens):
        return I
    return reduce(intersect, [saturate(I, g) for g in J.gens])


def rational_point_of(I):
    """Coordinates of the unique rational point of a linear point ideal,
    or None when the locus is not such a point."""
    ring = I.ring
    gb = I.groebner()
    if len(gb) != ring.nvars:
        return None
    coords = {}
    origin = (0,) * ring.nvars
    for g in gb:
        if g.total_degree() != 1:
            return None
        terms = dict(g.terms)
        const = terms.pop(origin, Fraction(0))
        if len(terms) != 1:
            return None
        ((mono, coeff),) = terms.items()
        if sum(mono) != 1 or coeff != 1:
            return None
        coords[mono.index(1)] = -const
    if len(coords) != ring.nvars:
        return None
    return tuple(coords[i] for i in range(ring.nvars))


def radical_member(g, I):
    """Rabinowitsch test: g in rad(I)?"""
    if isinstance(g, str):
        g = I.ring.parse(g)
    if g.is_zero():
        return True
    return _rabinowitsch(I, g)[0].is_unit()


# ---------------------------------------------------------------------------
# factorization over Q, by the native factorizer over Z of `levo.zfactor`;
# it is imported at the first nonlinear factorization, so a job that meets
# only linear polynomials never loads (or, without cached bytecode,
# compiles) it


def factor_rational(p):
    """Irreducible factors over Q as [(factor, multiplicity)], content dropped.

    Factors are monic under the ring order and canonically sorted.
    """
    if p.is_zero() or p.is_constant():
        return []
    if p.total_degree() == 1:
        return [(p.monic(), 1)]  # linear polynomials are irreducible
    return _memo("factor_rational", (p.ring, p.canonical()), lambda: _factor(p), list)


def _factor(p):
    """Each factor lists its terms in descending lex order.  Callers that
    iterate over the terms of a factor see them in that order, so it is
    part of what keeps reports byte-identical."""
    from . import zfactor

    den = lcm(*(c.denominator for c in p.terms.values()))
    f = {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
    out = []
    for g, e in zfactor.factor(f):
        q = Polynomial(p.ring, {m: Fraction(g[m]) for m in sorted(g, reverse=True)}, _clean=False)
        out.append((q.monic(), e))
    out.sort(key=lambda fe: fe[0].canonical())
    return out


def is_irreducible(p):
    fac = factor_rational(p)
    return len(fac) == 1 and fac[0][1] == 1


# ---------------------------------------------------------------------------
# component splitting and certification


def _dedupe(ideals):
    """The distinct ideals in canonical order."""
    seen = {}
    for I in ideals:
        seen.setdefault(I.key(), I)
    return [seen[k] for k in sorted(seen)]


def maximal_loci(ideals):
    """The distinct ideals in canonical order, without any that contains
    another: the maximal loci of a union of vanishing loci."""
    ordered = _dedupe(ideals)
    return [
        I for I in ordered if not any(J is not I and I.contains_ideal(J) for J in ordered)
    ]


class Component:
    """A rational component of a vanishing locus: prime-candidate ideal
    plus a certification flag for the known-prime classes."""

    __slots__ = ("ideal", "certified")

    def __init__(self, ideal, certified):
        self.ideal = ideal
        self.certified = certified

    def __repr__(self):
        flag = "certified" if self.certified else "uncertified"
        return "Component(%r, %s)" % (self.ideal, flag)


def _branch_on_element(J, g):
    """Branches covering V(J) from a reducible element g of J, or None.

    When every irreducible factor avoids J, the branches J + (f_i) are
    exhaustive since g lies in J.  Otherwise fall back to the splitting
    pair V(J) = V(J + f) with V(J : f^infinity) for a factor that
    saturates nontrivially.
    """
    fac = factor_rational(g)
    if not fac or (len(fac) == 1 and fac[0][1] == 1):
        return None
    outside = [f for f, _ in fac if not J.contains(f)]
    if not outside:
        return None
    if len(outside) == len(fac):
        return [J.plus([f]) for f in outside]
    for f in outside:
        sat = saturate(J, f)
        if sat.key() != J.key():
            return [J.plus([f]), sat]
    return None


def split_components(I):
    """Minimal rational components of V(I) by recursive factorization
    with saturation between branches.

    Each branch J is decided by one scan that stops at the first branch
    point or the first certificate.  These are the certified (prime)
    classes:
    - the zero ideal and linear ideals;
    - a linear ideal plus one irreducible polynomial, which the reduced
      basis keeps free of the linear leading variables;
    - a zero-dimensional J whose eliminant p, the generator of J meet
      Q[v] for some v, is irreducible of degree dim_Q ring/J: the field
      Q[v]/(p) embeds in ring/J, and equal dimensions make it onto.
    The scan tries these basis rules first, then the basis elements as
    branch points, then per variable in ring order the eliminant, first
    as a branch point and then by the last rule.  A certificate ends the
    scan, which hides no branch: a prime J has none.
    Splitting is incomplete: every eliminant of the non-prime
    (x^2 - 2, y^2 - 2) is irreducible, so it stays one uncertified
    component.  So is certification: (x^2 - 2, y^2 - 3) is prime, but no
    eliminant has degree 4.  Output ideals are pairwise incomparable.
    """
    if I.is_unit():
        raise ValueError("the unit ideal has no components")
    return _memo(
        "split_components",
        I.key(),
        lambda: _split(I),
        lambda comps: [Component(c.ideal, c.certified) for c in comps],
    )


def _split(I):
    found = {}
    work = [I]
    while work:
        J = work.pop()
        if J.is_unit():
            continue
        branches = _branch_or_certify(J)
        if isinstance(branches, bool):
            found.setdefault(J.key(), Component(J, branches))
        else:
            work.extend(branches)
    return [found[J.key()] for J in maximal_loci(c.ideal for c in found.values())]


def _branch_or_certify(J):
    """Branches covering V(J), or whether J is certified prime, by the
    scan `split_components` describes."""
    gb = J.groebner()
    nonlinear = [g for g in gb if g.total_degree() > 1]
    if not nonlinear or (len(nonlinear) == 1 and is_irreducible(nonlinear[0])):
        return True
    for g in gb:
        branches = _branch_on_element(J, g)
        if branches:
            return branches
    n = quotient_dimension(J)  # None unless J is zero-dimensional
    ring = J.ring
    for name in ring.vars:
        # the reduced basis of J meet Q[name]: empty or one polynomial
        for p in eliminate(J, [v for v in ring.vars if v != name]).groebner():
            p = map_poly(p, ring)
            branches = _branch_on_element(J, p)
            if branches:
                return branches
            if p.total_degree() == n and is_irreducible(p):
                return True
    return False

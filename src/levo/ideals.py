"""Ideal arithmetic over exact rationals.

Reduced Groebner bases via Buchberger's algorithm (normal selection plus
the product and chain criteria), full normal forms, block-order
elimination, intersection, saturation, Krull dimension from the staircase,
quotient vector-space dimension, radical membership, and decomposition
into rational components by recursive factorization.

Ideals are identified by the unique reduced grevlex basis, so equal
ideals hash alike and can key cycle component maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

import sympy

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
# low-level reduction on plain term dicts (faster than Polynomial inside loops)


def _reduce_terms(terms, basis, key):
    """Full normal form of a term dict against basis entries (lm, lc, terms)."""
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for blm, blc, bterms in basis:
            if monomial_divides(blm, m):
                q = monomial_div(m, blm)
                factor = c / blc
                for bm, bc in bterms.items():
                    if bm == blm:
                        continue
                    mm = monomial_mul(bm, q)
                    s = work.get(mm, _ZERO) - factor * bc
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
    lm = max(terms, key=key)
    return (lm, terms[lm], terms)


def _spoly(e1, e2, key):
    lm1, lc1, t1 = e1
    lm2, lc2, t2 = e2
    lcm = monomial_lcm(lm1, lm2)
    q1, q2 = monomial_div(lcm, lm1), monomial_div(lcm, lm2)
    res = {}
    for m, c in t1.items():
        res[monomial_mul(m, q1)] = c / lc1
    for m, c in t2.items():
        mm = monomial_mul(m, q2)
        s = res.get(mm, _ZERO) - c / lc2
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
    selection and the two classical criteria (product, chain).
    """
    gens = [dict(g) for g in generators if g]
    # deterministic startup order
    gens.sort(key=lambda t: sorted(t, key=key, reverse=True))

    basis = []
    for g in gens:
        g = _reduce_terms(g, basis, key)
        if g:
            basis.append(_entry(g, key))

    pairs = set()
    for i in range(len(basis)):
        for j in range(i):
            pairs.add((j, i))

    def product_criterion(i, j):
        lmi, lmj = basis[i][0], basis[j][0]
        return monomial_lcm(lmi, lmj) == monomial_mul(lmi, lmj)

    def chain_criterion(i, j):
        lcm = monomial_lcm(basis[i][0], basis[j][0])
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

    while pairs:
        # normal selection: smallest lcm under the order
        i, j = min(
            pairs, key=lambda ij: (key(monomial_lcm(basis[ij[0]][0], basis[ij[1]][0])), ij)
        )
        pairs.discard((i, j))
        # S-polynomials of two monomials vanish identically
        if _is_monomial(basis[i][2]) and _is_monomial(basis[j][2]):
            continue
        if product_criterion(i, j):
            continue
        if chain_criterion(i, j):
            continue
        s = _reduce_terms(_spoly(basis[i], basis[j], key), basis, key)
        if not s:
            continue
        basis.append(_entry(s, key))
        new = len(basis) - 1
        for k in range(new):
            pairs.add((k, new))

    return _reduce_basis(basis, key)


def _reduce_basis(basis, key):
    # minimal: drop entries whose lm is divisible by another lm
    kept = []
    lms = [e[0] for e in basis]
    for i, e in enumerate(basis):
        if any(
            j != i
            and monomial_divides(lms[j], lms[i])
            and (lms[j] != lms[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        kept.append(e)
    # inter-reduce tails and normalize to monic
    reduced = []
    for idx, e in enumerate(kept):
        others = [kept[j] for j in range(len(kept)) if j != idx]
        t = _reduce_terms(e[2], others, key)
        if t:
            lm = max(t, key=key)
            lc = t[lm]
            reduced.append({m: c / lc for m, c in t.items()})
    reduced.sort(key=lambda t: key(max(t, key=key)))
    return reduced


# ---------------------------------------------------------------------------
# Ideal


class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("ring", "gens", "_gb", "_key", "_dim")

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
        self._key = None
        self._dim = None

    # -- Groebner ------------------------------------------------------------

    def groebner(self):
        """The reduced Groebner basis under the ring's order."""
        if self._gb is None:
            dicts = buchberger([g.terms for g in self.gens], self.ring.key())
            self._gb = tuple(
                Polynomial(self.ring, t, _clean=False) for t in dicts
            )
        return self._gb

    def normal_form(self, p):
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the ideal's ring")
        key = self.ring.key()
        basis = [_entry(g.terms, key) for g in self.groebner()]
        return Polynomial(self.ring, _reduce_terms(p.terms, basis, key), _clean=False)

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


def _lead_supports(ideal):
    gb = ideal.groebner()
    key = ideal.ring.key()
    supports = []
    for g in gb:
        lm, _ = g.lead(key)
        supports.append(frozenset(i for i, e in enumerate(lm) if e))
    return supports


def krull_dimension(ideal):
    gb = ideal.groebner()
    if not gb:
        return ideal.ring.nvars
    if ideal.is_unit():
        return -1
    supports = _lead_supports(ideal)
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


def quotient_dimension(ideal):
    """dim_Q of ring/ideal as a vector space; None if not finite."""
    gb = ideal.groebner()
    if ideal.is_unit():
        return 0
    if krull_dimension(ideal) > 0:
        return None
    key = ideal.ring.key()
    lms = [g.lead(key)[0] for g in gb]
    n = ideal.ring.nvars
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


def _map_poly(p, target, positions):
    """Reinterpret p in `target`, variable i of p going to positions[i]."""
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
    kept = [v for v in ring.vars if v not in drop]
    work = PolyRing(tuple(dropped + kept))
    positions = [work.index(v) for v in ring.vars]
    gens = [_map_poly(g, work, positions) for g in ideal.gens]
    dicts = buchberger([g.terms for g in gens], block_key(len(dropped)))
    ndrop = len(dropped)
    out = []
    kept_positions = {}
    for i, v in enumerate(work.vars):
        kept_positions[i] = target.index(v) if v in set(kept) else None
    for t in dicts:
        if all(all(e == 0 for e in m[:ndrop]) for m in t):
            p = Polynomial(work, t, _clean=False)
            out.append(_map_poly(p, target, [kept_positions[i] for i in range(work.nvars)]))
    return Ideal(target, out)


def _with_tag_var(ring):
    """The ring with one fresh tag variable in front, its name, and the
    positions of the old variables in it."""
    (name,) = _fresh_names(set(ring.vars), "_t", 1)
    ext = PolyRing((name,) + ring.vars)
    return ext, name, [ext.index(v) for v in ring.vars]


def _rabinowitsch(I, g):
    """I + (1 - t*g) in the ring extended by a tag variable t, and t.

    Its contraction to the original ring is the saturation I : g^infinity,
    and it is the unit ideal exactly when g lies in rad(I) (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 4 sec. 4, Thm. 14).
    """
    ext, t, positions = _with_tag_var(I.ring)
    gens = [_map_poly(h, ext, positions) for h in I.gens]
    gens.append(ext.one() - ext.var(t) * _map_poly(g, ext, positions))
    return Ideal(ext, gens), t


def map_poly(p, target):
    """Reinterpret a polynomial in another ring containing its variables."""
    positions = []
    for v in p.ring.vars:
        positions.append(target._index.get(v))
    return _map_poly(p, target, positions)


def map_ideal(I, target):
    """Reinterpret an ideal in another ring containing its variables."""
    return Ideal(target, [map_poly(g, target) for g in I.gens])


def intersect(I, J):
    """Ideal intersection via the single-tag trick."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals in different rings")
    ext, t, positions = _with_tag_var(I.ring)
    tv = ext.var(t)
    gens = [tv * _map_poly(g, ext, positions) for g in I.gens]
    gens += [(ext.one() - tv) * _map_poly(g, ext, positions) for g in J.gens]
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
    """I : J^infinity, the intersection of the saturations by the
    non-constant generators of J."""
    sats = [saturate(I, g) for g in J.gens if not g.is_constant()]
    return reduce(intersect, sats) if sats else I


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
# factorization bridge (sympy does the actual factoring over Q)


@lru_cache(maxsize=None)
def _symbols(names):
    return tuple(sympy.Symbol(n) for n in names)


def _to_sympy(p):
    syms = _symbols(p.ring.vars)
    coeffs = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(coeffs, *syms, domain="QQ")


def _from_sympy(spoly, ring):
    terms = {}
    for m, c in spoly.terms():
        r = sympy.Rational(c)
        terms[tuple(int(e) for e in m)] = Fraction(int(r.p), int(r.q))
    return Polynomial(ring, terms)


def factor_rational(p):
    """Irreducible factors over Q as [(factor, multiplicity)], content dropped.

    Factors are monic under the ring order and canonically sorted.
    """
    if p.is_zero() or p.is_constant():
        return []
    _, factors = _to_sympy(p).factor_list()
    out = []
    for f, e in factors:
        q = _from_sympy(f, p.ring)
        if q.is_constant():
            continue
        out.append((q.monic(), int(e)))
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


def _eliminant_elements(J):
    """Nonzero univariate eliminants of J, mapped back into J's ring."""
    ring = J.ring
    out = []
    for name in ring.vars:
        others = [v for v in ring.vars if v != name]
        E = eliminate(J, others)
        gb = E.groebner()
        if gb:
            out.append(map_poly(gb[0], ring))
    return out


def split_components(I):
    """Minimal rational components of V(I) by recursive factorization
    with saturation between branches.

    Basis elements are factored first; if none splits, the univariate
    eliminants are factored (they also lie in the ideal), which resolves
    zero-dimensional loci whose basis elements are individually
    irreducible.  Output ideals are pairwise incomparable and carry
    certification per the known-prime classes: linear ideals, linear
    ideals plus one irreducible polynomial in the leftover variables, and
    zero-dimensional ideals with irreducible eliminants in every variable.
    """
    if I.is_unit():
        raise ValueError("the unit ideal has no components")
    found = {}
    work = [I]
    while work:
        J = work.pop()
        gb = J.groebner()
        if J.is_unit():
            continue
        branches = None
        for g in gb:
            branches = _branch_on_element(J, g)
            if branches:
                break
        if branches is None:
            for g in _eliminant_elements(J):
                branches = _branch_on_element(J, g)
                if branches:
                    break
        if branches:
            work.extend(branches)
        else:
            found.setdefault(J.key(), J)

    return [Component(J, _certify_prime(J)) for J in maximal_loci(found.values())]


def _certify_prime(J):
    gb = J.groebner()
    if not gb:
        return True  # the zero ideal of an integral ring
    nonlinear = [g for g in gb if g.total_degree() > 1]
    if not nonlinear:
        return True  # linear ideals are prime
    if len(nonlinear) == 1 and is_irreducible(nonlinear[0]):
        # reduced basis: the nonlinear element avoids the linear leading
        # variables, so it is irreducible in the residue polynomial ring
        return True
    if J.dimension() == 0:
        return _certify_zero_dimensional(J)
    return False


def _certify_zero_dimensional(J):
    ring = J.ring
    for name in ring.vars:
        others = [v for v in ring.vars if v != name]
        E = eliminate(J, others)
        gb = E.groebner()
        if len(gb) != 1:
            return False
        if not is_irreducible(gb[0]):
            return False
    return True


def decomposition_covers(I, components):
    """Radical-level check that the components cover V(I) exactly.

    Each component must contain I (so its locus sits inside V(I)), and
    every element of the intersection of the components must lie in
    rad(I) (so the union of the loci is no smaller than V(I)).  Used by
    tests; the splitting construction guarantees both directions.
    """
    for comp in components:
        if not comp.ideal.contains_ideal(I):
            return False
    meet = components[0].ideal
    for comp in components[1:]:
        meet = intersect(meet, comp.ideal)
    return all(radical_member(g, I) for g in meet.gens)

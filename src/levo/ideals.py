"""Ideal arithmetic over exact rationals.

Reduced Groebner bases via Buchberger's algorithm (heap-ordered normal
selection; pairs of two monomials or of coprime leading monomials are
settled when they are made, the chain criterion runs at pop), full
normal forms, block-order elimination, intersection, saturation, Krull
dimension, degree and quotient vector-space dimension from the
staircase, radical membership, and decomposition into rational
components by recursive factorization.  `factor_rational` factors
over Q with the native factorizer over Z of `levo.zfactor`; levo has no
third-party runtime dependency.

The kernel knows two monomial orders: grevlex, under which every `Ideal`
is computed, and the block orders of `poly.block_key`, named by their
lead variables' positions.  `eliminate` runs one on the ideal's own
generators, and the block basis elements free of the lead block are
given to the result as its reduced grevlex basis.  Ideals are identified
by the unique reduced grevlex basis, so equal ideals hash alike and can
key cycle component maps.
Linear generators skip that machinery: their reduced basis is one row
reduction (`echelon`), and a linear ideal, prime or the unit ideal, has
its components, dimension and radical read off it.
Inside the kernel a monomial is one int that packs its exponents for the
order in use (`_Packing`): int comparison is the order, a product is an
add and a divisibility test one subtract and one mask test.  The kernel
is fraction-free (Becker and Weispfenning, Groebner Bases, ch. 5): a
basis entry is a pair (packed leading monomial, packed term dict) of
ints with content 1 and a positive leading coefficient, and reductions
cross-multiply by leading coefficients.  Buchberger's output is reduced
in one sweep in ascending leading-monomial order.  `buchberger` takes
and returns tuple-keyed term dicts.  An `Ideal` clears its generators of
denominators when it is built, is identified by its primitive reduced
basis, packs it only when it first reduces against it, and makes the
monic form only for output and the canonical order (`sort_key`).
Membership tests the packed remainder for zero; only `normal_form`
divides the remainder back by its scale and decodes it.
A packed field is 16 bits at first, 15 for a value up to 32767 and a
guard bit.  A monomial that does not fit, an input whose total degree
exceeds that or a product that sets a guard bit, makes the call run
again with fields twice as wide, so it never gives a wrong answer.

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
import struct
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import itemgetter, mul

from .errors import InternalError, RingMismatchError
from .poly import Polynomial, block_key, grevlex_key, rational, shared_ring, terms_to_str

# ---------------------------------------------------------------------------
# per-run algebra cache

_CACHE = contextvars.ContextVar("levo_algebra_cache", default=None)

_CACHE_KINDS = ("buchberger", "split_components", "factor_rational")


class AlgebraCache:
    """Results by (kind, canonical input), with hits and misses per kind,
    the S-pairs that Buchberger misses reduced, with how many of them
    reduced to zero, and the largest coefficient size of their bases."""

    __slots__ = ("entries", "hits", "misses", "spairs", "zero_reductions", "coeff_bits")

    def __init__(self):
        self.entries = {}
        self.hits = Counter()
        self.misses = Counter()
        self.spairs = 0
        self.zero_reductions = 0
        self.coeff_bits = 0

    def summary(self):
        """One line of the hits, misses, coefficient size and S-pairs."""
        return "algebra cache: %s; coefficients up to %d bits; S-pairs %d reduced, %d to zero" % (
            ", ".join(
                "%s %d hits %d misses" % (kind, self.hits[kind], self.misses[kind])
                for kind in _CACHE_KINDS
            ),
            self.coeff_bits,
            self.spairs,
            self.zero_reductions,
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
# packed monomials


_WIDTH = 16  # the first field width tried: 15 value bits and a guard bit


class _Overflow(Exception):
    """A monomial does not fit the fields of the packing in use."""


class _Packing:
    """Monomials in n variables as ints, for an order made of graded
    reverse lexicographic blocks, each a tuple of variable positions (one
    block for grevlex, the lead block and the rest for a block order).

    The fields, most significant first: for each block its total degree,
    then, if the block has two or more variables, cap - e_j for its
    variables in reverse order.  The top bit of each field is a guard bit
    and every other bit holds a value up to cap.  So the int of a
    monomial is `one` plus its exponents times per-variable weights,
    and ints compare as the order compares monomials.  With every field
    of a and b in range, the fields of a + b - one (the product) lie in
    [-cap, 2*cap], and so do those of b - a + one (the quotient b/a, a
    value in range exactly when a divides b).  A field in that interval
    is out of range exactly when some guard bit of the int is set, so
    one mask test detects an overflowing product or a failed division.
    `columns` numbers the monomials of degree at most 1 in descending order.
    """

    __slots__ = ("width", "cap", "one", "guard", "weights", "decode", "columns")

    def __init__(self, blocks, width):
        n = sum(map(len, blocks))
        fields = []  # most significant first: (variables summed, complemented)
        for block in blocks:
            fields.append((block, False))
            if len(block) > 1:
                fields.extend(((j,), True) for j in reversed(block))
        count = len(fields)
        self.width = width
        self.cap = cap = (1 << (width - 1)) - 1
        self.one = self.guard = 0
        self.weights = [0] * n
        index = [0] * n  # of the field that holds e_j, least significant first
        for pos, (variables, complemented) in enumerate(fields):
            shift = (count - 1 - pos) * width
            self.guard |= 1 << (shift + width - 1)
            if complemented:
                self.one |= cap << shift
            for j in variables:
                self.weights[j] += -(1 << shift) if complemented else 1 << shift
                if complemented or len(variables) == 1:
                    index[j] = count - 1 - pos
        nbytes = count * width // 8
        if width <= 64:
            unpack = struct.Struct("<%d%s" % (count, {16: "H", 32: "I", 64: "Q"}[width])).unpack
        else:
            size = width // 8

            def unpack(b):
                return [int.from_bytes(b[i:i + size], "little") for i in range(0, nbytes, size)]

        pick = itemgetter(*index) if n > 1 else lambda fields: tuple(fields[i] for i in index)
        one = self.one

        def decode(m):
            # m ^ one turns each complemented field cap - e into e
            return pick(unpack((m ^ one).to_bytes(nbytes, "little")))

        self.decode = decode
        units = [tuple(int(i == j) for i in range(n)) for block in blocks for j in block]
        self.columns = {m: c for c, m in enumerate(units + [(0,) * n])}

    def encode(self, exps):
        if sum(exps) > self.cap:
            raise _Overflow
        return self.one + sum(map(mul, exps, self.weights))

    def encode_terms(self, terms):
        return {self.encode(m): c for m, c in terms.items()}

    def decode_terms(self, terms):
        return {self.decode(m): c for m, c in terms.items()}


@lru_cache(maxsize=None)
def _packing(key, n, width):
    """The packing of monomials in n variables under the order `key`
    (grevlex_key, whose lead block is empty, or a block_key) with fields
    of `width` bits."""
    lead = () if key is grevlex_key else getattr(key, "lead", None)
    if lead is None:
        raise ValueError("no packing for the monomial order %r" % (key,))
    rest = tuple(j for j in range(n) if j not in lead)
    return _Packing([b for b in (lead, rest) if b], width)


def _in_fields(key, n, run, width=_WIDTH):
    """run(packing) for the narrowest packing, from `width` up, whose
    fields hold every monomial the run meets."""
    while True:
        try:
            return run(_packing(key, n, width))
        except _Overflow:
            width *= 2


# ---------------------------------------------------------------------------
# low-level reduction on packed term dicts


def _reduce_terms(terms, basis, P):
    """(remainder, scale): the full normal form of a packed term dict of
    ints against primitive packed entries (lm, terms), times the positive
    int scale.  The remainder lists its terms in descending order."""
    one, guard = P.one, P.guard
    work = dict(terms)
    remainder = {}
    scale = 1
    while work:
        m = max(work)
        c = work.pop(m)
        mo = m + one
        for blm, bterms in basis:
            q = mo - blm  # m / blm, in range when blm divides m
            if q & guard:
                continue
            q -= one
            b = bterms[blm]
            if b != 1:  # (b/g)*work - (c/g)*(m/blm)*entry, g = gcd(b, c), cancels c*m
                g = gcd(b, c)
                f, c = b // g, c // g
                if f != 1:
                    scale *= f
                    work = {k: f * v for k, v in work.items()}
                    remainder = {k: f * v for k, v in remainder.items()}
            for bm, bc in bterms.items():
                if bm == blm:
                    continue
                mm = bm + q
                if mm & guard:
                    raise _Overflow
                s = work.get(mm, 0) - c * bc
                if s:
                    work[mm] = s
                else:
                    work.pop(mm, None)
            break
        else:
            remainder[m] = c
    return remainder, scale


def _entry(terms):
    """The primitive basis entry (lm, terms) of a nonzero packed term dict
    of ints."""
    lm = max(terms)
    lc = terms[lm]
    if lc != 1:
        g = gcd(*terms.values()) if lc > 0 else -gcd(*terms.values())
        if g != 1:
            terms = dict(zip(terms, map(g.__rfloordiv__, terms.values())))
    return lm, terms


def _spoly(e1, e2, lcm, guard):
    lm1, t1 = e1
    lm2, t2 = e2
    q1, q2 = lcm - lm1, lcm - lm2  # m * (lcm / lm) is m + lcm - lm
    a, b = t1[lm1], t2[lm2]
    g = gcd(a, b)
    a, b = a // g, b // g
    res = {}
    for m, c in t1.items():
        m += q1
        if m & guard:
            raise _Overflow
        res[m] = c * b
    for m, c in t2.items():
        m += q2
        if m & guard:
            raise _Overflow
        s = res.get(m, 0) - c * a
        if s:
            res[m] = s
        else:
            res.pop(m, None)
    return res


def _cleared(terms):
    """(terms * den, den), den the least common denominator.  Callers skip
    it when the coefficient sum is an int: a Fraction would make it one."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def echelon(rows):
    """The reduced echelon form of sparse int rows {column: nonzero int}:
    the nonzero rows, each primitive with a positive pivot (its least
    column), by ascending pivot.  Fraction-free Gauss-Jordan, in place:
    each row, sparsest first, is made primitive and cleared from the rest."""
    rows = sorted(rows, key=len)
    for i, row in enumerate(rows):
        if not row:
            continue
        c = min(row)
        g = gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
        if g != 1:
            rows[i] = row = {k: v // g for k, v in row.items()}
        h = row[c]
        for j, q in enumerate(rows):
            if j != i and c in q:  # q = h*q - q[c]*row
                f = q[c]
                if h != 1:
                    q = {k: h * v for k, v in q.items()}
                for k, v in row.items():
                    v = q.get(k, 0) - f * v
                    if v:
                        q[k] = v
                    else:
                        del q[k]
                g = gcd(*q.values())  # 0 for a zero row; positive pivots stay
                rows[j] = {k: v // g for k, v in q.items()} if g > 1 else q
    return sorted(filter(None, rows), key=min)


def _linear_basis(generators, key):
    """The reduced basis of generators of degree at most 1 as `buchberger`
    lists it, by one `echelon`; None for a generator of higher degree.
    Buchberger would do no more: the leading monomials are distinct
    variables or 1, so every pair is coprime and settled when made."""
    columns = _packing(key, len(next(iter(generators[0]))), _WIDTH).columns
    try:
        rows = echelon([{columns[m]: c for m, c in g.items()} for g in generators])
    except KeyError:
        return None
    if min(rows[-1]) == len(columns) - 1:  # a pivot on 1: the unit ideal
        rows = rows[-1:]
    monomials = tuple(columns)
    return [{monomials[j]: row[j] for j in sorted(row)} for row in reversed(rows)]


def buchberger(generators, key):
    """Reduced Groebner basis of the given term dicts of ints: `Ideal`
    clears its generators of denominators when it is built.

    Returns a list of term dicts of ints, each primitive (content 1,
    positive leading coefficient), fully inter-reduced, sorted by
    ascending leading monomial; each dict lists its terms in strictly
    descending order under `key`, so its first term is its leading one.
    `Ideal` relies on this order.  Linear input is row-reduced
    (`_linear_basis`), other input runs the classical algorithm with
    normal selection from a heap of pairs, on monomials packed for `key`:
    grevlex_key or a block_key.  A pair of two monomials or of
    coprime leading monomials (the product criterion) is settled when it
    is made and never enters the heap; the chain criterion runs at pop.
    """
    gens = [g for g in generators if g]
    return _memo(
        "buchberger",
        (key, frozenset(frozenset(g.items()) for g in gens)),
        lambda: _buchberger(gens, key),
        lambda basis: [dict(t) for t in basis],
    )


def _buchberger(generators, key):
    if not generators:
        return []

    def run(P):
        basis = _packed_buchberger([P.encode_terms(g) for g in generators], P)
        return [P.decode_terms(t) for t in basis]

    basis = _linear_basis(generators, key)
    if basis is None:
        basis = _in_fields(key, len(next(iter(generators[0]))), run)
    cache = _CACHE.get()
    if cache is not None:
        top = max(map(abs, itertools.chain.from_iterable(map(dict.values, basis))))
        cache.coeff_bits = max(cache.coeff_bits, top.bit_length())
    return basis


def _packed_buchberger(generators, P):
    one, guard = P.one, P.guard
    # deterministic startup order: by the terms, taken in descending order
    gens = sorted(generators, key=lambda t: sorted(t, reverse=True))

    basis, exps, supp, mono = [], [], [], []
    bits = [1 << v for v in range(len(P.weights))]

    def note(entry):  # append a basis entry, its exponents, support mask and monomial flag
        basis.append(entry)
        exps.append(P.decode(entry[0]))
        supp.append(sum(itertools.compress(bits, exps[-1])))
        mono.append(len(entry[1]) == 1)

    for g in gens:
        g = _reduce_terms(g, basis, P)[0]
        if g:
            note(_entry(g))

    # Every pending pair is in `pairs` (for the chain criterion) and has
    # one heap entry; popping the heap is normal selection, the smallest
    # lcm under the order with ties broken by the pair.  A pair of two
    # monomials (S-polynomial 0) or of coprime leading monomials (by
    # Buchberger's first criterion, a standard representation by the pair
    # itself) is settled when made and never pending: the chain criterion
    # may count it as treated (Becker and Weispfenning, Groebner Bases, ch. 5).
    pairs = set()
    heap = []

    def add_pair(i, j):
        if mono[i] and mono[j] or not supp[i] & supp[j]:
            return
        pairs.add((i, j))
        heapq.heappush(heap, (P.encode(tuple(map(max, exps[i], exps[j]))), i, j))

    for i in range(len(basis)):
        for j in range(i):
            add_pair(j, i)

    def chain_criterion(i, j, lcm):
        lcmo = lcm + one
        for k in range(len(basis)):
            if k == i or k == j or (lcmo - basis[k][0]) & guard:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                return True
        return False

    reduced = zero = 0
    while heap:
        lcm, i, j = heapq.heappop(heap)
        pairs.discard((i, j))
        if chain_criterion(i, j, lcm):
            continue
        s = _reduce_terms(_spoly(basis[i], basis[j], lcm, guard), basis, P)[0]
        reduced += 1
        if not s:
            zero += 1
            continue
        note(_entry(s))
        new = len(basis) - 1
        for k in range(new):
            add_pair(k, new)

    out = _reduce_basis(basis, P)
    cache = _CACHE.get()
    if cache is not None:
        cache.spairs += reduced
        cache.zero_reductions += zero
    return out


def _reduce_basis(basis, P):
    """The reduced basis of the ideal a Groebner basis of primitive packed
    entries generates, as primitive packed term dicts in ascending
    leading-monomial order.

    In that order an entry whose lm a kept lm divides is redundant, and
    every other entry is reduced against the kept ones alone: its terms
    lie below its lm, and a monomial divisible by lm(g) is never smaller
    than lm(g), so no later entry can divide them.
    """
    one, guard = P.one, P.guard
    kept = []
    for lm, terms in sorted(basis, key=lambda e: e[0]):
        lmo = lm + one
        if all((lmo - k) & guard for k, _ in kept):
            kept.append(_entry(_reduce_terms(terms, kept, P)[0]))
    return [terms for _, terms in kept]


# ---------------------------------------------------------------------------
# Ideal


class Ideal:
    """A finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("ring", "gens", "_gb", "_packed", "_key", "_hash", "_order", "_text", "_dim")

    def __init__(self, ring, gens):
        self.ring = ring
        clean = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("generator not in the ideal's ring")
            if g.terms:
                if type(sum(g.terms.values())) is not int:  # see _cleared
                    g = Polynomial(ring, _cleared(g.terms)[0], _clean=False)
                clean.append(g)
        self.gens = tuple(clean)
        self._gb = None
        self._packed = None
        self._key = None
        self._hash = None
        self._order = None
        self._text = None
        self._dim = None

    # -- Groebner ------------------------------------------------------------

    def _basis(self):
        """The reduced grevlex basis as `buchberger` returns it: primitive
        term dicts in ascending leading-monomial order, each listing its
        terms in descending order.  The ideal keeps it as it is."""
        if self._gb is None:
            self._gb = buchberger([g.terms for g in self.gens], grevlex_key)
        return self._gb

    def groebner(self):
        """The reduced grevlex Groebner basis, monic, in ascending
        leading-monomial order."""
        return tuple(Polynomial(self.ring, dict(t), _clean=False) for t in self.sort_key()[1])

    def leading_monomials(self):
        """The leading monomials of the reduced basis, in its order."""
        return [next(iter(t)) for t in self._basis()]

    def _remainder(self, p):
        """(Q, remainder, d): the normal form of p times the positive int d,
        as a term dict packed by Q.  The basis is packed at the first call,
        in the narrowest fields that hold it, and kept; a reduction that
        needs wider fields packs it again for them."""
        if p.ring is not self.ring and p.ring != self.ring:
            raise RingMismatchError("polynomial not in the ideal's ring")
        basis = self._basis()

        def pack(Q):
            return [(next(iter(t)), t) for t in map(Q.encode_terms, basis)]

        if self._packed is None:
            self._packed = _in_fields(grevlex_key, self.ring.nvars, lambda Q: (Q, pack(Q)))
        P, entries = self._packed
        terms, den = (p.terms, 1) if type(sum(p.terms.values())) is int else _cleared(p.terms)

        def run(Q):
            packed = entries if Q is P else pack(Q)
            remainder, scale = _reduce_terms(Q.encode_terms(terms), packed, Q)
            return Q, remainder, den * scale

        return _in_fields(grevlex_key, self.ring.nvars, run, P.width)

    def normal_form(self, p):
        """The full normal form of p: the packed remainder, divided back
        and decoded."""
        Q, remainder, d = self._remainder(p)
        if d != 1:
            remainder = {m: rational(c, d) for m, c in remainder.items()}
        return Polynomial(self.ring, Q.decode_terms(remainder), _clean=False)

    def contains(self, p):
        """Ideal membership: a zero packed remainder."""
        return not self._remainder(p)[1]

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def is_zero(self):
        return not self._basis()

    def is_unit(self):
        basis = self._basis()
        return len(basis) == 1 and not any(next(iter(basis[0])))

    def is_linear(self):
        """Whether the reduced basis has degree at most 1 (a prime or the
        unit ideal); generators of degree at most 1 answer without it."""
        if self._gb is None and all(sum(m) <= 1 for g in self.gens for m in g.terms):
            return True
        return all(sum(next(iter(t))) <= 1 for t in self._basis())

    # -- identity --------------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = (self.ring._key(), tuple(tuple(t.items()) for t in self._basis()))
        return self._key

    def sort_key(self):
        """The ring and the monic reduced basis as (monomial, coefficient)
        pairs, the canonical order; the monic form is made only here."""
        if self._order is None:
            ring, basis = self.key()  # each entry's first pair is its leading term
            self._order = ring, tuple(
                t if t[0][1] == 1 else tuple((m, rational(c, t[0][1])) for m, c in t)
                for t in basis)
        return self._order

    def __eq__(self, other):
        return self is other or isinstance(other, Ideal) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(self.generator_strings())

    def generator_strings(self):
        """The text of each monic reduced basis element, in the basis order,
        made once."""
        if self._text is None:
            self._text = tuple(terms_to_str(self.ring.vars, t) for t in self.sort_key()[1])
        return list(self._text)

    # -- numerical invariants ----------------------------------------------------

    def dimension(self):
        """Krull dimension of the vanishing locus; -1 for the unit ideal.
        A linear ideal's is the number of variables less its basis size."""
        if self._dim is None:
            self._dim = krull_dimension(self) if not self.is_linear() else (
                -1 if self.is_unit() else self.ring.nvars - len(self._basis()))
        return self._dim

    def vanishes_at(self, point):
        return all(g.eval_point(point) == 0 for g in self.gens)

    def plus(self, polys):
        return Ideal(self.ring, self.gens + tuple(polys))


# ---------------------------------------------------------------------------
# dimension and quotient dimension


def _free_sets(ideal):
    """The largest sets of variables that carry no leading monomial of
    the reduced basis, as bit masks; their common size is the Krull
    dimension.  Empty for the unit ideal, whose leading monomial 1 lies
    in every set.  Free sets are closed under taking subsets, so each free
    set of size k + 1 is one of size k plus a variable above its highest:
    each level is grown from the free sets of the last."""
    supports = [sum(1 << i for i, e in enumerate(lm) if e) for lm in ideal.leading_monomials()]
    n = ideal.ring.nvars
    found, level = [], [0]
    while True:
        # m carries a leading monomial when some support s lies in it,
        # that is when s & ~m is 0
        level = [m for m in level if all(map((~m).__and__, supports))]
        if not level:
            return found
        found = level
        level = [m | 1 << v for m in level for v in range(m.bit_length(), n)]


def krull_dimension(ideal):
    free = _free_sets(ideal)
    return free[0].bit_count() if free else -1


def degree(ideal):
    """Degree of V(ideal): (dim)! times the leading coefficient of the
    affine Hilbert polynomial of ring/ideal; 0 for the unit ideal.

    A graded order keeps the affine Hilbert function, so this is the
    degree of the ideal of leading monomials: the sum, over the largest
    sets S of variables that carry no leading monomial, of the number of
    standard monomials in the other variables once those in S are set
    to 1.
    """
    lms = ideal.leading_monomials()
    n = ideal.ring.nvars
    total = 0
    for mask in _free_sets(ideal):
        rest = [i for i in range(n) if not mask >> i & 1]
        total += _standard_count([tuple(lm[i] for i in rest) for lm in lms], len(rest))
    return total


def _standard_count(lms, n):
    """Number of monomials in n variables that no monomial of lms
    divides; finite here.  A monomial is an int with one field per
    variable: value bits for the largest exponent in lms (no walked
    exponent exceeds it) and a guard bit on top, so lm divides m exactly
    when (m | guard) - lm keeps every guard bit."""
    width = max((e for lm in lms for e in lm), default=0).bit_length() + 1
    units = [1 << (width * i) for i in range(n)]
    guard = sum(units) << (width - 1)
    packed = [sum(map(mul, lm, units)) for lm in lms]
    seen = {0}
    stack = [0]
    count = 0
    while stack:
        m = stack.pop()
        count += 1
        for unit in units:
            mm = m + unit
            if mm in seen:
                continue
            g = mm | guard
            if any((g - a) & guard == guard for a in packed):
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
    n = p.ring.nvars
    # a target variable missing from the source reads the appended 0
    index = list(map(p.ring._index.get, target.vars, itertools.repeat(n)))
    dropped = set(range(n)).difference(index)
    if dropped and any(m[i] for m in p.terms for i in dropped):
        raise InternalError("cannot map monomial involving dropped var")
    pick = itemgetter(*index) if len(index) > 1 else lambda m: tuple(m[i] for i in index)
    return Polynomial(target, {pick(m + (0,)): c for m, c in p.terms.items()}, _clean=False)


def eliminate(ideal, drop_vars):
    """Intersect with the subring omitting `drop_vars` (a name iterable).

    The result lives in the canonical subring (cotangent block kept only
    if the base/cotangent pairing survives intact), whose variables keep
    their order in the ideal's ring.
    """
    ring = ideal.ring
    drop = set(drop_vars)
    for name in drop:
        ring.index(name)
    if not drop:
        return ideal
    base = tuple(v for v in ring.base_vars if v not in drop)
    cot = tuple(v for v in ring.cotangent_vars if v not in drop)
    if cot and len(cot) != len(base):  # pairing broken: flatten into base variables
        base, cot = base + cot, ()
    return _eliminate_to(ideal, shared_ring(base, cot))


def _eliminate_to(ideal, target):
    """The ideal meet the subring `target`, whose variables keep their
    order in the ideal's ring.  The kernel runs on the generators as they
    are, with the other variables as the lead block.  By the Elimination
    Theorem (Cox, Little and O'Shea, ch. 3 sec. 1) the basis elements free
    of that block, those whose leading monomial is, are the reduced basis
    of the result under the target's grevlex."""
    ring = ideal.ring
    keep = [ring.index(v) for v in target.vars]
    if keep != sorted(keep):
        raise InternalError("elimination target reorders the kept variables")
    lead = tuple(j for j in range(ring.nvars) if j not in keep)
    out = Ideal(target, [
        map_poly(Polynomial(ring, t, _clean=False), target)
        for t in buchberger([g.terms for g in ideal.gens], block_key(lead))
        if not any(next(iter(t))[j] for j in lead)
    ])
    out._gb = [g.terms for g in out.gens]
    return out


def _with_tag_var(ring):
    """The ring with one fresh tag variable in front, and its name."""
    (name,) = _fresh_names(set(ring.vars), "_t", 1)
    return shared_ring((name,) + ring.vars, ()), name


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
    return _eliminate_to(Ideal(ext, gens), I.ring)


def saturate(I, g):
    """I : g^infinity, by eliminating t from I + (1 - t*g)."""
    if isinstance(g, str):
        g = I.ring.parse(g)
    if g.is_zero():
        raise ValueError("saturation by the zero polynomial")
    if g.is_constant():
        return I
    K, t = _rabinowitsch(I, g)
    return _eliminate_to(K, I.ring)


def saturate_ideal(I, J):
    """I : J^infinity for a nonzero J: the intersection of the
    saturations by the generators of J, and I itself when some generator
    is a nonzero constant, since J is then the unit ideal."""
    if any(g.is_constant() for g in J.gens):
        return I
    return reduce(intersect, [saturate(I, g) for g in J.gens])


def rational_point_of(I):
    """Coordinates of the unique rational point of a linear point ideal,
    or None when the locus is not such a point.  Its monic reduced basis
    is then x_i - c_i for each variable, the last variable first."""
    if I.is_linear() and I.dimension() == 0:
        origin = (0,) * I.ring.nvars
        return tuple(-g.terms.get(origin, 0) for g in reversed(I.groebner()))
    return None


def radical_member(g, I):
    """Rabinowitsch test: g in rad(I)?  Membership when I is linear, as
    its generators or a basis already made show (so prime or the unit)."""
    if isinstance(g, str):
        g = I.ring.parse(g)
    if g.is_zero():
        return True
    if I._gb is None and any(h.total_degree() > 1 for h in I.gens) or not I.is_linear():
        return _rabinowitsch(I, g)[0].is_unit()
    return I.contains(g)


# ---------------------------------------------------------------------------
# factorization over Q, by the native factorizer over Z of `levo.zfactor`;
# it is imported at the first nonlinear factorization, so a job that meets
# only linear polynomials never loads (or, without cached bytecode,
# compiles) it


def factor_rational(p):
    """Irreducible factors over Q as [(factor, multiplicity)], content dropped.

    Factors are monic under grevlex and canonically sorted.
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

    out = []
    for g, e in zfactor.factor(_cleared(p.terms)[0]):
        q = Polynomial(p.ring, {m: g[m] for m in sorted(g, reverse=True)}, _clean=False)
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
    unique = list(dict.fromkeys(ideals))
    return sorted(unique, key=Ideal.sort_key) if len(unique) > 1 else unique


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

    A linear ideal is its own certified component, with no scan.  Each
    other branch J is decided by one scan that stops at the first branch
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
    eliminant has degree 4.  Output ideals are pairwise incomparable, and
    no uncertified component lies in the union of the others: one whose
    saturation by the others in turn becomes the unit ideal is dropped,
    tested against the components still kept so that two uncertified
    ones never drop each other.  A certified component needs no test: a
    prime covered by a union of ideals contains one of them, which
    incomparability excludes.
    """
    if I.is_unit():
        raise ValueError("the unit ideal has no components")
    return _memo(
        "split_components",
        I.key(),
        (lambda: [Component(I, True)]) if I.is_linear() else (lambda: _split(I)),
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
    kept = [found[J.key()] for J in maximal_loci(c.ideal for c in found.values())]
    for comp in [c for c in kept if not c.certified]:
        rest = comp.ideal
        for other in kept:
            if other is not comp:
                rest = saturate_ideal(rest, other.ideal)
                if rest.is_unit():
                    kept.remove(comp)
                    break
    return kept


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

"""Exact multivariate polynomials over the rationals.

A polynomial is a sparse map from exponent vectors to nonzero
coefficients, attached to a ring that fixes the variable list.  Rings
distinguish base variables from their cotangent duals so that geometric
operations know which block is which.  Values are immutable after
construction, so they hash and compare structurally and are safe to
share.

A coefficient, like a point coordinate, is an int when integral, else a
Fraction; never a float.  `rational` makes each one.  An int hashes,
compares and prints as the equal Fraction does, so the choice never
shows in a result, and integral data hashes and computes in C.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import PolynomialParseError, RingMismatchError


def rational(c, d=None):
    """The exact rational c, or c/d: an int when integral, else a Fraction.
    It divides exactly, where `c / d` of two ints would give a float."""
    if type(c) is int:
        if d is None:
            return c
        if type(d) is int:
            q, r = divmod(c, d)
            return Fraction(c, d) if r else q
    c = Fraction(c) if d is None else Fraction(c, d)
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# monomial orders
#
# A monomial is a tuple of non-negative integer exponents, one per ring
# variable.  Order functions return sort keys: bigger key = bigger monomial.
# levo orders every ring by grevlex and eliminates with a block order.


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


@lru_cache(maxsize=None)
def block_key(lead):
    """Elimination order: the variables at the positions in the tuple
    `lead` dominate the rest, each block graded reverse lexicographic
    (the lead block in the order listed, the rest in ring order).

    Any monomial involving a lead-block variable beats any monomial that
    does not, so basis elements free of the lead block form the reduced
    basis of the elimination ideal under grevlex on the other variables.
    One function per `lead`, so the order can key a cache; it carries
    `lead` as an attribute for `levo.ideals` to pack monomials by.
    """

    def key(exps):
        rest = [e for i, e in enumerate(exps) if i not in lead]
        return (grevlex_key([exps[i] for i in lead]), grevlex_key(rest))

    key.lead = lead
    return key


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class PolyRing:
    """An ordered list of variable names, split into base and cotangent."""

    __slots__ = ("base_vars", "cotangent_vars", "vars", "_index")

    def __init__(self, base_vars, cotangent_vars=()):
        base_vars = tuple(base_vars)
        cotangent_vars = tuple(cotangent_vars)
        if cotangent_vars and len(cotangent_vars) != len(base_vars):
            raise ValueError("cotangent block must be empty or pair with base")
        allvars = base_vars + cotangent_vars
        if len(set(allvars)) != len(allvars):
            raise ValueError("variable names must be unique")
        self.base_vars = base_vars
        self.cotangent_vars = cotangent_vars
        self.vars = allvars
        self._index = {name: i for i, name in enumerate(allvars)}

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.base_vars, self.cotangent_vars)

    def __eq__(self, other):
        return self is other or (isinstance(other, PolyRing) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.cotangent_vars:
            return "PolyRing(%s; %s)" % (
                ",".join(self.base_vars),
                ",".join(self.cotangent_vars),
            )
        return "PolyRing(%s)" % ",".join(self.base_vars)

    # -- basics --------------------------------------------------------------

    @property
    def nvars(self):
        return len(self.vars)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("no variable %r in %r" % (name, self)) from None

    def base_ring(self):
        """The ring on the base variables alone."""
        return shared_ring(self.base_vars, ())

    # -- element constructors ------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = rational(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        i = self.index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def parse(self, text):
        return _parse_polynomial(self, text)

    def linear_form(self, coeffs, constant=0):
        """Sum coeffs[i] * vars[i] + constant, coeffs over all variables."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = rational(c)
            if c:
                e = [0] * self.nvars
                e[i] = 1
                terms[tuple(e)] = c
        constant = rational(constant)
        if constant:
            terms[(0,) * self.nvars] = constant
        return Polynomial(self, terms)


# one ring per (base, cotangent) pair of variable tuples, shared by derived ideals
shared_ring = lru_cache(maxsize=None)(PolyRing)


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _clean=True):
        self.ring = ring
        if _clean:
            clean = {}
            for m, c in terms.items():
                c = rational(c)
                if c != 0:
                    clean[tuple(m)] = c
            terms = clean
        self.terms = terms

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                "operands in different rings: %r vs %r" % (self.ring, other.ring)
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Polynomial(self.ring, res, _clean=False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(
            self.ring, {m: -c for m, c in self.terms.items()}, _clean=False
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rational(other)
            if q == 0:
                return self.ring.zero()
            return Polynomial(
                self.ring, {m: c * q for m, c in self.terms.items()}, _clean=False
            )
        self._check(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = res.get(m, 0) + c1 * c2
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Polynomial(self.ring, res, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ---------------------------------------------------------------

    def diff(self, var):
        """Formal partial derivative with respect to a named variable."""
        i = self.ring.index(var)
        res = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                mm = list(m)
                mm[i] = e - 1
                res[tuple(mm)] = c * e
        return Polynomial(self.ring, res, _clean=False)

    def subs(self, mapping):
        """Substitute variables by polynomials or rational constants.

        `mapping` maps variable names; unmapped variables stay themselves.
        The polynomial values may live in a different ring (all in the
        same one); a constant becomes a constant of that ring.
        """
        given = {self.ring.index(name): val for name, val in mapping.items()}
        target = next((v.ring for v in given.values() if isinstance(v, Polynomial)), self.ring)
        values = [
            target.var(name) if i not in given
            else given[i] if isinstance(given[i], Polynomial)
            else target.const(given[i])
            for i, name in enumerate(self.ring.vars)
        ]
        powers = {}
        acc = target.zero()
        for m, c in self.terms.items():
            part = target.const(c)
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = values[i] ** e
                    part = part * powers[i, e]
            acc = acc + part
        return acc

    def eval_point(self, point):
        """Value at a rational point, one coordinate per ring variable."""
        if len(point) != self.ring.nvars:
            raise ValueError("point needs one coordinate per variable of %r" % (self.ring,))
        point = [rational(v) for v in point]
        total = 0
        for m, c in self.terms.items():
            for v, e in zip(point, m):
                if e:
                    c *= v**e
            total += c
        return total

    # -- leading data -------------------------------------------------------------

    def lead(self):
        """(monomial, coefficient) of the largest term under grevlex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def monic(self):
        if not self.terms:
            return self
        _, c = self.lead()
        if c == 1:
            return self
        return Polynomial(
            self.ring, {m: rational(v, c) for m, v in self.terms.items()}, _clean=False
        )

    # -- identity -----------------------------------------------------------------

    def canonical(self):
        """Terms sorted descending under grevlex; hashable."""
        return tuple(
            (m, self.terms[m]) for m in sorted(self.terms, key=grevlex_key, reverse=True)
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.canonical()))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return "Polynomial(%s)" % poly_to_str(self)


# ---------------------------------------------------------------------------
# printing


def poly_to_str(p):
    terms = p.terms
    return terms_to_str(
        p.ring.vars, [(m, terms[m]) for m in sorted(terms, key=grevlex_key, reverse=True)]
    )


def terms_to_str(names, terms):
    """The text of the (monomial, coefficient) pairs `terms`, written in
    the order given: descending grevlex is the order of `poly_to_str`.
    It reads each coefficient's numerator and denominator, so printing
    does no Fraction arithmetic."""
    out = ""
    for m, c in terms:
        num, den = c.numerator, c.denominator
        body = "*".join([names[i] if e == 1 else "%s^%d" % (names[i], e) for i, e in enumerate(m) if e])
        if den != 1:
            body = "%d/%d*%s" % (abs(num), den, body) if body else "%d/%d" % (abs(num), den)
        elif not body or num != 1 and num != -1:
            body = "%d*%s" % (abs(num), body) if body else str(abs(num))
        if out:
            out += (" - " if num < 0 else " + ") + body
        else:
            out = ("-" if num < 0 else "") + body
    return out or "0"


# ---------------------------------------------------------------------------
# parsing
#
# Grammar (ASCII): variables, integer/rational literals, + - * ^ and
# parentheses; '^' binds tighter than '*'; '-' may be unary.

NAME = r"[A-Za-z_][A-Za-z_0-9]*"  # a variable name the grammar reads

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>%s)|(?P<op>[-+*^()/]))" % NAME)

_MINUS_VARIANTS = {"−": "-", "–": "-", "—": "-"}


def _tokenize(text):
    for bad, good in _MINUS_VARIANTS.items():
        text = text.replace(bad, good)
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolynomialParseError(
                    "unexpected character %r at position %d" % (text[pos], pos)
                )
            break
        if m.group("num"):
            try:
                tokens.append(("num", int(m.group("num"))))
            except ValueError:  # more digits than int() converts
                raise PolynomialParseError("number at position %d is too long" % pos) from None
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise PolynomialParseError("expected %r, got %r" % (op, val))

    def parse(self):
        p = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise PolynomialParseError("trailing input at token %r" % (val,))
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.unary()
            else:
                return p

    def unary(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        if kind == "op" and val == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        p = self.atom()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "^":
                self.next()
                kind, e = self.next()
                if kind != "num":
                    raise PolynomialParseError("exponent must be an integer literal")
                p = p**e
            else:
                return p

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            # rational literal: NUM or NUM/NUM
            k, v = self.peek()
            if k == "op" and v == "/":
                self.next()
                k2, den = self.next()
                if k2 != "num" or den == 0:
                    raise PolynomialParseError("malformed rational literal")
                return self.ring.const(Fraction(val, den))
            return self.ring.const(val)
        if kind == "name":
            return self.ring.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolynomialParseError("unexpected token %r" % (val,))


def _parse_polynomial(ring, text):
    if not isinstance(text, str):
        raise PolynomialParseError("expected a string, got %r" % (text,))
    try:
        return _Parser(ring, _tokenize(text)).parse()
    except KeyError as exc:
        raise PolynomialParseError(str(exc)) from None

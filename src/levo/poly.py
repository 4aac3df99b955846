"""Exact multivariate polynomials over the rationals.

A polynomial is a sparse map from exponent vectors to nonzero Fraction
coefficients, attached to a ring that fixes the variable list.  Rings
distinguish base variables from their cotangent duals so that geometric
operations know which block is which.  Values are immutable after
construction, so they hash and compare structurally and are safe to
share.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PolynomialParseError, RingMismatchError

# ---------------------------------------------------------------------------
# monomial orders
#
# A monomial is a tuple of non-negative integer exponents, one per ring
# variable.  Order functions return sort keys: bigger key = bigger monomial.


def grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def lex_key(exps):
    return exps


def block_key(nlead):
    """Elimination order: the first `nlead` variables dominate.

    Any monomial involving a lead-block variable beats any monomial that
    does not, so basis elements free of the lead block generate the
    elimination ideal.
    """

    def key(exps):
        return (grevlex_key(exps[:nlead]), grevlex_key(exps[nlead:]))

    return key


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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
        return isinstance(other, PolyRing) and self._key() == other._key()

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

    def key(self):
        """Sort key of the ring's monomial order, grevlex."""
        return grevlex_key

    def base_ring(self):
        """The ring on the base variables alone."""
        return PolyRing(self.base_vars)

    # -- element constructors ------------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        i = self.index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {exps: coeff})

    def parse(self, text):
        return _parse_polynomial(self, text)

    def linear_form(self, coeffs, constant=0):
        """Sum coeffs[i] * vars[i] + constant, coeffs over all variables."""
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c:
                e = [0] * self.nvars
                e[i] = 1
                terms[tuple(e)] = c
        constant = Fraction(constant)
        if constant:
            terms[(0,) * self.nvars] = constant
        return Polynomial(self, terms)


class Polynomial:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms, _clean=True):
        self.ring = ring
        if _clean:
            clean = {}
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(m)] = c
            terms = clean
        self.terms = terms
        self._hash = None

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables(self):
        """Names of variables that actually occur."""
        seen = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    seen.add(i)
        return tuple(self.ring.vars[i] for i in sorted(seen))

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
            s = res.get(m, Fraction(0)) + c
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
            q = Fraction(other)
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
                s = res.get(m, Fraction(0)) + c1 * c2
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
        The values may live in a different ring (all in the same one).
        """
        target = None
        values = {}
        for name, val in mapping.items():
            if isinstance(val, (int, Fraction)):
                values[self.ring.index(name)] = ("const", Fraction(val))
            else:
                values[self.ring.index(name)] = ("poly", val)
                target = val.ring
        if target is None:
            target = self.ring
        for name in self.ring.vars:
            i = self.ring.index(name)
            if i not in values:
                values[i] = ("poly", target.var(name))

        # cache powers per variable
        powers = {}

        def power(i, e):
            kind, val = values[i]
            if kind == "const":
                return val**e
            key = (i, e)
            if key not in powers:
                powers[key] = val**e
            return powers[key]

        acc = target.zero()
        for m, c in self.terms.items():
            part_const = c
            part_poly = target.one()
            for i, e in enumerate(m):
                if not e:
                    continue
                p = power(i, e)
                if isinstance(p, Fraction):
                    part_const *= p
                else:
                    part_poly = part_poly * p
            acc = acc + part_poly * part_const
        return acc

    def eval_point(self, point):
        """Evaluate at a rational point given per base-ring variable order."""
        mapping = {name: Fraction(v) for name, v in zip(self.ring.vars, point)}
        return self.subs(mapping).constant_value()

    # -- leading data -------------------------------------------------------------

    def lead(self, key=None):
        """(monomial, coefficient) of the largest term under `key`."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = key or self.ring.key()
        m = max(self.terms, key=key)
        return m, self.terms[m]

    def monic(self, key=None):
        if not self.terms:
            return self
        _, c = self.lead(key)
        if c == 1:
            return self
        return Polynomial(
            self.ring, {m: v / c for m, v in self.terms.items()}, _clean=False
        )

    # -- identity -----------------------------------------------------------------

    def canonical(self):
        """Terms sorted descending under the ring order; hashable."""
        key = self.ring.key()
        return tuple(
            (m, self.terms[m]) for m in sorted(self.terms, key=key, reverse=True)
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.is_constant() and self.constant_value() == other
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.canonical()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return "Polynomial(%s)" % poly_to_str(self)


# ---------------------------------------------------------------------------
# printing


def _coeff_str(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def poly_to_str(p):
    if not p.terms:
        return "0"
    names = p.ring.vars
    key = p.ring.key()
    pieces = []
    for m in sorted(p.terms, key=key, reverse=True):
        c = p.terms[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        if not factors:
            body = _coeff_str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = _coeff_str(abs(c)) + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


# ---------------------------------------------------------------------------
# parsing
#
# Grammar (ASCII): variables, integer/rational literals, + - * ^ and
# parentheses; '^' binds tighter than '*'; '-' may be unary.

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)

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
            tokens.append(("num", int(m.group("num"))))
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

"""Factorization of polynomials over the integers.

A polynomial in n variables is a dict {exponent tuple: int} of nonzero
coefficients.  `factor` splits off the monomial content, then splits the
rest into pieces with few repeated factors by gcds with a partial
derivative (heuristic gcds, checked by exact division), and maps each
piece f to one variable by Kronecker substitution: x_k -> t^(w_k) with
w_k = prod_{j<k} (d_j + 1) and d_j = deg_{x_j} f.  Every factor of f has
degree at most d_j in x_j, so the substitution is injective on factors
and the inverse image reads each exponent of t in mixed radix.  The
image is factored in Z[t]; products of its irreducible factors are
mapped back, fewest factors first, and each inverse image that divides
f is an irreducible factor of f (a proper divisor of it would have been
found first).  The image can carry powers of t that f does not have
(u + x -> t + t^4 = t(1 + t^3)), so each candidate is tried with every
power of t the image still has.  The image has degree
prod_j (d_j + 1) - 1, and recombination is exponential in the number of
its factors modulo a prime, so an image of degree in the hundreds can
take minutes: (u + x + y + z)(u*x - y*z + 1)(u^2 + x^2 + y^2 + z^2),
with an image of degree 624, does.

A polynomial in one variable is a list of int coefficients in ascending
degree with a nonzero last entry.  `_factor_univariate` follows the
Zassenhaus scheme of von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 14-16:

1. split off the power of t and the content, then take Yun's
   square-free decomposition (14.6);
2. among the first few primes, in a fixed order, that divide neither the
   leading coefficient nor the discriminant of a square-free part, take
   the one with the fewest modular factors (the dimension of Berlekamp's
   kernel) and factor modulo it by Berlekamp's algorithm (14.8);
3. lift the modular factors by multifactor Hensel lifting (15.17) to a
   modulus above twice the bound (6.33) on the coefficients of a factor
   times the leading coefficient;
4. recombine subsets of the lifted factors, smallest first, keeping the
   candidates that divide the remaining polynomial (15.19, with trial
   division as the test).

Irreducible factorization over Z is unique up to sign, so neither the
prime nor the order of the variables changes the result.  No step uses
randomness.
"""

from __future__ import annotations

from itertools import combinations, count
from math import gcd, isqrt, prod


def factor(f):
    """The irreducible factors of a nonconstant f in Z[x_1, ..., x_n] as
    [(g, e)]: each g in the form of f, primitive, with a positive
    coefficient at its lex-largest monomial, and e its multiplicity.
    The content and sign of f are dropped."""
    n = len(next(iter(f)))
    low = [min(m[i] for m in f) for i in range(n)]
    out = [({tuple(int(j == i) for j in range(n)): 1}, low[i]) for i in range(n) if low[i]]
    if len(f) > 1:
        f = {tuple(e - b for e, b in zip(m, low)): c for m, c in f.items()}
        found = {}
        for part in _split_repeated(f):
            for g, e in _factor_kronecker(part):
                g = _primitive_sparse(g)
                found.setdefault(tuple(sorted(g.items())), [g, 0])[1] += e
        out.extend((g, e) for g, e in found.values())
    return out


def _split_repeated(f):
    """Nonconstant polynomials whose product is f up to sign: f over
    g = gcd(f, df/dx) for a variable x of f, then the same for g, until
    the gcd is constant.  Each piece then has far fewer repeated factors
    than f, which keeps its Kronecker image small."""
    parts = []
    while True:
        x = next(i for i in range(len(next(iter(f)))) if any(m[i] for m in f))
        g = _gcd_sparse(f, _diff(f, x))
        if g is None or len(g) == 1 and not any(next(iter(g))):
            parts.append(f)
            return parts
        parts.append(_divide(f, g))
        f = g


def _factor_kronecker(f):
    """The irreducible factors of an f with no monomial factor, with
    multiplicities, through its image under Kronecker substitution.  A
    candidate is t^a times a product of the other irreducible factors of
    the image; a factor of f takes at least one of those, so taking
    candidates by their number of them, smallest first, finds only
    irreducible factors."""
    sub = _Kronecker(_radix(f))
    shift, pool, counts = 0, [], []
    for g, e in _factor_univariate(sub.image(f)):
        if g == [0, 1]:
            shift = e
        else:
            pool.append(g)
            counts.append(e)
    out = []
    size = 1
    while 2 * size <= sum(counts):
        for choice in _choices(counts, size):
            g_image = [1]
            for u, k in zip(pool, choice):
                for _ in range(k):
                    g_image = _mul(g_image, u)
            for a in range(shift + 1):
                g, e = sub.preimage([0] * a + g_image), 0
                while (q := _divide(f, g)) is not None:
                    f, e = q, e + 1
                if e:
                    break
            if e:
                out.append((g, e))
                counts = [c - k * e for c, k in zip(counts, choice)]
                shift -= a * e
                break
        else:
            size += 1
    if any(any(m) for m in f):
        out.append((f, 1))
    return out


def _choices(counts, size):
    """Every vector of len(counts) non-negative ints, each at most its
    count, with sum `size`."""
    if len(counts) == 1:
        if size <= counts[0]:
            yield (size,)
        return
    for k in range(min(counts[0], size) + 1):
        for rest in _choices(counts[1:], size - k):
            yield (k,) + rest


class _Kronecker:
    """The substitution x_k -> t^(w_k), w_k = prod_{j<k} radix[j], which is
    injective on polynomials of degree below radix[j] in each x_j."""

    def __init__(self, radix):
        self.radix = radix
        self.weights = [prod(radix[:i]) for i in range(len(radix))]

    def image(self, g):
        a = [0] * prod(self.radix)
        for m, c in g.items():
            a[sum(e * w for e, w in zip(m, self.weights))] = c
        return _trim(a)

    def preimage(self, a):
        g = {}
        for i, c in enumerate(a):
            if c:
                m = []
                for r in self.radix:
                    i, e = divmod(i, r)
                    m.append(e)
                g[tuple(m)] = c
        return g


def _radix(f):
    return [max(m[i] for m in f) + 1 for i in range(len(next(iter(f))))]


# ---------------------------------------------------------------------------
# arithmetic in Z[x_1, ..., x_n]


def _mul_sparse(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _divide(f, g):
    """f / g, or None when g does not divide f.  The images under the
    substitution for f's degrees are divided in Z[t]; the quotient's
    inverse image is the answer if its product with g is f."""
    radix = _radix(f)
    if any(e >= r for m in g for e, r in zip(m, radix)):
        return None
    sub = _Kronecker(radix)
    q = _exact_quotient(sub.image(f), sub.image(g))
    if q is None:
        return None
    q = sub.preimage(q)
    return q if _mul_sparse(g, q) == f else None


def _diff(f, i):
    out = {}
    for m, c in f.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def _gcd_sparse(f, g):
    """A primitive common divisor of nonzero f and g, which is their gcd
    up to sign unless the heuristic below fails; None if it fails.

    The heuristic gcd (Char, Geddes and Gonnet 1984) evaluates the last
    variable that occurs at an integer xi, takes the gcd of the images
    in one variable fewer (the integer gcd once none is left), reads its
    coefficients back in balanced xi-adic digits as a polynomial in that
    variable, and accepts its primitive part when it divides f and g."""
    n = len(next(iter(f)))
    occurring = [i for i in range(n) if any(m[i] for m in f) or any(m[i] for m in g)]
    if not occurring:
        return {(0,) * n: 1}
    v = occurring[-1]
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        fe, ge = _evaluate_sparse(f, v, xi), _evaluate_sparse(g, v, xi)
        h = _gcd_sparse(fe, ge) if fe and ge else None
        if h is not None:
            c = gcd(gcd(*fe.values()), gcd(*ge.values()))
            candidate = {}
            for m, value in h.items():
                for e, d in enumerate(_digits(value * c, xi)):
                    if d:
                        candidate[m[:v] + (e,) + m[v + 1:]] = d
            candidate = _primitive_sparse(candidate)
            if _divide(f, candidate) is not None and _divide(g, candidate) is not None:
                return candidate
        xi = xi * 73794 // 27011
    return None


def _evaluate_sparse(f, v, x):
    out = {}
    for m, c in f.items():
        key = m[:v] + (0,) + m[v + 1:]
        out[key] = out.get(key, 0) + c * x ** m[v]
    return {m: c for m, c in out.items() if c}


def _primitive_sparse(f):
    c = gcd(*f.values())
    if f[max(f)] < 0:
        c = -c
    return {m: x // c for m, x in f.items()}


# ---------------------------------------------------------------------------
# univariate factoring


def _factor_univariate(f):
    """The irreducible factors of a nonconstant f in Z[t] as [(g, e)]:
    each g primitive with a positive leading coefficient, e its
    multiplicity.  The content and sign of f are dropped."""
    k = next(i for i, c in enumerate(f) if c)
    out = [([0, 1], k)] if k else []
    f = _primitive(f[k:])
    if len(f) > 1:
        for g, e in _squarefree(f):
            out.extend((u, e) for u in _factor_squarefree(g))
    return out


# ---------------------------------------------------------------------------
# arithmetic in Z[t]


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a):
    """a over its content, with a positive leading coefficient."""
    c = 0
    for x in a:
        c = gcd(c, x)
        if c == 1:
            break
    if a[-1] < 0:
        c = -c
    return a if c == 1 else [x // c for x in a]


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _derivative(a):
    return [i * a[i] for i in range(1, len(a))]


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _sub(a, b):
    return _add(a, [-y for y in b])


def _exact_quotient(a, b):
    """a / b in Z[t], or None when b does not divide a."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    if len(a) <= db:
        return None
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c, rem = divmod(r[i], lb)
        if rem:
            return None
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] -= c * b[j]
    return None if any(r[:db]) else q


def _prem(a, b):
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        r = [x * lb for x in r[:i]]
        if c:
            for j in range(db):
                r[i - db + j] -= c * b[j]
    return _trim(r)


def _gcd(a, b):
    """Primitive gcd with a positive leading coefficient.  The heuristic
    gcd (Char, Geddes and Gonnet 1984) reads the integer gcd of a(xi)
    and b(xi) back in balanced xi-adic digits; for xi above twice the
    smaller coefficient bound plus 2, the primitive part of that is the
    gcd whenever it divides both.  A primitive remainder sequence is the
    fallback."""
    if not a or not b:
        return _primitive(a or b)
    a, b = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        g = _primitive(_digits(gcd(_evaluate(a, xi), _evaluate(b, xi)), xi))
        if _exact_quotient(a, g) is not None and _exact_quotient(b, g) is not None:
            return g
        xi = xi * 73794 // 27011
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = _primitive(b), _prem(a, b)
    return a


def _evaluate(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _digits(v, x):
    """The balanced base-x digits of v, lowest first: the coefficients of
    the polynomial with coefficients below x/2 in absolute value that
    takes the value v at x."""
    out = []
    while v:
        d = v % x
        if 2 * d > x:
            d -= x
        out.append(d)
        v = (v - d) // x
    return out


def _squarefree(f):
    """Yun's decomposition of a primitive f with a positive leading
    coefficient: [(g, i)] with f = prod g^i and each g square-free,
    primitive and nonconstant."""
    df = _derivative(f)
    c = _gcd(f, df)
    if len(c) == 1:
        return [(f, 1)]
    w, y = _exact_quotient(f, c), _exact_quotient(df, c)
    out = []
    for i in count(1):
        if len(w) == 1:
            return out
        z = _sub(y, _derivative(w))
        g = _gcd(w, z)
        if len(g) > 1:
            out.append((g, i))
        w, y = _exact_quotient(w, g), _exact_quotient(z, g) if z else []


# ---------------------------------------------------------------------------
# arithmetic modulo m (coefficients in [0, m))


def _reduce(a, m):
    return _trim([x % m for x in a])


def _monic_mod(a, m):
    inv = pow(a[-1], -1, m)
    return [x * inv % m for x in a]


def _divmod_mod(a, b, m):
    """Quotient and remainder of a by a monic b, modulo m."""
    r = [x % m for x in a]
    db = len(b) - 1
    if len(r) <= db:
        return [], _trim(r)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i] % m
        if c:
            q[i - db] = c
            for j in range(db):
                r[i - db + j] -= c * b[j]
    return q, _reduce(r[:db], m)


def _mul_mod(a, b, m):
    return _reduce(_mul(a, b), m)


def _gcd_mod(a, b, p):
    """Monic gcd modulo a prime p."""
    a, b = _reduce(a, p), _reduce(b, p)
    while b:
        b = _monic_mod(b, p)
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _bezout_mod(g, h, p):
    """(s, t) with s*g + t*h = 1 modulo p, deg s < deg h and
    deg t < deg g, for g and h coprime modulo p."""
    r0, r1 = g, h
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, s1, t1 = ([x * inv % p for x in v] for v in (r1, s1, t1))
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _reduce(_sub(t0, _mul(q, t1)), p)
    return s0, t0


def _powmod(a, e, f, m):
    """a^e modulo the monic f and m."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul(out, a), f, m)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul(a, a), f, m)[1]
    return out


def _symmetric(a, m):
    half = m // 2
    return [x - m if x > half else x for x in a]


# ---------------------------------------------------------------------------
# factoring modulo a prime


def _primes():
    for n in count(3, 2):
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


def _nullspace_mod(rows, p):
    """A basis of {v : sum_i v_i * rows[i] = 0 mod p}, each vector with a
    1 in a position where every other vector has 0, in ascending order
    of that position.

    Gauss-Jordan elimination on the columns of `rows`, each packed into
    one int with w bits per entry: a row operation is one integer
    multiply-add, and entries are reduced mod p only where read.  An
    entry gains less than p^2 per operation and takes at most n of them,
    which w allows for."""
    n = len(rows)
    w = (n * p * p).bit_length()
    mask = (1 << w) - 1
    a = [_evaluate([x % p for x in col], 1 << w) for col in zip(*rows)]
    pivots = []
    for c in range(n):
        shift = c * w
        r = len(pivots)
        piv = next((i for i in range(r, n) if (a[i] >> shift & mask) % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = _unpack(a[r], w, n)
        inv = pow(row[c], -1, p)
        a[r] = _evaluate([x * inv % p for x in row], 1 << w)
        for i in range(n):
            k = (a[i] >> shift & mask) % p
            if i != r and k:
                a[i] += (p - k) * a[r]
        pivots.append(c)
    basis = []
    reduced = [_unpack(a[row], w, n) for row in range(len(pivots))]
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for row, c in enumerate(pivots):
            v[c] = -reduced[row][free] % p
        basis.append(v)
    return basis


def _unpack(v, w, n):
    """The n entries of w bits each packed in v, lowest first."""
    mask = (1 << w) - 1
    return [v >> (w * j) & mask for j in range(n)]


def _berlekamp_kernel(f, p):
    """A basis of the kernel of Q - I for a monic square-free f modulo p,
    where Q is the matrix of v -> v^p on Z_p[t]/(f); its dimension is the
    number of irreducible factors of f modulo p, and its first vector is
    the constant 1."""
    n = len(f) - 1
    xp = _powmod([0, 1], p, f, p)
    rows, power = [], [1]
    for i in range(n):  # row i: t^(i*p) - t^i mod f
        row = power + [0] * (n - len(power))
        row[i] -= 1
        rows.append(row)
        power = _divmod_mod(_mul(power, xp), f, p)[1]
    return _nullspace_mod(rows, p)


def _berlekamp_split(f, kernel, p):
    """The monic irreducible factors of a monic square-free f modulo p,
    given its Berlekamp kernel."""
    factors = [f]
    for v in kernel[1:]:
        if len(factors) == len(kernel):
            break
        split = []
        for u in factors:
            w = _divmod_mod(v, u, p)[1] + [0]
            for s in range(p):
                if len(u) == 2:
                    break
                w[0] = (w[0] - (s > 0)) % p  # w = v - s mod u
                g = _gcd_mod(u, w, p)
                if 1 < len(g) < len(u):
                    split.append(g)
                    u = _divmod_mod(u, g, p)[0]
            split.append(u)
        factors = split
    return factors


# ---------------------------------------------------------------------------
# Hensel lifting and recombination


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step (von zur Gathen and Gerhard 15.10):
    from f = g*h and s*g + t*h = 1 modulo m0, with h monic, to the same
    identities modulo m, which divides m0^2."""
    e = _reduce(_sub(f, _mul(g, h)), m)
    q, r = _divmod_mod(_mul(s, e), h, m)
    g = _reduce(_add(g, _add(_mul(t, e), _mul(q, g))), m)
    h = _reduce(_add(h, r), m)
    b = _reduce(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
    c, d = _divmod_mod(_mul(s, b), h, m)
    s = _reduce(_sub(s, d), m)
    t = _reduce(_sub(t, _add(_mul(t, b), _mul(c, g))), m)
    return g, h, s, t


def _hensel(f, factors, p, m):
    """Monic factors modulo m, a power of p, one lifting each of
    `factors`, of f = lc(f) * prod(factors) modulo p (15.17)."""
    if len(factors) == 1:
        return [_monic_mod(_reduce(f, m), m)]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:half]:
        g = _mul_mod(g, u, p)
    for u in factors[half:]:
        h = _mul_mod(h, u, p)
    s, t = _bezout_mod(g, h, p)
    modulus = p
    while modulus < m:
        modulus = min(modulus * modulus, m)
        g, h, s, t = _hensel_step(f, g, h, s, t, modulus)
    return _hensel(g, factors[:half], p, m) + _hensel(h, factors[half:], p, m)


_PRIMES_TRIED = 5


def _factor_squarefree(f):
    """The irreducible factors of a square-free primitive f with a
    positive leading coefficient and f(0) != 0."""
    if len(f) == 2:
        return [f]
    df = _derivative(f)
    best = None
    tried = 0
    for p in _primes():
        if not f[-1] % p or len(_gcd_mod(f, df, p)) > 1:
            continue
        monic = _monic_mod(_reduce(f, p), p)
        kernel = _berlekamp_kernel(monic, p)
        if best is None or len(kernel) < len(best[2]):
            best = p, monic, kernel
        tried += 1
        if len(kernel) == 1 or tried == _PRIMES_TRIED:
            break
    p, monic, kernel = best
    if len(kernel) == 1:
        return [f]
    modular = _berlekamp_split(monic, kernel, p)
    # for every factor g of every divisor `rest` of f, lc(rest)/lc(g) * g
    # has coefficients of absolute value at most `bound` (Mignotte)
    bound = (isqrt(sum(x * x for x in f)) + 1) * f[-1] << (len(f) - 1)
    m = p
    while m <= 2 * bound:
        m *= p
    lifted = _hensel(f, modular, p, m)
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            # the constant term of lc(f)/lc(g) * g divides lc(f) * f(0)
            c = f[-1]
            for i in subset:
                c = c * lifted[i][0] % m
            c = c - m if 2 * c > m else c
            if not c or f[-1] * f[0] % c:
                continue
            g = [f[-1]]
            for i in subset:
                g = _mul_mod(g, lifted[i], m)
            g = _primitive(_symmetric(g, m))
            if g[0] and not f[0] % g[0]:
                q = _exact_quotient(f, g)
                if q is not None:
                    found.append(g)
                    f = q
                    lifted = [u for i, u in enumerate(lifted) if i not in subset]
                    break
        else:
            size += 1
    return found + [f]

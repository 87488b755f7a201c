"""Exact univariate polynomial arithmetic over a small finite field.

Polynomials are plain tuples of element codes, lowest degree first, with no
trailing zeros; () is the zero polynomial.  All functions take the field K
(a gf.FiniteField) as first argument, in the style of coefficient-list
polynomial libraries.  Nothing here is asymptotically fast; inputs stay at
desk scale (degree below ~20) and correctness is the only requirement.

A second encoding is used by the enumeration kernels: a polynomial of
degree <= m is an integer code sum(c_i * q^i), i.e. its coefficient vector
read as a base-q number.  Codes enumerate polynomials in a deterministic
order with constants first.  On this encoding, code_sums tabulates the code
of f_x + f_y for all codes x, y below a power of q, and scaled_codes lists
the codes of the constant multiples c*f.
"""

import functools
import operator
from itertools import chain, cycle

from .errors import ConsistencyError, exact_quotient

ZERO = ()
ONE = (1,)


def deg(f) -> int:
    """Degree of f; the zero polynomial has degree -1."""
    return len(f) - 1


def normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def constant(c) -> tuple:
    return (c,) if c else ZERO


def add(K, f, g):
    r = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        r[i] = c
    for i, c in enumerate(g):
        r[i] = K.add(r[i], c)
    return normalize(r)


def neg(K, f):
    return tuple(K.neg(c) for c in f)


def sub(K, f, g):
    return add(K, f, neg(K, g))


def mul(K, f, g):
    if not f or not g:
        return ZERO
    r = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = K._mul[a]
            for j, b in enumerate(g):
                if b:
                    r[i + j] = K.add(r[i + j], row[b])
    return tuple(r)  # leading coefficient is a product of units


def mul_scalar(K, f, c):
    if c == 0:
        return ZERO
    return tuple(K.mul(a, c) for a in f)


def pow_(K, f, k: int):
    r = ONE
    for _ in range(k):
        r = mul(K, r, f)
    return r


def divmod_(K, f, g):
    """Quotient and remainder of f by g != 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    dg = deg(g)
    inv_lead = K.inv(g[-1])
    quo = [0] * max(0, len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = K.mul(f[-1], inv_lead)
        k = len(f) - 1 - dg
        quo[k] = c
        for i, b in enumerate(g):
            f[k + i] = K.sub(f[k + i], K.mul(c, b))
        while f and f[-1] == 0:
            f.pop()
    return normalize(quo), normalize(f)


def rem(K, f, g):
    return divmod_(K, f, g)[1]


def exact_div(K, f, g):
    quo, r = divmod_(K, f, g)
    if r:
        raise ValueError("division is not exact")
    return quo


def monic(K, f):
    """(unit, monic part) with f = unit * monic part; unit of 0 is 1."""
    if not f:
        return 1, ZERO
    u = f[-1]
    if u == 1:
        return 1, f
    return u, mul_scalar(K, f, K.inv(u))


def gcd(K, f, g):
    """Monic greatest common divisor; undefined (raises) when f = g = 0."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    while g:
        f, g = g, rem(K, f, g)
    return monic(K, f)[1]


def gcd_many(K, polys):
    acc = ZERO
    for f in polys:
        if acc == ONE:
            return acc
        if f:
            acc = gcd(K, acc, f)
    if not acc:
        raise ValueError("gcd of all-zero family is undefined")
    return acc


def evaluate(K, f, x):
    acc = 0
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


# -- enumeration ----------------------------------------------------------


def enumerate_polys(K, max_deg: int):
    """All q^(max_deg+1) polynomials of degree <= max_deg, in code order.

    max_deg = -1 yields only the zero polynomial.
    """
    if max_deg < -1:
        raise ValueError("max_deg must be >= -1")
    for code in range(K.q ** (max_deg + 1)):
        yield from_code(K.q, code)


def enumerate_monic(K, d: int):
    """Monic polynomials of degree exactly d, in code order of the low part."""
    if d < 0:
        return
    for code in range(K.q**d):
        yield from_code(K.q, code, pad=d) + (1,)


def from_code(q: int, code: int, pad: int = 0):
    out = []
    while code:
        code, c = divmod(code, q)
        out.append(c)
    while len(out) < pad:
        out.append(0)
    return normalize(out) if not pad else tuple(out)


def to_code(q: int, f) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * q + c
    return acc


def scaled_codes(K, f):
    """The codes of c*f for the constants c = 0 .. q-1."""
    return [to_code(K.q, mul_scalar(K, f, c)) for c in range(K.q)]


def code_sums(K, size):
    """Flat table t[x * size + y] = code of f_x + f_y for the codes x, y
    below size (a power of q), added coefficientwise in K.  Row q*x' + c
    is row x' shifted one digit, plus the digit sums with c."""
    q, add = K.q, K._add
    t = list(range(size))  # row 0: f_0 + f_y = f_y
    # every row holds the int objects of row 0, one per code, so the
    # table costs a pointer per entry
    for x1 in range(size // q):
        start = x1 * size
        shifted = list(each_repeated([q * v for v in t[start : start + size // q]], q))
        for c in range(1 if x1 == 0 else 0, q):
            t += map(t.__getitem__, map(operator.add, shifted, cycle(add[c])))
    return t


def each_repeated(values, k):
    """values[0] k times, then values[1] k times, and so on."""
    return chain.from_iterable(zip(*[values] * k))


# -- irreducibility and factorization --------------------------------------


@functools.lru_cache(maxsize=64)
def monic_irreducibles(K, d: int):
    """Tuple of all monic irreducible polynomials of degree d, in code order."""
    if d < 1:
        raise ValueError("irreducibles have degree >= 1")
    out = []
    for f in enumerate_monic(K, d):
        if _irreducible(K, f):
            out.append(f)
    return tuple(out)


def _irreducible(K, f):
    for e in range(1, deg(f) // 2 + 1):
        for g in monic_irreducibles(K, e):
            if not rem(K, f, g):
                return False
    return True


def is_irreducible(K, f) -> bool:
    """Trial-division irreducibility test; constants are rejected."""
    if deg(f) < 1:
        raise ValueError("irreducibility is undefined for constants")
    return _irreducible(K, monic(K, f)[1])


def count_monic_irreducibles(q: int, d: int) -> int:
    """Number I_q(d) of monic irreducibles of degree d over F_q, from
    q^d = sum over e | d of e * I_q(e): each element of F_{q^d} is one of
    the e roots of exactly one monic irreducible, of a degree e | d."""
    if d < 1:
        raise ValueError("irreducibles have degree >= 1")
    rest = q**d - sum(e * count_monic_irreducibles(q, e) for e in range(1, d) if d % e == 0)
    return exact_quotient(rest, d, f"the count of monic irreducibles of degree {d} over F_{q}")


def factor(K, f):
    """Full factorization (unit, {irreducible: multiplicity}) by trial division."""
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    unit, rest = monic(K, f)
    out = {}
    d = 1
    while deg(rest) >= 1:
        if d > deg(rest):
            raise ConsistencyError("factorization did not terminate")
        for p in monic_irreducibles(K, d):
            while deg(rest) >= d:
                quo, r = divmod_(K, rest, p)
                if r:
                    break
                rest = quo
                out[p] = out.get(p, 0) + 1
        d += 1
    return unit, out


def squarefree_part(K, f):
    """(unit, s, h) with f = unit * s * h^2 exactly, s squarefree monic, h monic.

    Works in any characteristic: multiplicities come from a full
    factorization, so p-th powers (where f' = 0) are handled correctly.
    """
    if not f:
        raise ValueError("squarefree part of zero is undefined")
    unit, fac = factor(K, f)
    s, h = ONE, ONE
    for p, m in sorted(fac.items()):
        if m % 2:
            s = mul(K, s, p)
        for _ in range(m // 2):
            h = mul(K, h, p)
    return unit, s, h


# -- quadratics over F_q[T]: irreducibility over F_{q^2}(T) -----------------


def quadratic_stays_irreducible(K, a, b, c) -> bool:
    """Whether a*Y^2 + b*Y + c (a != 0, polynomial coefficients) is
    irreducible over F_{q^2}(T): irreducible over F_q(T), with a root
    field that keeps the constant field F_q.

    Odd q: the discriminant b^2 - 4ac must not be a square in F_{q^2}(T),
    where every unit of F_q is one, so its squarefree part has degree >= 1.
    Characteristic 2, b = 0: Y^2 = c/a, and a*c must not be a square; over
    a perfect constant field the squares are the polynomials with no
    odd-degree term.  Otherwise Y = b*z/a gives z^2 + z = w, w = a*c/b^2.
    With AS(z) = z^2 + z and c0 a constant outside AS(F_q), F_{q^2}(T) is
    F_q(T)(z0) for AS(z0) = c0, so w lies in AS(F_{q^2}(T)) iff w or
    w + c0 lies in AS(F_q(T)) (Stichtenoth, GTM 254, section 3.7).
    """
    if not a:
        raise ValueError("leading coefficient must be nonzero")
    if K.q % 2:
        disc = sub(K, mul(K, b, b), mul_scalar(K, mul(K, a, c), 4 % K.p))
        return bool(disc) and deg(squarefree_part(K, disc)[1]) >= 1
    ac = mul(K, a, c)
    if not b:
        return any(ac[1::2])
    if _artin_schreier_over_square(K, ac, b):
        return False
    c0 = mul_scalar(K, mul(K, b, b), _artin_schreier_constant(K))
    return not _artin_schreier_over_square(K, add(K, ac, c0), b)


@functools.lru_cache(maxsize=16)
def _artin_schreier_constant(K):
    """The least c0 in F_Q, char 2, with no root of z^2 + z = c0 in F_Q."""
    image = {K.add(K.mul(x, x), x) for x in K.elements()}
    return min(c for c in K.elements() if c not in image)


def _artin_schreier_over_square(K, num, dz) -> bool:
    """Whether z^2 + z = num/dz^2 (dz != 0) has a solution z in F_Q(T),
    char 2.

    A solution has poles only where w = num/dz^2 has them, of half the
    order, so z = nz/dz with nz a polynomial.  A pole of w at infinity must
    have even order, and it bounds deg nz by
    deg dz + max(0, deg num - 2 deg dz)/2.  Then z^2 + z = w reads
    nz^2 + nz*dz = num, and nz -> nz^2 + nz*dz is F_2-linear: num, as a
    bit vector, is reduced against an echelon basis of the image.
    """
    if not num:
        return True  # z = 0
    ord_inf = 2 * deg(dz) - deg(num)  # infinity = order in 1/T
    if ord_inf < 0 and ord_inf % 2:
        return False
    x = _bits(K, num)
    for v in _artin_schreier_image(K, dz, deg(dz) - min(ord_inf, 0) // 2):
        x = min(x, x ^ v)  # clears v's leading bit if x has it
    return x == 0


def _bits(K, f):
    """f over F_Q, Q = 2^e, as an integer bit vector: an element code lists
    its coordinates over F_2, so polynomial addition is XOR."""
    return sum(c << (K.e * i) for i, c in enumerate(f))


@functools.lru_cache(maxsize=256)
def _artin_schreier_image(K, den, bound):
    """Echelon F_2-basis, by decreasing leading bit, of the image of
    nz -> nz^2 + nz*den over the nz of degree <= bound (as _bits vectors)."""
    basis = []
    for i in range(bound + 1):
        for j in range(K.e):
            nz = (0,) * i + (1 << j,)
            v = _bits(K, add(K, mul(K, nz, nz), mul(K, nz, den)))
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
                basis.sort(reverse=True)
    return tuple(basis)


# -- formatting -------------------------------------------------------------


def format_poly(f, var: str = "T") -> str:
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return "+".join(parts)

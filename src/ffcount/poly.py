"""Exact univariate polynomial arithmetic over a small finite field.

Polynomials are plain tuples of element codes, lowest degree first, with no
trailing zeros; () is the zero polynomial.  All functions take the field K
(a gf.FiniteField) as first argument, in the style of coefficient-list
polynomial libraries.  Nothing here is asymptotically fast; inputs stay at
desk scale (degree below ~20) and correctness is the only requirement.

A second encoding is used by the enumeration kernels: a polynomial of
degree <= m is an integer code sum(c_i * q^i), i.e. its coefficient vector
read as a base-q number.  Codes enumerate polynomials in a deterministic
order with constants first.
"""

import functools

from .errors import ConsistencyError, RefusalError
from .gf import FiniteField, constant_extension

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


def square(K, f):
    return mul(K, f, f)


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


def derivative(K, f):
    out = []
    for i in range(1, len(f)):
        c = f[i]
        s = 0
        for _ in range(i % K.p):
            s = K.add(s, c)
        out.append(s)
    return normalize(out)


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


# -- irreducibility and factorization --------------------------------------


@functools.lru_cache(maxsize=64)
def monic_irreducibles(K: FiniteField, d: int):
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
    """Number of monic irreducibles of degree d over F_q (necklace count)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += moebius_int(d // e) * q**e
    return total // d


def moebius_int(n: int) -> int:
    r, res, d = n, 1, 2
    while d * d <= r:
        if r % d == 0:
            r //= d
            if r % d == 0:
                return 0
            res = -res
        d += 1
    if r > 1:
        res = -res
    return res


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


def is_square_poly(K, f) -> bool:
    """Whether f is the square of a polynomial (zero counts as a square)."""
    if not f:
        return True
    unit, s, _ = squarefree_part(K, f)
    return s == ONE and K.is_square(unit)


# -- quadratics over F_q[T]: irreducibility over F_{q^j}(T) -----------------


def stays_irreducible_over_constant_extension(K, coeffs, j: int) -> bool:
    """Whether a polynomial in Y with F_q[T] coefficients stays irreducible
    once the constant field is extended from F_q to F_{q^j}.

    `coeffs` lists the Y-coefficients (lowest first) as polynomial tuples;
    the input is assumed irreducible over F_q(T) already.  Supported for
    Y-degree 1 (always true) and 2; higher degrees would need bivariate
    factorization and are refused.
    """
    if j < 2:
        raise ValueError("extension degree j must be >= 2")
    dY = len(coeffs) - 1
    while dY >= 0 and not coeffs[dY]:
        dY -= 1
    if dY < 1:
        raise ValueError("Y-degree must be >= 1")
    if dY == 1:
        return True
    if dY > 2:
        raise RefusalError(
            "constant-field test implemented for Y-degree <= 2 only "
            "(no bivariate factorization at higher degree)"
        )
    c0, b, a = coeffs[0], coeffs[1], coeffs[2]
    if K.q % 2:
        # roots generate k(sqrt(disc)); the constant field grows iff the
        # squarefree part of the discriminant is a (non-square) constant,
        # and that field F_{q^2}(T) embeds into F_{q^j}(T) iff j is even
        disc = sub(K, mul(K, b, b), mul_scalar(K, mul(K, a, c0), 4 % K.p))
        _, s, _ = squarefree_part(K, disc)
        if deg(s) >= 1:
            return True
        return j % 2 == 1
    if not b:
        # inseparable Y^2 - c0/a: squareness in F_{q^j}(T) does not depend
        # on j in characteristic 2 (the constant field is perfect), so an
        # irreducible input stays irreducible
        return True
    # Artin-Schreier form: irreducible over F_{q^j}(T) iff w = a*c0/b^2 is
    # not of the form z^2 + z there
    big, emb = constant_extension(K, j)
    num = tuple(emb[c] for c in mul(K, a, c0))
    den = tuple(emb[c] for c in mul(K, b, b))
    return not _artin_schreier_solvable(big, num, den)


def _artin_schreier_solvable(K, w_num, w_den) -> bool:
    """Whether z^2 + z = w_num/w_den has a solution z in F_Q(T), char 2.

    Any solution has pole divisor exactly half of w's: every pole
    multiplicity of w must be even, including at infinity.  So the reduced
    monic denominator is a square dz^2, z = nz/dz, and the order at
    infinity bounds deg nz.  Then z^2 + z = w reads nz^2 + nz*dz = w_num,
    and nz -> nz^2 + nz*dz is F_2-linear: w_num, as a bit vector, is
    reduced against an echelon basis of the image.
    """
    if not w_num:
        return True  # z = 0
    g = gcd(K, w_num, w_den)
    if g != ONE:
        w_num = exact_div(K, w_num, g)
        w_den = exact_div(K, w_den, g)
    u, w_den = monic(K, w_den)
    w_num = mul_scalar(K, w_num, K.inv(u))
    # a square in K[T] (K perfect) has no odd-degree terms, and its root
    # takes the square root of each coefficient
    if any(w_den[1::2]):
        return False
    dz = tuple(_sqrt_char2(K, c) for c in w_den[::2])
    ord_inf = deg(w_den) - deg(w_num)  # infinity = order in 1/T
    if ord_inf < 0:
        if ord_inf % 2:
            return False
        num_bound = deg(dz) - ord_inf // 2
    else:
        num_bound = deg(dz)
    x = _bits(K, w_num)
    for v in _artin_schreier_image(K, dz, num_bound):
        x = min(x, x ^ v)  # clears v's leading bit if x has it
    return x == 0


def _sqrt_char2(K, c):
    """The square root c^(Q/2) of c in F_Q, Q = 2^e."""
    for _ in range(K.e - 1):
        c = K._mul[c][c]
    return c


def _bits(K, f):
    """f over F_Q, Q = 2^e, as an integer bit vector: an element code lists
    its coordinates over F_2, so polynomial addition is XOR."""
    return sum(c << (K.e * i) for i, c in enumerate(f))


@functools.lru_cache(maxsize=256)
def _artin_schreier_image(K, dz, bound):
    """Echelon F_2-basis, by decreasing leading bit, of the image of
    nz -> nz^2 + nz*dz over the nz of degree <= bound (as _bits vectors)."""
    basis = []
    for i in range(bound + 1):
        for j in range(K.e):
            nz = (0,) * i + (1 << j,)
            v = _bits(K, add(K, mul(K, nz, nz), mul(K, nz, dz)))
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
                basis.sort(reverse=True)
    return tuple(basis)


def quadratic_irreducible_over_base(K, a, b, c) -> bool:
    """Whether a*Y^2 + b*Y + c (a != 0, polynomial coefficients) is
    irreducible over F_q(T)."""
    if not a:
        raise ValueError("leading coefficient must be nonzero")
    if K.q % 2:
        disc = sub(K, mul(K, b, b), mul_scalar(K, mul(K, a, c), 4 % K.p))
        if not disc:
            return False
        unit, s, _ = squarefree_part(K, disc)
        return not (s == ONE and K.is_square(unit))
    if b:
        return not _artin_schreier_solvable(K, mul(K, a, c), mul(K, b, b))
    if not c:
        return False
    # Y^2 = c/a irreducible iff c/a is not a square in F_q(T); in
    # characteristic 2 all units are squares, so only multiplicities matter
    g = gcd(K, a, c)
    ar, cr = exact_div(K, a, g), exact_div(K, c, g)
    return not (is_square_poly(K, ar) and is_square_poly(K, cr))


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

"""Enumeration kernels and the tables behind them.

Two hot loops dominate everything in this package:

  * counting coprime polynomial vectors of given height (the projective
    point oracle), and
  * classifying binary quadratic coefficient triples by the square class
    of their discriminant (degree-2 points, forms, field matching).

Both run over integer polynomial codes (base-q coefficient vectors) with
all field work precomputed into flat tables here.

The vector count is a recursion over coordinates with a running monic gcd
code; identical (remaining length, gcd, seen-max-degree) states are shared
through a memo dictionary, and a branch whose gcd has reached 1 is
completed in closed form.  Its gcd codes come from the flat gcd table up
to GCD_TABLE_MAX_CODES codes and are computed on demand above it.

The triple classification reads the discriminant tables for odd prime q.
Characteristic 2 and non-prime q go through a loop over polynomial
triples instead, which on odd prime q is the reference for the tables.
"""

import functools
from array import array

from . import poly
from .gf import GF

# There is a single pure-Python lane; the benchmark harness still reads
# this flag to label its records.
USING_COMPILED = False

GCD_TABLE_MAX_CODES = 2500  # above this the flat q^(2(m+1)) gcd table is skipped


@functools.lru_cache(maxsize=None)
def vector_tables(q: int, m: int):
    """(ncodes, deg, gcdtab, monic_codes) for polynomials of degree <= m.

    deg[code] is the degree (-1 for zero); gcdtab is the flat ncodes^2 table
    of monic gcd codes (None when over the size cap); monic_codes lists the
    codes of monic nonzero polynomials in increasing order.
    """
    K = GF(q)
    ncodes = q ** (m + 1)
    polys = [poly.from_code(q, code) for code in range(ncodes)]
    deg = array("i", (len(f) - 1 for f in polys))
    monic_codes = tuple(c for c, f in enumerate(polys) if f and f[-1] == 1)
    gcdtab = None
    if ncodes <= GCD_TABLE_MAX_CODES:
        flat = [0] * (ncodes * ncodes)
        for i in range(ncodes):
            fi = polys[i]
            row = i * ncodes
            for j in range(i, ncodes):
                if not fi and not polys[j]:
                    continue
                g = poly.to_code(q, poly.gcd(K, fi, polys[j]))
                flat[row + j] = g
                flat[j * ncodes + i] = g
        gcdtab = array("i", flat)
    return ncodes, deg, gcdtab, monic_codes


@functools.lru_cache(maxsize=None)
def _gcd_code_fn(q: int):
    K = GF(q)

    @functools.lru_cache(maxsize=1 << 20)
    def gcd_code(i: int, j: int) -> int:
        return poly.to_code(q, poly.gcd(K, poly.from_code(q, i), poly.from_code(q, j)))

    return gcd_code


def count_completions(n_rest, m, q, ncodes, deg, gcd_row, g, flag, memo):
    """Tuples (y_1..y_n_rest) of codes < ncodes with gcd(g, y_*) = 1 and
    maximal degree m reached (flag marks degree m already seen).

    gcd_row(g) lists the monic gcd codes of g with every code in
    range(ncodes), in order.
    """
    if g == 1:
        total = ncodes**n_rest
        if flag:
            return total
        return total - (q**m) ** n_rest
    if n_rest == 0:
        return 0
    key = (n_rest, g, flag)
    hit = memo.get(key)
    if hit is not None:
        return hit
    count = 0
    for y, gy in enumerate(gcd_row(g)):
        count += count_completions(
            n_rest - 1, m, q, ncodes, deg, gcd_row, gy, deg[y] == m or flag, memo
        )
    memo[key] = count
    return count


def count_coprime_lead(q, n, m, lead_pos, lead_code):
    """Normalized coprime vectors of height exactly m whose first nonzero
    coordinate sits at `lead_pos` (0-based) and equals the monic polynomial
    with code `lead_code`."""
    ncodes, deg, gcdtab, _ = vector_tables(q, m)
    if gcdtab is not None:

        def gcd_row(g):
            return gcdtab[g * ncodes : (g + 1) * ncodes]

    else:
        gcd_code = _gcd_code_fn(q)

        def gcd_row(g):
            return [gcd_code(g, y) for y in range(ncodes)]

    return count_completions(
        n - lead_pos - 1, m, q, ncodes, deg, gcd_row, lead_code, deg[lead_code] == m, {}
    )


@functools.lru_cache(maxsize=None)
def quad_tables(q: int, m: int, target=None):
    """Tables for classifying triples (a, b, c) -> disc = b^2 - 4ac.

    Returns (ncodes, deg, gcdtab, monic_codes, sq, prod4, classify) where
    sq[b] is the code of b^2, prod4[a*ncodes+c] the code of 4ac, and
    classify[disc_code] a bitmask: 1 = disc is a non-square (the quadratic
    is irreducible over F_q(T)), 2 = squarefree part is non-constant (the
    constant field survives), 4 = square class matches `target` = (D, u).
    Prime odd q only; other fields go through classify_triples_by_polys.
    """
    if q % 2 == 0 or GF(q).e != 1:
        raise ValueError("discriminant tables need odd prime q")
    K = GF(q)
    ncodes, deg, gcdtab, monic_codes = vector_tables(q, m)
    ncodes2 = q ** (2 * m + 1)
    polys = [poly.from_code(q, code) for code in range(ncodes)]
    sq = array("q", (poly.to_code(q, poly.mul(K, f, f)) for f in polys))
    four = 4 % q
    flat = [0] * (ncodes * ncodes)
    for ai in monic_codes:
        fa = polys[ai]
        row = ai * ncodes
        for ci in range(ncodes):
            flat[row + ci] = poly.to_code(q, poly.mul_scalar(K, poly.mul(K, fa, polys[ci]), four))
    prod4 = array("q", flat)
    classify = bytearray(ncodes2)
    for code in range(1, ncodes2):
        f = poly.from_code(q, code)
        unit, s, _ = poly.squarefree_part(K, f)
        bits = 0
        if not (s == poly.ONE and K.is_square(unit)):
            bits |= 1
        if len(s) - 1 >= 1:
            bits |= 2
        if target is not None:
            tD, tu = target
            if s == tD and K.is_square(K.mul(unit, tu)):
                bits |= 4
        classify[code] = bits
    return ncodes, deg, gcdtab, monic_codes, sq, prod4, classify


def count_quadratic_triples(q, m, want_bits, target=None):
    """Count normalized triples (a monic nonzero, b, c) with max degree
    exactly m, gcd 1, whose discriminant classification has all `want_bits`."""
    ncodes, deg, gcdtab, monic_codes, sq, prod4, classify = quad_tables(q, m, target)
    if gcdtab is None:
        raise ValueError("degree too large for the discriminant tables")
    ndigits = 2 * m + 1
    qpow = [q**i for i in range(ndigits + 1)]
    total = 0
    for a in monic_codes:
        arow = a * ncodes
        a_hits = deg[a] == m
        for b in range(ncodes):
            g1 = gcdtab[arow + b]
            g1row = g1 * ncodes
            sqb = sq[b]
            ab_hits = a_hits or deg[b] == m
            for c in range(ncodes):
                if not ab_hits and deg[c] != m:
                    continue
                if g1 == 1:
                    pass
                elif gcdtab[g1row + c] != 1:
                    continue
                # disc code: digitwise (b^2 - 4ac) mod q
                x, y = sqb, prod4[arow + c]
                disc = 0
                for i in range(ndigits):
                    d = (x % q) - (y % q)
                    x //= q
                    y //= q
                    disc += (d % q) * qpow[i]
                if classify[disc] & want_bits == want_bits:
                    total += 1
    return total


def irreducible_triple_counts(q, m):
    """(sep, insep): normalized triples (a monic, b, c) with gcd 1 and max
    degree exactly m whose quadratic a*Y^2 + b*Y + c is irreducible over
    F_q(T) and keeps the constant field, split into separable ones and the
    inseparable ones (characteristic 2 with b = 0)."""
    if q % 2 and GF(q).e == 1:
        return count_quadratic_triples(q, m, want_bits=3), 0
    return classify_triples_by_polys(GF(q), m)


def classify_triples_by_polys(K, m):
    """irreducible_triple_counts by polynomial arithmetic on each triple,
    for any constant field K."""
    sep = insep = 0
    all_polys = list(poly.enumerate_polys(K, m))
    monics = [f for f in all_polys if f and f[-1] == 1]
    for a in monics:
        for b in all_polys:
            g1 = poly.gcd(K, a, b) if b else a
            for c in all_polys:
                if max(poly.deg(a), poly.deg(b), poly.deg(c)) != m:
                    continue
                if g1 != poly.ONE:
                    g2 = poly.gcd(K, g1, c) if c else g1
                    if g2 != poly.ONE:
                        continue
                if not poly.quadratic_irreducible_over_base(K, a, b, c):
                    continue
                if not poly.stays_irreducible_over_constant_extension(K, (c, b, a), 2):
                    continue
                if K.q % 2 == 0 and not b:
                    insep += 1
                else:
                    sep += 1
    return sep, insep

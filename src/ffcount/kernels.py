"""Enumeration kernels and the tables behind them.

Two hot loops dominate everything in this package:

  * counting coprime polynomial vectors of given height (the projective
    point oracle), and
  * counting binary quadratic coefficient triples by the square class of
    their discriminant (degree-2 points, forms, field matching).

Both run over integer polynomial codes (base-q coefficient vectors) with
all field work precomputed into tables here.

The vector count is a recursion over coordinates on states (running monic
gcd code, max degree reached).  The row gcd(g, .) of a state, from a
divisor sieve over the monic divisors of g, is counted by next state, and
the recursion descends once per distinct state, weighted by its count; at
the last coordinate it counts the 1s of the row.  States at equal
remaining length are shared through a memo dictionary, and a branch whose
gcd has reached 1 is completed in closed form.

For odd q, discriminant_classes walks the coprime triples once per
(q, m) and counts them by discriminant class (squarefree monic part,
whether the unit is a square); its callers pick the classes they need.
Characteristic 2 goes through a loop over polynomial triples instead,
which on odd q is the reference for the class counts; its Artin-Schreier
test is F_2-linear algebra (poly._artin_schreier_solvable).

One sieve gives squarefree parts: squarefree_kernel maps every monic code
up to a degree to the code of its squarefree monic part.  The
discriminant classes read it at degree 2m, and the quadratic-field
enumeration reads it for the squarefree D, together with the point counts
of y^2 = u*D(x) over F_{q^r} from the values D(x), built digit by digit as
the code-sum tables are.  These tables are built per call and not kept.
"""

import functools
from array import array
from collections import Counter

from . import poly
from .errors import RefusalError
from .gf import GF, constant_extension

# There is a single pure-Python lane; the benchmark harness still reads
# this flag to label its records.
USING_COMPILED = False

# discriminant_classes refuses above this many codes: its code-sum table is
# a Python list of ncodes^2 ints (about 100 MB at 2500 codes) and its walk
# over the triples grows like ncodes^3 / q.
DISCRIMINANT_TABLE_MAX_CODES = 2500


@functools.lru_cache(maxsize=8)
def vector_tables(q: int, m: int):
    """(ncodes, deg, gcd_row, monic_codes) for polynomials of degree <= m.

    deg[code] is the degree (-1 for zero); gcd_row(g) is the list of the
    monic gcd codes of the monic code g with every code in range(ncodes);
    monic_codes lists the codes of monic nonzero polynomials in increasing
    order.

    gcd_row is a divisor sieve.  The tables keep the nonzero multiples of
    each monic d of degree >= 1 and the monic divisors of each code,
    O(m * ncodes) entries in all.  A row starts as all 1s with row[0] = g,
    and each monic divisor d of g, in increasing degree, is written into
    d's multiples.  By unique factorisation the gcd is the highest-degree
    monic common divisor, so the last writer is the gcd.  Rows are built
    on each call, not kept.
    """
    K = GF(q)
    ncodes = q ** (m + 1)
    polys = [poly.from_code(q, code) for code in range(ncodes)]
    deg = array("i", (len(f) - 1 for f in polys))
    monic_codes = tuple(c for c, f in enumerate(polys) if f and f[-1] == 1)
    multiples = {}
    divisors = [[] for _ in range(ncodes)]
    for k in range(1, m + 1):
        cofactors = polys[1 : q ** (m - k + 1)]
        # monic polynomials of degree k have the codes q^k .. 2q^k - 1
        for d in range(q**k, 2 * q**k):
            multiples[d] = [poly.to_code(q, poly.mul(K, polys[d], h)) for h in cofactors]
            for x in multiples[d]:
                divisors[x].append(d)

    def gcd_row(g):
        row = [1] * ncodes
        row[0] = g
        for d in divisors[g]:
            for x in multiples[d]:
                row[x] = d
        return row

    return ncodes, deg, gcd_row, monic_codes


def squarefree_kernel(K, top):
    """array over the codes below q^(top+1): at each monic code f, the code
    of the squarefree monic part of f (poly.squarefree_part's s); 0 at
    the codes that are not monic.  f is squarefree iff kernel[f] == f.

    Every monic p^2 * c, for p monic irreducible of degree e <= top//2
    and c monic of degree <= top - 2e, first gets c as its witness.  Then,
    in increasing code order, kernel[f] = kernel[witness of f], or f itself
    where there is none: a witness is a lower code, already resolved, and
    p^2 * c has the squarefree part of c.
    """
    q = K.q
    kernel = array("i", [0]) * q ** (top + 1)
    for e in range(1, top // 2 + 1):
        cofactors = [c for k in range(top - 2 * e + 1) for c in poly.enumerate_monic(K, k)]
        for p in poly.monic_irreducibles(K, e):
            p2 = poly.mul(K, p, p)
            for c in cofactors:
                kernel[poly.to_code(q, poly.mul(K, p2, c))] = poly.to_code(q, c)
    # monic polynomials of degree k have the codes q^k .. 2q^k - 1
    for k in range(top + 1):
        for f in range(q**k, 2 * q**k):
            witness = kernel[f]
            kernel[f] = kernel[witness] if witness else f
    return kernel


def point_count_table(K, d, r):
    """List over the low-part codes of the monic D of degree d of the pairs
    (N_r(1), N_r(eps)), eps = K.non_square_unit(): the points of
    y^2 = u*D(x) over F_{q^r}, those at infinity included, as
    quadratic.curve_point_counts counts them.

    The low parts are evaluated at every x of F_{q^r} digit by digit, by
    Horner's rule low[code][x] = c0 + x * low[code // q][x] over the field
    tables, and D(x) = x^d + low[code][x].  A value v of u*D(x) gives 1
    point at 0, 2 at a nonzero square and none otherwise.
    """
    q = K.q
    Kr, emb = constant_extension(K, r)
    add, mul = Kr._add, Kr._mul
    low = [[0] * Kr.q]
    for code in range(1, q**d):
        row_c0 = add[emb[code % q]]
        low.append([row_c0[mx[v]] for mx, v in zip(mul, low[code // q])])
    values = Kr.elements()
    weight = [2 if Kr.is_square(v) else 0 for v in values]
    weight[0] = 1
    tables = []
    for u in (1, K.non_square_unit()):
        ur = emb[u]
        weight_u = [weight[v] for v in mul[ur]]
        # per x, the weight of u*(x^d + v) for every value v of the low part
        by_value = [[weight_u[v] for v in add[Kr.pow(x, d)]] for x in values]
        at_infinity = 1 if d % 2 else (2 if Kr.is_square(ur) else 0)
        tables.append([sum(map(list.__getitem__, by_value, row)) + at_infinity for row in low])
    return list(zip(*tables))


def count_completions(n_rest, m, q, ncodes, gcd_row, g, flag, memo):
    """Tuples (y_1..y_n_rest) of codes < ncodes with gcd(g, y_*) = 1 and
    maximal degree m reached (flag marks degree m already seen).

    gcd_row(g) lists the monic gcd codes of g with every code in
    range(ncodes), in order, so the codes of degree exactly m are its
    tail from q^m on.  The first coordinate y moves the state to
    (gcd(g, y), flag or deg y == m); the row is counted by that state, and
    each distinct state is completed once and weighted by its count.  At
    the last coordinate the count is the number of 1s in the row (in its
    tail unless flag is set).
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
    row = gcd_row(g)
    top = q**m
    if n_rest == 1:
        count = row.count(1) if flag else row[top:].count(1)
    else:
        count = 0
        for states, next_flag in ((Counter(row[top:]), True), (Counter(row[:top]), flag)):
            for gy, k in states.items():
                count += k * count_completions(
                    n_rest - 1, m, q, ncodes, gcd_row, gy, next_flag, memo
                )
    memo[key] = count
    return count


def count_coprime_lead(q, n, m, lead_pos, lead_code):
    """Normalized coprime vectors of height exactly m whose first nonzero
    coordinate sits at `lead_pos` (0-based) and equals the monic polynomial
    with code `lead_code`."""
    ncodes, deg, gcd_row, _ = vector_tables(q, m)
    return count_completions(
        n - lead_pos - 1, m, q, ncodes, gcd_row, lead_code, deg[lead_code] == m, {}
    )


def _code_sums(K, size):
    """Flat table t[x * size + y] = code of f_x + f_y for the codes x, y
    below size (a power of q), added coefficientwise in K."""
    q, add = K.q, K._add
    t = [0] * (size * size)
    for x in range(size):
        for y in range(size):
            t[x * size + y] = t[(x // q) * size + y // q] * q + add[x % q][y % q]
    return t


@functools.lru_cache(maxsize=8)
def discriminant_classes(q: int, m: int) -> Counter:
    """Counter {(s, unit_is_square): triples} over the normalized triples
    (a monic nonzero, b, c) with max degree exactly m and gcd 1 whose
    discriminant b^2 - 4ac is nonzero, keyed by its squarefree monic part
    s (poly.squarefree_part) and whether its unit is a square.  Odd q only;
    characteristic 2 goes through classify_triples_by_polys.  The cached
    Counter is shared by every caller, who must not change it.

    The discriminants are histogrammed by code; each code that occurs is
    split into its unit (the leading digit) and monic part, whose
    squarefree part is read from squarefree_kernel at degree 2m.  Nothing
    is factored.
    """
    if q % 2 == 0:
        raise ValueError("discriminant classes need odd q")
    if q ** (m + 1) > DISCRIMINANT_TABLE_MAX_CODES:
        raise RefusalError(f"degree {m} too large for the discriminant tables at q={q}")
    K = GF(q)
    ncodes, deg, gcd_row, monic_codes = vector_tables(q, m)
    # a code below q^(2m+1) splits as high * ncodes + low with high < q^m,
    # and codes add digitwise in K, so a sum is two lookups in these tables
    nhigh = q**m
    low_sums, high_sums = _code_sums(K, ncodes), _code_sums(K, nhigh)
    polys = [poly.from_code(q, code) for code in range(ncodes)]
    sq = [divmod(poly.to_code(q, poly.mul(K, f, f)), ncodes) for f in polys]
    minus4 = K.neg(4 % K.p)
    hist = [0] * (nhigh * ncodes)
    # every a needs its row, and every gcd(a, b) is a monic code too
    rows = {g: gcd_row(g) for g in monic_codes}
    for a in monic_codes:
        arow = rows[a]
        fa = poly.mul_scalar(K, polys[a], minus4)
        minus4ac = (poly.to_code(q, poly.mul(K, fa, f)) for f in polys)
        high4ac, low4ac = zip(*(divmod(code, ncodes) for code in minus4ac))
        for b in range(ncodes):
            grow = rows[arow[b]]
            hb, lb = sq[b][0] * nhigh, sq[b][1] * ncodes
            # the max degree must reach m through a, b or c
            cs = range(ncodes) if deg[a] == m or deg[b] == m else range(nhigh, ncodes)
            for c in cs:
                if grow[c] == 1:
                    hist[high_sums[hb + high4ac[c]] * ncodes + low_sums[lb + low4ac[c]]] += 1
    kernel = squarefree_kernel(K, 2 * m)
    classes = Counter()
    for code in range(1, len(hist)):
        if hist[code]:
            unit, f = poly.monic(K, poly.from_code(q, code))
            s = poly.from_code(q, kernel[poly.to_code(q, f)])
            classes[s, K.is_square(unit)] += hist[code]
    return classes


def irreducible_triple_counts(q, m):
    """(sep, insep): normalized triples (a monic, b, c) with gcd 1 and max
    degree exactly m whose quadratic a*Y^2 + b*Y + c is irreducible over
    F_q(T) and keeps the constant field, split into separable ones and the
    inseparable ones (characteristic 2 with b = 0).  For odd q these are
    the discriminant classes with deg s >= 1."""
    if q % 2:
        return sum(n for (s, _), n in discriminant_classes(q, m).items() if len(s) > 1), 0
    return classify_triples_by_polys(GF(q), m)


@functools.lru_cache(maxsize=8)
def classify_triples_by_polys(K, m):
    """irreducible_triple_counts by polynomial arithmetic on each triple,
    for any constant field K, over q^(3(m+1)) candidate triples, cached
    per (K, m).  Each coprime triple takes one
    poly.quadratic_stays_irreducible test.  At odd q a triple costs
    9-60 us, mostly factoring its discriminant once in
    poly.squarefree_part (0.7 s at q=3, m=2; 111 s at q=5, m=2).  In
    characteristic 2 the Artin-Schreier tests are linear algebra over F_2
    and a triple costs 4-27 us (1.0 s at q=8, m=1; 2.6 s at q=4, m=2;
    0.9 s at q=2, m=4).  It reads no squarefree_kernel, so at odd q it is
    a reference independent of discriminant_classes."""
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
                if not poly.quadratic_stays_irreducible(K, a, b, c):
                    continue
                if K.q % 2 == 0 and not b:
                    insep += 1
                else:
                    sep += 1
    return sep, insep

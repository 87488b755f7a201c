"""Enumeration kernels and the tables behind them.

Two counts drive everything in this package:

  * counting coprime polynomial vectors of given height (the projective
    point oracle), and
  * counting binary quadratic coefficient triples by the square class of
    their discriminant (degree-2 points, forms, field matching).

Both run over integer polynomial codes (base-q coefficient vectors) with
all field work precomputed into tables here.

Products of polynomials are never formed one pair at a time: multiples()
lists the codes of h*f for every cofactor h by shift and add, code(h*f) =
q * code((h // q)*f) added digitwise to code((h % q)*f), where digitwise
addition is XOR when p = 2 and split code-sum lookups otherwise.
factor_degrees, squarefree_kernel and discriminant_classes build their
multiples this way.

The vector count reads a sieve of factor degrees: factor_degrees lists,
at every monic g, the degrees of its distinct irreducible factors.  The
coprime completions of a lead g (the first nonzero coordinate, monic)
follow from them in closed form by inclusion-exclusion over the
squarefree divisors of g, and count_coprime_vectors sums that count over
the leads, grouped by degree data.  It reads no zeta function, so it
stays independent of the Moebius route: a fault in the arithmetic of
F_q[T] would have to get past the sieve to reach the count.

For odd q, discriminant_classes walks every triple once per (q, m), up to
the substitutions Y -> mu*Y + kappa, which keep the discriminant class,
and counts them by discriminant class (squarefree monic part, whether the
unit is a square); its callers pick the classes they need.  It reads no
gcd: the coprime triples of max degree m count as every triple of max
degree m less q times every one of max degree m - 1.  Characteristic 2
goes through a loop over polynomial triples instead, which on odd q is the
reference for the class counts; its Artin-Schreier test is F_2-linear
algebra (poly._artin_schreier_over_square).

One sieve gives squarefree parts: squarefree_kernel maps every monic code
up to a degree to the code of its squarefree monic part.  The
discriminant classes read it at degree 2m, and the quadratic-field
enumeration reads it for the squarefree D, together with the point counts
of y^2 = D(x) over F_{q^r}: one character sum over the values D(x) per
code, built digit by digit as the code-sum tables are.  Only the untwisted
counts are tabled; those of y^2 = eps*D(x) follow from them alone
(quadratic.twist_counts), eps entering only through chi_r(eps).  The sum runs
over one x per orbit of the Frobenius x -> x^q, weighted by the orbit's
size: D has coefficients in F_q, so D(x^q) = D(x)^q has the character of
D(x).  The extensions share their tables: F_{q^s} lies in F_{q^r} for
s | r, as the orbits whose size divides s, so the counts N_1..N_g of a
genus come from the tables of the r > g/2 alone, each s read off one of
them with the character of F_{q^s}.  The sums are built one orbit at a
time: the values D(x) of every code at one rep x, by Horner's rule over
the codes, then added into the sum of each F_{q^s} that holds x, so no
table of all the values at all the reps is ever held.  These tables are
built per call and not kept.
"""

import functools
import operator
from array import array
from collections import Counter
from itertools import compress, cycle
from types import MappingProxyType

from . import poly
from .errors import ConsistencyError, check_budget
from .gf import GF, constant_extension
from .poly import code_sums, each_repeated, scaled_codes

# There is a single pure-Python lane; the benchmark harness still reads
# this flag to label its records.
USING_COMPILED = False


def multiples(q, scaled, count, add, monic=False):
    """List over the codes h < count (a power of q, at least q) of the
    code of h*f, where scaled = scaled_codes(K, f); with monic, over the
    monic h < count only, in code order.

    Shift and add: the code h = q*(h // q) + h % q stands for
    T*h' + c, so h*f = T*(h'*f) + c*f, whose code is q * code(h'*f)
    added digitwise to code(c*f) = scaled[c].  add(x, y) is that digitwise
    sum (_code_adder), defined on the codes of h*f.  A monic h has a
    monic h // q.
    """
    out = scaled[1:2] if monic else scaled[:]
    block = out[:] if monic else out[1:]  # the h of the most digits so far
    size = q
    while size < count:
        # the next block of one more digit: every h' of the last block,
        # shifted, once with each digit c
        shifted = [q * x for x in block]
        block = list(map(add, each_repeated(shifted, q), cycle(scaled)))
        out += block
        size *= q
    return out


def _code_adder(K, size):
    """add(x, y), the code of f_x + f_y for the codes below size (a power
    of q), added digitwise in K.  When p = 2 a code is the bit vector of
    the coefficients over F_2 and add is XOR; otherwise the code splits
    into a high and a low part, each added by one code_sums lookup."""
    if K.p == 2:
        return operator.xor
    low, high = code_sum_split(K.q, size)
    return _split_add(code_sums(K, low), code_sums(K, high), low, high)


def code_sum_split(q, size):
    """(low, high): at odd q, _code_adder adds the codes below size through
    code_sums tables of low^2 and high^2 entries; low is the least power
    of q whose square is >= size, and high = size // low."""
    low = 1
    while low * low < size:
        low *= q
    return low, size // low


# The field enumeration at deg D <= top and the walk at height m = top/2
# build squarefree_kernel(K, top) and its code-sum tables, q^4 + q^2 entries
# at top = 2.  A code-sum entry costs 0.07-0.09 us, a third of a walk step
# (1.04e8 in 9 s and 814 MiB at q=101, top = 2), a kernel entry 0.03-0.25 us:
# the default budget admits top = 2 up to q=73 and top = 4 up to q=17.
TABLE_ENTRY_COST = 3


def check_table_budget(q, top, budget, what):
    """Refuse squarefree_kernel at top, or the code-sum tables of its
    addition at odd q, if TABLE_ENTRY_COST times its entries exceed budget."""
    low, high = code_sum_split(q, q ** (top + 1))
    for table, entries in (("squarefree-kernel", q ** (top + 1)), ("code-sum", low**2 + high**2)):
        check_budget(TABLE_ENTRY_COST * entries, budget,
                     f"{what} at cost {TABLE_ENTRY_COST} per {table} entry",
                     "weighted table entries")


def _split_add(low_sums, high_sums, low, high):
    """add(x, y) for the codes below high * low, from the code_sums tables
    of the low parts (below low) and of the high parts (below high)."""

    def add(x, y):
        xh, xl = divmod(x, low)
        yh, yl = divmod(y, low)
        return high_sums[xh * high + yh] * low + low_sums[xl * low + yl]

    return add


def squarefree_kernel(K, top, add=None):
    """array over the codes below q^(top+1): at each monic code f, the code
    of the squarefree monic part of f (poly.squarefree_part's s); 0 at
    the codes that are not monic.  f is squarefree iff kernel[f] == f.
    add is the digitwise sum of the codes below q^(top+1), built by
    _code_adder unless the caller has it.

    Every monic code starts as its own kernel.  For p monic irreducible of
    degree e <= top//2, by degree and then code, and c monic of degree
    <= top - 2e in code order, kernel[p^2 * c] = kernel[c], which is final
    by then: any other p'^2 | c came before p, and p^2 | c at the lower
    c/p^2.  The codes of the p^2 * c come from multiples() of p^2.
    """
    q = K.q
    kernel = array("i", [0]) * q ** (top + 1)
    # monic polynomials of degree k have the codes q^k .. 2q^k - 1
    for k in range(top + 1):
        kernel[q**k : 2 * q**k] = array("i", range(q**k, 2 * q**k))
    add = add or _code_adder(K, q ** (top + 1))
    for e in range(1, top // 2 + 1):
        for p in poly.monic_irreducibles(K, e):
            p2 = scaled_codes(K, poly.mul(K, p, p))
            mults = multiples(q, p2, q ** (top - 2 * e + 1), add, monic=True)
            cofactors = (c for k in range(top - 2 * e + 1) for c in range(q**k, 2 * q**k))
            for c, x in zip(cofactors, mults):
                kernel[x] = kernel[c]
    return kernel


def point_count_tables(K, d, r_max):
    """List over the low-part codes of the monic D of degree d of the
    tuples (N_1, ..., N_r_max) of y^2 = D(x), where N_r counts the points
    over F_{q^r}, those at infinity included, as
    quadratic.curve_point_counts counts them.

    With chi the quadratic character of F_{q^r} (chi(0) = 0), an affine x
    gives 1 + chi(D(x)) points, and infinity gives 1 for odd d and 2 for
    even d, so N_r = q^r + 1 + S + [d even] with one character sum
    S = sum over x of chi(D(x)) per code (_orbit_sums).  The twist
    y^2 = eps*D(x) is quadratic.twist_counts of these.

    F_{q^s} lies in F_{q^r} for every s | r, so only the r > r_max // 2,
    which divide no larger r' <= r_max, get a table, and each s is read
    off the largest of them that it divides.
    """
    q = K.q
    if r_max == 0:
        return [()] * q**d
    sums = {}
    for r in range(r_max, r_max // 2, -1):
        subs = [s for s in range(1, r + 1) if r % s == 0 and s not in sums]
        sums.update(zip(subs, _orbit_sums(K, d, r, subs)))
    # infinity's [d even] enters as S does
    return list(zip(*(map((q**s + 2 - d % 2).__add__, sums[s]) for s in range(1, r_max + 1))))


def _frobenius_orbits(Kr, q):
    """(reps, sizes): the least element of each orbit of x -> x^q in Kr
    and the orbit's size, ordered by size, then by rep."""
    frob = [Kr.pow(x, q) for x in Kr.elements()]
    seen = bytearray(Kr.q)
    orbits = []
    for x in Kr.elements():
        size, y = 0, x
        while not seen[y]:
            seen[y] = 1
            size, y = size + 1, frob[y]
        if size:
            orbits.append((size, x))
    orbits.sort()
    return [x for _, x in orbits], [size for size, _ in orbits]


def _orbit_sums(K, d, r, subs):
    """For each s in subs, all dividing r, the list over the low-part codes
    of the monic D of degree d of S_s = sum over x in F_{q^s} of
    chi_s(D(x)), chi_s the quadratic character of F_{q^s}, chi_s(0) = 0.

    D has coefficients in F_q, so chi_s(D(x^q)) = chi_s(D(x)^q) =
    chi_s(D(x)): S_s sums over one x per orbit of x -> x^q, weighted by
    the orbit's size, and F_{q^s} is the union of the orbits in F_{q^r}
    whose size divides s.  chi_s on F_{q^s} is y -> y^((q^s - 1) / 2),
    not chi_r, whose restriction is chi_s^(r/s), trivial when r/s is even.

    The sums are built one orbit rep x at a time over every code.  The
    low parts at x come from Horner's rule low[q*parent + c0] = c0 +
    x * low[parent] through the tables step[c0][v] = c0 + x*v: a level
    holds the values at x of the codes below q^k, and the next one is
    every q-th entry from c0, one map of step[c0] over them per digit.
    D(x) = x^d + low[code], so for each s whose field holds x the table
    v -> size * chi_s(x^d + v) maps the q^d values to their terms, which
    are added into the sums of F_{q^s}.
    """
    q = K.q
    Kr, emb = constant_extension(K, r)
    add, mul = Kr._add, Kr._mul
    plus = [add[emb[c0]] for c0 in range(q)]  # plus[c0][v] = c0 + v
    chis = []
    for s in subs:
        half = (q**s - 1) // 2
        chis.append([0] + [1 if Kr.pow(v, half) == 1 else -1 for v in range(1, Kr.q)])
    sums = [[0] * q**d for _ in subs]
    for x, size in zip(*_frobenius_orbits(Kr, q)):
        step = [list(map(row.__getitem__, mul[x])) for row in plus]
        values = [0]  # the low part of the one code below q^0
        for _ in range(d):
            parents, values = values, [0] * (q * len(values))
            for c0, row in enumerate(step):
                values[c0::q] = map(row.__getitem__, parents)
        shifted = add[Kr.pow(x, d)]  # shifted[v] = x^d + v
        for i, (chi, s) in enumerate(zip(chis, subs)):
            if s % size == 0:  # x lies in F_{q^s}
                weighted = [size * chi[v] for v in shifted]
                sums[i] = list(map(operator.add, sums[i], map(weighted.__getitem__, values)))
    return sums


def factor_degrees(q, m):
    """List over the codes below q^(m+1): at each monic code g, the
    increasing tuple of the degrees of the distinct monic irreducible
    factors of g; () at every other code, and at g = 1.

    Degree by degree, a monic d of degree e whose entry is still empty is
    irreducible, since a factor of lower degree would have marked it, and
    e is appended at every monic multiple of d, listed by multiples()."""
    K = GF(q)
    ncodes = q ** (m + 1)
    add = _code_adder(K, ncodes)
    degrees = [()] * ncodes
    for e in range(1, m + 1):
        # monic polynomials of degree e have the codes q^e .. 2q^e - 1
        for d in range(q**e, 2 * q**e):
            if not degrees[d]:
                scaled = scaled_codes(K, poly.from_code(q, d))
                for x in multiples(q, scaled, q ** (m - e + 1), add, monic=True):
                    degrees[x] += (e,)
    return degrees


def count_coprime_vectors(q, n, m):
    """Normalized coprime vectors of n codes below q^(m+1) with height
    exactly m.  The first nonzero coordinate, at some position with r
    coordinates after it, is a monic g whose distinct irreducible factors
    have the degrees e_i (factor_degrees), E = sum e_i.  By
    inclusion-exclusion over the squarefree d | g, the r-tuples y with
    gcd(g, y_*) = 1 number sum mu(d) * q^(r(m+1-deg d)) =
    q^(r(m+1-E)) * prod (q^(r e_i) - 1), and those of height exactly m
    with it q^(r(m-E)) * (q^r - [deg g < m]) * prod (q^(r e_i) - 1).  The
    leads are grouped by (deg g == m, degrees)."""
    degrees, top = factor_degrees(q, m), q**m
    # monic polynomials of degree k have the codes q^k .. 2q^k - 1
    leads = Counter((g >= top, degrees[g]) for k in range(m + 1) for g in range(q**k, 2 * q**k))
    total = 0
    for r in range(n):
        for (full, es), count in leads.items():
            term = count * q ** (r * (m - sum(es))) * (q**r - (not full))
            for e in es:
                term *= q ** (r * e) - 1
            total += term
    return total


@functools.lru_cache(maxsize=8)
def discriminant_classes(q: int, m: int) -> MappingProxyType:
    """Counter {(s, unit_is_square): triples} over the normalized triples
    (a monic nonzero, b, c) with max degree exactly m and gcd 1 whose
    discriminant b^2 - 4ac is nonzero, keyed by its squarefree monic part
    s (poly.squarefree_part) and whether its unit is a square.  Odd q only;
    characteristic 2 goes through classify_triples_by_polys.  The cached
    Counter is shared by every caller, so it is returned read-only, as a
    MappingProxyType, through which a missing key still reads 0.

    The substitutions Y -> mu*Y + kappa (mu a unit, kappa a constant) send
    (a, b, c) to (a, (b + 2 kappa a)/mu, (c + kappa b + kappa^2 a)/mu^2),
    and keep a, the gcd, the max degree and the square class of the
    discriminant, which is multiplied by mu^-2.  kappa moves the
    coefficient of b at T^(deg a) freely, and then mu makes b monic unless
    b = 0.  So discriminant_histogram walks two kinds of b only: b = 0,
    weighted q, and monic b whose coefficient at T^(deg a) is 0, weighted
    q(q-1).

    Each discriminant code that occurs is classified by table, one unit u
    (its leading digit) at a time: the code u*q^k + low has the monic part
    q^k + code(u^-1 * low), read from a digitwise scaling table, whose
    squarefree part squarefree_kernel at degree 2m gives.  The counts are
    collected by kernel code, and each distinct s becomes a polynomial
    once; a class below 0 raises ConsistencyError.  Nothing is factored,
    and no budget is checked: the callers run
    counting.check_walk_budget, which prices the steps and the tables.
    """
    hist, kernel = discriminant_histogram(q, m, reduced=True)
    K = GF(q)
    # by_kernel[square][s]: triples whose discriminant has the squarefree
    # monic part of code s and a square unit or not
    by_kernel = [array("q", bytes(8 * len(hist))) for _ in range(2)]
    for u in range(1, q):
        # the codes of u^-1 * f for the f below q^(2m); codes of constant
        # multiples add without carries, so digitwise addition is +
        scale = multiples(q, K._mul[K.inv(u)], q ** (2 * m), operator.add)
        counts = by_kernel[K.is_square(u)]
        size = 1  # q^k
        for k in range(2 * m + 1):
            start = u * size
            for low, n in enumerate(hist[start : start + size]):
                if n:
                    counts[kernel[size + scale[low]]] += n
            size *= q
    if min(map(min, by_kernel)) < 0:
        raise ConsistencyError(f"a discriminant class counts fewer than 0 triples at q={q} m={m}")
    classes = Counter()
    for s in compress(range(len(hist)), map(operator.or_, *by_kernel)):
        f = poly.from_code(q, s)  # one tuple for both unit classes
        for square, counts in zip((False, True), by_kernel):
            if counts[s]:
                classes[f, square] = counts[s]
    return MappingProxyType(classes)


def discriminant_histogram(q, m, reduced):
    """(hist, kernel): hist[code] counts the normalized coprime triples of
    max degree exactly m (as in discriminant_classes) by the code of their
    discriminant b^2 - 4ac, below q^(2m+1), exactly only in the sum over a
    class; kernel is squarefree_kernel(K, 2m), built on the same code-sum
    tables.  With reduced, only the b of the reduced walk are met, each
    weighted by the size of its orbit (discriminant_classes); otherwise
    every b, weighted 1.

    A triple is g times a coprime one of max degree m - k, g its monic gcd,
    one of q^k of degree k, and g^2 keeps the discriminant class: so hist
    is the walk of every triple of max degree m less q times the walk at
    m - 1, both on the tables built for m.  The rows -4a*c and the squares
    b^2 come from multiples() by shift and add.
    """
    if q % 2 == 0:
        raise ValueError("discriminant classes need odd q")
    K = GF(q)
    # a code below q^(2m+1) is high * ncodes + low, as check_table_budget
    # prices it; codes add digitwise in K, so a sum is two lookups in these tables
    ncodes, nhigh = code_sum_split(q, q ** (2 * m + 1))
    low_sums, high_sums = code_sums(K, ncodes), code_sums(K, nhigh)
    add = _split_add(low_sums, high_sums, ncodes, nhigh)
    # b = T*b1 + c has b^2 = T^2*b1^2 + T*(2c*b1) + c^2, and 2c*b1 is a
    # multiple of the constant 2c
    twice = [multiples(q, scaled_codes(K, poly.constant(K.add(c, c))), ncodes, add)
             for c in range(q)]
    sq = [0] * ncodes
    for b in range(1, ncodes):
        b1, c = divmod(b, q)
        sq[b] = add(add(q * q * sq[b1], q * twice[c][b1]), K.mul(c, c))
    # b^2 as the offsets of its rows in the two sum tables; the high sums
    # are scaled by ncodes, so b^2 + x has the code hrow[x_high] + lrow[x_low]
    sq = [(high * nhigh, low * ncodes) for high, low in (divmod(code, ncodes) for code in sq)]
    high_sums = list(map([high * ncodes for high in range(nhigh)].__getitem__, high_sums))
    zero_weight, weight = (q, q * (q - 1)) if reduced else (1, 1)
    minus4 = K.neg(4 % K.p)

    def walk(h):  # every normalized triple of max degree h, weighted, by code
        top, size = q**h, q ** (h + 1)
        # b = 0 is counted apart, and weighted at the end: each step adds 1,
        # and most counts stay small ints, which need no allocation
        hist, hist0 = [0] * q ** (2 * h + 1), [0] * q ** (2 * h + 1)
        for k in range(h + 1):
            walked = _reduced_b(q, h, k) if reduced else range(size)
            # monic polynomials of degree k have the codes q^k .. 2q^k - 1
            for a in range(q**k, 2 * q**k):
                a_poly = poly.mul_scalar(K, poly.from_code(q, a), minus4)
                every = tuple(zip(*(divmod(code, ncodes)
                                    for code in multiples(q, scaled_codes(K, a_poly), size, add))))
                deg_h = tuple(column[top:] for column in every)
                for b in walked:
                    counts = hist if b else hist0
                    hb, lb = sq[b]
                    hrow, lrow = high_sums[hb : hb + nhigh], low_sums[lb : lb + ncodes]
                    # the max degree must reach h through a, b or c
                    for x, y in zip(*(every if k == h or b >= top else deg_h)):
                        counts[hrow[x] + lrow[y]] += 1
        return list(map(operator.add, map(weight.__mul__, hist), map(zero_weight.__mul__, hist0)))

    hist, lower = walk(m), walk(m - 1) if m else []
    hist[: len(lower)] = map(operator.sub, hist, map(q.__mul__, lower))
    return hist, squarefree_kernel(K, 2 * m, add)


def _reduced_b(q, h, k):
    """The b of the reduced walk below q^(h+1) for a of degree k, in
    increasing order: b = 0, and the monic b whose coefficient at T^k is 0."""
    return [0] + [b for e in range(h + 1) for b in range(q**e, 2 * q**e) if b // q**k % q == 0]


def walk_steps(q, m):
    """The steps of the reduced walks at h = m and h = m - 1 of
    discriminant_histogram, one per (a, b, c) met, counted without listing
    any b.  For a of degree k (q^k of them) the walked b are 0, the q^e
    monic b of each degree e < k and the q^(e-1) of each degree k < e <= h
    (_reduced_b); each b meets the q^(h+1) codes c if k = h or deg b = h,
    and the q^(h+1) - q^h of degree h otherwise."""
    steps = 0
    for h in range(max(m - 1, 0), m + 1):
        for k in range(h + 1):
            walked = 1 + sum(q**e for e in range(k)) + sum(q ** (e - 1) for e in range(k + 1, h + 1))
            full = walked if k == h else q ** (h - 1)  # the b that meet every c
            steps += q**k * (full * q ** (h + 1) + (walked - full) * (q ** (h + 1) - q**h))
    return steps


def coprime_triples(K, m):
    """The normalized triples (a monic, b, c) over K with gcd 1 and max
    degree exactly m, in code order, by polynomial arithmetic: the gcd of
    (a, b) is taken once per pair, and that of it and c only when it is
    not 1."""
    polys = list(poly.enumerate_polys(K, m))
    top = [f for f in polys if len(f) == m + 1]  # degree exactly m
    for a in polys:
        if not a or a[-1] != 1:
            continue
        for b in polys:
            g = poly.gcd(K, a, b) if b else a
            for c in polys if m + 1 in (len(a), len(b)) else top:
                if g == poly.ONE or (c and poly.gcd(K, g, c) == poly.ONE):
                    yield a, b, c


@functools.lru_cache(maxsize=8)
def classify_triples_by_polys(K, m):
    """(sep, insep): normalized triples (a monic, b, c) with gcd 1 and max
    degree exactly m whose quadratic a*Y^2 + b*Y + c is irreducible over
    F_q(T) and keeps the constant field, split into separable ones and the
    inseparable ones (characteristic 2 with b = 0), by polynomial
    arithmetic on each triple, for any constant field K, over q^(3(m+1))
    candidate triples, cached per (K, m).  Each coprime triple takes one
    poly.quadratic_stays_irreducible test.  At odd q a triple costs
    9-60 us, mostly factoring its discriminant once in
    poly.squarefree_part (0.7 s at q=3, m=2; 111 s at q=5, m=2).  In
    characteristic 2 the Artin-Schreier tests are linear algebra over F_2
    and a triple costs 4-27 us (1.0 s at q=8, m=1; 2.6 s at q=4, m=2;
    0.9 s at q=2, m=4).  It reads no squarefree_kernel, so at odd q, where
    sep counts the discriminant classes with deg s >= 1, it is a reference
    independent of discriminant_classes."""
    sep = insep = 0
    for a, b, c in coprime_triples(K, m):
        if poly.quadratic_stays_irreducible(K, a, b, c):
            if K.q % 2 == 0 and not b:
                insep += 1
            else:
                sep += 1
    return sep, insep

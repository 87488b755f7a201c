"""Invariant battery behind `ffcount verify`.

Each check returns (detail, ok) with ok True or False, and run_suite
reports (name, ok, detail) for each; a check that raises is reported as
failed, with the exception in its detail.  The battery covers the exact
identities every module must satisfy; the full acceptance runs live in the
test suite.  The naive recounts the checks compare against (the full
discriminant walk, the discriminant classes by definition, the walk's
steps over its loops, the unnormalized coprime vectors, the same-field
test, the Artin-Schreier scan and the divisor enumeration) live here too,
off the command path.
"""

import itertools
import random
from collections import Counter

from . import counting, forms, kernels, poly, quadratic, riemann_roch, zeta
from .errors import ConsistencyError
from .gf import GF
from .places import (
    INFINITY,
    Divisor,
    Place,
    RationalFunction,
    divisor_of_vector,
    enumerate_places,
    genus0_section_basis,
    height_relative,
    section_space_contains,
    vector_to_coprime_polys,
)


def _field_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9):
        K = GF(q)
        els = list(K.elements())
        for a in els:
            for b in els:
                if K.add(a, b) != K.add(b, a) or K.mul(a, b) != K.mul(b, a):
                    return f"commutativity fails in F_{q}", False
                for c in els:
                    if K.add(K.add(a, b), c) != K.add(a, K.add(b, c)):
                        return f"associativity (+) fails in F_{q}", False
                    if K.mul(K.mul(a, b), c) != K.mul(a, K.mul(b, c)):
                        return f"associativity (*) fails in F_{q}", False
                    if K.mul(a, K.add(b, c)) != K.add(K.mul(a, b), K.mul(a, c)):
                        return f"distributivity fails in F_{q}", False
        for a in K.units():
            if K.mul(a, K.inv(a)) != 1:
                return f"inverse fails in F_{q}", False
    return "field axioms exhaustive for q <= 9", True


def _gcd_properties():
    for q in (2, 3):
        K = GF(q)
        polys = [f for f in poly.enumerate_polys(K, 3)]
        for f, g in itertools.product(polys, repeat=2):
            if not f and not g:
                continue
            d = poly.gcd(K, f, g)
            if f and poly.rem(K, f, d):
                return f"gcd does not divide f over F_{q}", False
            if g and poly.rem(K, g, d):
                return f"gcd does not divide g over F_{q}", False
    return "gcd divides both arguments, deg <= 3, q in {2,3}", True


def _cell_names(cells, var):
    return "; ".join(f"q={q} {var}<={top}" for q, top in cells)


# (q, largest m) of the exhaustive factor-sieve checks: at q = 2, 4 and 8
# codes add by XOR, and q = 9 is odd and not prime
FACTOR_SIEVE_CELLS = ((2, 5), (3, 3), (4, 2), (8, 1), (9, 1))


def _factor_degrees(cells=FACTOR_SIEVE_CELLS):
    for q, m_max in cells:
        K = GF(q)
        for m in range(m_max + 1):
            ncodes = q ** (m + 1)
            add = kernels._code_adder(K, ncodes)
            polys = [poly.from_code(q, code) for code in range(ncodes)]
            # shift and add from every nonzero f, against the products
            for f in range(1, ncodes):
                count = q ** (m - poly.deg(polys[f]) + 1)
                products = [poly.to_code(q, poly.mul(K, h, polys[f])) for h in polys[:count]]
                if kernels.multiples(q, poly.scaled_codes(K, polys[f]), count, add) != products:
                    return f"shift-and-add multiples of {f} wrong at q={q} m={m}", False
            # the degrees of the distinct irreducible factors of every monic
            # code, against trial division; () at every other code
            degrees = kernels.factor_degrees(q, m)
            for g, f in enumerate(polys):
                expect = ()
                if f and f[-1] == 1:
                    expect = tuple(sorted(poly.deg(p) for p in poly.factor(K, f)[1]))
                if degrees[g] != expect:
                    return f"factor degrees of {g} wrong at q={q} m={m}", False
    return (f"shift-and-add multiples equal products, and the factor degrees of "
            f"the sieve equal trial division ({_cell_names(cells, 'm')})"), True


# (q, largest deg D) of the exhaustive field-table checks
FIELD_TABLE_CELLS = ((3, 6), (5, 4), (7, 3), (9, 3))


# (q, top = 2m) of the discriminant_classes cells the tests and the
# benchmark run, q=3 and q=5 up to m=2, q=7 and q=9 at m=1; (5, 4) is a
# field-table cell already
DISCRIMINANT_KERNEL_CELLS = ((3, 4), (7, 2), (9, 2))


def _squarefree_sieve(cells=FIELD_TABLE_CELLS + DISCRIMINANT_KERNEL_CELLS):
    for q, top in cells:
        K = GF(q)
        kernel = kernels.squarefree_kernel(K, top)
        for d in range(top + 1):
            for f in poly.enumerate_monic(K, d):
                s = poly.to_code(q, poly.squarefree_part(K, f)[1])
                if kernel[poly.to_code(q, f)] != s:
                    return f"squarefree kernel wrong at q={q} f={poly.format_poly(f)}", False
    return (f"squarefree kernel equals the factoring squarefree part on every monic code "
            f"({_cell_names(cells, 'deg')})"), True


def discriminant_classes_by_full_walk(q, m):
    """kernels.discriminant_classes without its reduction up to
    Y -> mu*Y + kappa: every b of every normalized coprime triple, each
    triple counted once, and each discriminant code split into its unit
    and monic part by polynomial arithmetic.  The reference for the
    reduced walk and its table-driven classification."""
    K = GF(q)
    hist, kernel = kernels.discriminant_histogram(q, m, reduced=False)
    classes = Counter()
    for code in range(1, len(hist)):  # code 0 is the zero discriminant
        if hist[code]:
            unit, f = poly.monic(K, poly.from_code(q, code))
            s = poly.from_code(q, kernel[poly.to_code(q, f)])
            classes[s, K.is_square(unit)] += hist[code]
    return classes


# (q, largest m) of the discriminant-class cells whose reduced walk is
# compared with the full walk; q = 9, 25 and 27 are not prime
DISCRIMINANT_REDUCTION_CELLS = ((3, 3), (5, 2), (7, 1), (9, 1), (25, 0), (27, 0))


def _discriminant_reduction(cells=DISCRIMINANT_REDUCTION_CELLS, deep=()):
    for q, m_max in cells + deep:
        for m in range(m_max + 1):
            if kernels.discriminant_classes(q, m) != discriminant_classes_by_full_walk(q, m):
                return f"reduced discriminant walk wrong at q={q} m={m}", False
    return (f"reduced discriminant walk equals the full walk "
            f"({_cell_names(cells + deep, 'm')})"), True


def discriminant_classes_by_definition(q, m):
    """kernels.discriminant_classes with no Moebius step and no table, by
    polynomial arithmetic on every coprime triple."""
    K = GF(q)
    classes = Counter()
    for a, b, c in kernels.coprime_triples(K, m):
        disc = poly.sub(K, poly.mul(K, b, b), poly.mul_scalar(K, poly.mul(K, a, c), 4 % K.p))
        if disc:
            unit, s, _ = poly.squarefree_part(K, disc)
            classes[s, K.is_square(unit)] += 1
    return classes


def _discriminant_definition(cells=((3, 2), (5, 1)), deep=()):
    for q, m_max in cells + deep:
        for m in range(m_max + 1):
            if kernels.discriminant_classes(q, m) != discriminant_classes_by_definition(q, m):
                return f"discriminant classes differ from their definition at q={q} m={m}", False
    return f"discriminant classes equal their definition ({_cell_names(cells + deep, 'm')})", True


def walk_steps_by_loops(q, m):
    """kernels.walk_steps counted over the loops of the reduced walks at
    h = m and m - 1 of kernels.discriminant_histogram: every monic a of
    degree k <= h, the b of kernels._reduced_b, and every c below
    q^(h+1), or only those of degree h when neither a nor b reaches it."""
    steps = 0
    for h in range(max(m - 1, 0), m + 1):
        top, size = q**h, q ** (h + 1)
        for k in range(h + 1):
            for b in kernels._reduced_b(q, h, k):
                steps += q**k * (size if k == h or b >= top else size - top)
    return steps


# (q, m) of the walk-price check: every m of the walk at q=3 up to 3, and
# the walks at q=5, 7 and 9 that the tests and the benchmark run
WALK_STEP_CELLS = ((3, 0), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (9, 1))


def _walk_steps(cells=WALK_STEP_CELLS):
    for q, m in cells:
        price, loops = kernels.walk_steps(q, m), walk_steps_by_loops(q, m)
        if price != loops:
            return f"walk price {price} at q={q} m={m}, but its loops take {loops} steps", False
    return ("the walk's price equals the steps of its loops ("
            + "; ".join(f"q={q} m={m}" for q, m in cells) + ")"), True


def artin_schreier_by_scan(K, w_num, w_den) -> bool:
    """Whether z^2 + z = w_num/w_den has a solution z in F_Q(T), char 2,
    by scanning every candidate numerator: the reference for
    poly._artin_schreier_over_square.

    Any solution has pole divisor exactly half of w's (so all pole
    multiplicities of w, from a full factorization, must be even,
    including at infinity), which pins the denominator of z and bounds its
    numerator degree.
    """
    if not w_num:
        return True  # z = 0
    g = poly.gcd(K, w_num, w_den)
    if g != poly.ONE:
        w_num = poly.exact_div(K, w_num, g)
        w_den = poly.exact_div(K, w_den, g)
    u, w_den = poly.monic(K, w_den)
    w_num = poly.mul_scalar(K, w_num, K.inv(u))
    _, fac = poly.factor(K, w_den) if poly.deg(w_den) >= 1 else (1, {})
    dz = poly.ONE
    for p, m in fac.items():
        if m % 2:
            return False
        dz = poly.mul(K, dz, poly.pow_(K, p, m // 2))
    ord_inf = poly.deg(w_den) - poly.deg(w_num)  # infinity = order in 1/T
    if ord_inf < 0:
        if ord_inf % 2:
            return False
        num_bound = poly.deg(dz) - ord_inf // 2
    else:
        num_bound = poly.deg(dz)
    # (nz^2 + nz*dz) * w_den == w_num * dz^2 over all candidates
    rhs = poly.mul(K, w_num, poly.mul(K, dz, dz))
    for nz in poly.enumerate_polys(K, num_bound):
        lhs = poly.mul(K, poly.add(K, poly.mul(K, nz, nz), poly.mul(K, nz, dz)), w_den)
        if lhs == rhs:
            return True
    return False


# (Q, largest degree of w_num and w_den) of the exhaustive Artin-Schreier check
ARTIN_SCHREIER_CELLS = ((2, 4), (4, 2), (16, 1))


def _artin_schreier(cells=ARTIN_SCHREIER_CELLS):
    pairs = solvable = 0
    for Q, top in cells:
        K = GF(Q)
        polys = list(poly.enumerate_polys(K, top))
        for w_den in polys:
            if not w_den or w_den[-1] != 1:
                continue
            for w_num in polys:
                if w_num and poly.gcd(K, w_num, w_den) != poly.ONE:
                    continue
                # w = (w_num*w_den)/w_den^2
                fast = poly._artin_schreier_over_square(K, poly.mul(K, w_num, w_den), w_den)
                if fast != artin_schreier_by_scan(K, w_num, w_den):
                    return (f"Artin-Schreier test wrong over F_{Q} at "
                            f"({poly.format_poly(w_num)})/({poly.format_poly(w_den)})"), False
                pairs += 1
                solvable += fast
    return (f"echelon Artin-Schreier test equals the exhaustive scan on {pairs} reduced "
            f"w = w_num/w_den, {solvable} solvable ({_cell_names(cells, 'deg')})"), True


def _point_count_table(cells=FIELD_TABLE_CELLS, deep=()):
    for q, d_max in cells + deep:
        K = GF(q)
        eps = K.non_square_unit()
        for d in range(1, d_max + 1):
            # r up to the genus, and r = 1 at genus 0 too
            r_max = max((d - 1) // 2, 1)
            tables = kernels.point_count_tables(K, d, r_max)
            for code, D in enumerate(poly.enumerate_monic(K, d)):
                for u, table in zip((1, eps), tables):
                    counts = table[code]
                    if counts != quadratic.curve_point_counts(K, u, D, r_max):
                        return (f"point-count tables wrong at q={q} D={poly.format_poly(D)} "
                                f"u={u}: {counts}"), False
    return (f"point-count tables equal curve_point_counts on every monic D "
            f"({_cell_names(cells + deep, 'deg D')})"), True


def _irreducible_counts():
    for q, d_max in ((2, 8), (3, 5), (4, 3), (5, 3), (9, 2)):
        K = GF(q)
        for d in range(1, d_max + 1):
            found = sum(poly.is_irreducible(K, f) for f in poly.enumerate_monic(K, d))
            if found != poly.count_monic_irreducibles(q, d):
                return f"{found} monic irreducibles of degree {d} over F_{q}", False
    return "trial division finds the necklace count of monic irreducibles", True


def _enumeration_cardinality():
    for q, m in ((2, 4), (3, 2), (5, 1)):
        K = GF(q)
        seen = set(poly.enumerate_polys(K, m))
        if len(seen) != q ** (m + 1):
            return f"enumerate_polys q={q} m={m} cardinality wrong", False
    return "enumerate_polys emits q^(m+1) distinct polynomials", True


def _squarefree_reexpansion():
    for q in (2, 3):
        K = GF(q)
        for f in poly.enumerate_polys(K, 5):
            if not f:
                continue
            unit, s, h = poly.squarefree_part(K, f)
            back = poly.mul_scalar(K, poly.mul(K, s, poly.mul(K, h, h)), unit)
            if back != f:
                return f"re-expansion fails for {f} over F_{q}", False
        # p-th powers (derivative identically zero) must still split correctly
        tp = tuple([0] * K.p + [1])
        _, s, h = poly.squarefree_part(K, tp)
        expect_s = poly.ONE if K.p % 2 == 0 else (0, 1)
        if s != expect_s or h != tuple([0] * (K.p // 2) + [1]):
            return f"T^{K.p} over F_{K.p} misclassified", False
    return "squarefree part re-expands exactly, deg <= 5, q in {2,3}", True


def _principal_divisor_degree():
    rng = random.Random(11)
    K = GF(3)
    pool = [f for f in poly.enumerate_polys(K, 3) if f]
    for _ in range(40):
        fn = RationalFunction(K, rng.choice(pool), rng.choice(pool))
        if fn.is_zero():
            continue
        d = divisor_of_vector(K, [fn])
        if d.degree() != 0:
            return f"principal divisor of {fn} has degree {d.degree()}", False
    return "principal divisors have degree 0 (random sample)", True


def _height_two_ways():
    for q in (2, 3):
        K = GF(q)
        pool = list(poly.enumerate_polys(K, 2))
        for vec in itertools.product(pool, repeat=2):
            if all(not f for f in vec):
                continue
            h1 = height_relative(K, [RationalFunction(K, f) for f in vec])
            rep = vector_to_coprime_polys(K, [RationalFunction(K, f) for f in vec])
            h2 = max(poly.deg(f) for f in rep)
            if h1 != h2:
                return f"height mismatch at {vec} over F_{q}", False
    return "divisor height equals coprime max degree (exhaustive small)", True


def _sequence_identities():
    descs = [
        zeta.CurveDescriptor.rational(2),
        zeta.CurveDescriptor.rational(3),
        zeta.CurveDescriptor(3, 1, (1, 0, 3)),
        zeta.CurveDescriptor(3, 1, (1, 2, 3)),
        zeta.CurveDescriptor(2, 2, (1, 1, 2, 2, 4)),
    ]
    for desc in descs:
        a = zeta.divisor_counts(desc, 12)
        b = zeta.moebius_sums(desc, 12)
        for l in range(13):
            conv = sum(a[i] * b[l - i] for i in range(l + 1))
            if conv != (1 if l == 0 else 0):
                return f"convolution fails at l={l} for {desc}", False
        for m in range(2 * desc.g - 1 if desc.g else 0, 13):
            if m < 0:
                continue
            if a[m] != zeta.closed_form_divisor_count(desc, m):
                return f"closed form fails at m={m} for {desc}", False
    return "a*b convolution and closed-form window, l <= 12", True


def count_divisors_by_enumeration(q, l_max):
    """(a, b) sequences from explicit multisets of places: an effective
    divisor of degree l is a choice of multiplicity per place; its Moebius
    value is 0 with any repeat, else (-1)^(number of places)."""
    K = GF(q)
    degrees = [p.degree for d in range(1, l_max + 1) for p in enumerate_places(K, d)]
    a = [0] * (l_max + 1)
    b = [0] * (l_max + 1)
    for l in range(l_max + 1):
        total = 0
        msum = 0

        def choose(idx, remaining, nplaces, squarefree):
            nonlocal total, msum
            if remaining == 0:
                total += 1
                if squarefree:
                    msum += (-1) ** nplaces
                return
            if idx == len(degrees):
                return
            dp = degrees[idx]
            k = 0
            while k * dp <= remaining:
                choose(idx + 1, remaining - k * dp, nplaces + (1 if k else 0),
                       squarefree and k <= 1)
                k += 1

        choose(0, l, 0, True)
        a[l] = total
        b[l] = msum
    return a, b


def _sequences_vs_enumeration():
    for q in (2, 3):
        desc = zeta.CurveDescriptor.rational(q)
        a = zeta.divisor_counts(desc, 4)
        b = zeta.moebius_sums(desc, 4)
        a_enum, b_enum = count_divisors_by_enumeration(q, 4)
        if a_enum != a:
            return f"a(l) enumeration mismatch at q={q}: {a_enum} vs {a}", False
        if b_enum != b:
            return f"b(l) enumeration mismatch at q={q}: {b_enum} vs {b}", False
    return "a(l), b(l) match direct divisor enumeration, l <= 4, q in {2,3}", True


def _euler_product_small():
    for q, s, D in ((2, 2, 10), (3, 2, 7), (2, 3, 8)):
        prod = zeta.euler_product_truncation(q, s, D)
        closed = zeta.zeta_value(zeta.CurveDescriptor.rational(q), s)
        gap = closed - prod
        if not (0 < gap <= zeta.euler_truncation_bound(q, s, D)):
            return f"Euler gap outside certificate at q={q} s={s} D={D}", False
        if gap < zeta.euler_gap_lower_bound(q, s, D):
            return f"Euler gap below lower bound at q={q} s={s} D={D}", False
    return "Euler product enclosed by its certificates (small D)", True


def _class_model_identities():
    models = [riemann_roch.build_class_model(zeta.CurveDescriptor.rational(q)) for q in (2, 3)]
    for f in quadratic.enumerate_quadratic_fields(3, 4):
        models.append(riemann_roch.build_class_model(f.descriptor))
    for model in models:
        if not riemann_roch.class_sum_identity_check(model, 6):
            return f"class-sum identity fails for {model.desc}", False
        for n in (1, 2, 3):
            for i in range(0, 2 * model.g - 1):
                if not riemann_roch.reflection_identity_check(model, i, n):
                    return f"reflection fails for {model.desc} i={i} n={n}", False
                if not riemann_roch.clifford_sum_check(model, i, n):
                    return f"Clifford sum bound fails for {model.desc} i={i} n={n}", False
    return "class-sum, reflection and Clifford checks on all models", True


def _genus0_sections():
    T = (0, 1)
    for q in (2, 3):
        K = GF(q)
        model = riemann_roch.build_class_model(zeta.CurveDescriptor.rational(q))
        for coeffs in ({}, {INFINITY: 2}, {Place(T): 1, INFINITY: 1},
                       {Place(T): 2, Place((1, 1)): -1}, {INFINITY: -1}):
            div = Divisor(coeffs)
            basis = genus0_section_basis(K, div)
            if len(basis) != riemann_roch.class_dimension(model, 1, div.degree()):
                return f"{len(basis)} basis sections for {coeffs} over F_{q}", False
            if not all(section_space_contains(K, div, f) for f in basis):
                return f"a basis section of {coeffs} fails membership over F_{q}", False
            # over the basis denominator, the members are the q^l(a) elements of the span
            den = basis[0].den if basis else poly.ONE
            members = sum(
                section_space_contains(K, div, RationalFunction(K, num, den))
                for num in poly.enumerate_polys(K, poly.deg(den) + 3)
            )
            if members != q ** len(basis):
                return f"{members} members of L({coeffs}) over F_{q}", False
    return "genus-0 section bases have l(a) = deg a + 1 members by valuations", True


def brute_count_unnormalized(q, n, m, budget=counting.DEFAULT_BUDGET) -> int:
    """All coprime vectors of height exactly m, with no scalar
    normalization, by polynomial gcds: (q-1) times the projective count of
    counting.brute_count_rational."""
    if m < 0:
        return 0
    counting.check_budget(q ** (n * (m + 1)), budget,
                          f"unnormalized count q={q} n={n} m={m}")
    K = GF(q)
    total = 0
    polys = list(poly.enumerate_polys(K, m))
    for vec in itertools.product(polys, repeat=n):
        if all(not f for f in vec):
            continue
        if max(poly.deg(f) for f in vec) != m:
            continue
        if poly.gcd_many(K, vec) == poly.ONE:
            total += 1
    return total


def _oracle_equivalence(cells=((2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 1), (2, 4, 1)), deep=()):
    for q, n, m in cells + deep:
        desc = zeta.CurveDescriptor.rational(q)
        a = counting.brute_count_rational(q, n, m)
        b = counting.moebius_point_count(desc, n, m).N
        if a != b:
            return f"oracle mismatch at q={q} n={n} m={m}: {a} vs {b}", False
        # every coprime vector, not one per scalar class, by polynomial
        # gcds, on the fast cells only
        if (q, n, m) in cells and brute_count_unnormalized(q, n, m) != (q - 1) * a:
            return f"unnormalized count is not (q-1)*N at q={q} n={n} m={m}", False
    return (f"brute force equals Moebius inversion ({len(cells + deep)} cells) and "
            f"the unnormalized count ({len(cells)} cells)"), True


def _error_decomposition():
    # each count checks its own genus window: reflection and bound
    descs = [zeta.CurveDescriptor.rational(q) for q in (2, 3)]
    descs += [f.descriptor for f in quadratic.enumerate_quadratic_fields(3, 3) if f.genus == 1]
    for desc in descs:
        for n in (2, 3):
            for m in range(max(2 * desc.g - 1, 0), 4):
                try:
                    counting.moebius_point_count(desc, n, m)
                except ConsistencyError as exc:
                    return f"{exc} for {desc} n={n} m={m}", False
    return "error pieces reassemble, window reflects and meets its bound (g <= 1, m <= 3)", True


def _pipeline_agreement():
    for q, m in ((3, 1), (3, 2), (9, 1)):
        a = counting.count_fixed_degree_points(q, 2, m)
        assembly = counting.count_degree2_points_by_fields(q, 2, m)
        if a != assembly.N:
            return f"degree-2 pipelines disagree at q={q} m={m}: {a} vs {assembly.N}", False
        # the assembly weights each count class by its number of fields
        main = sum(zeta.schanuel_constant(f.descriptor, 2)
                   for f in quadratic.enumerate_quadratic_fields(q, 2 * m)) * q ** (2 * m)
        if assembly.main_term_partial != main:
            return f"main terms at q={q} m={m}: {assembly.main_term_partial} vs {main}", False
    return ("minimal-polynomial and per-field degree-2 counts agree, and so do the "
            "main-term partial sums (q=3 m<=2; q=9 m=1)"), True


def _twist_pairing():
    K = GF(3)
    fields = quadratic.enumerate_quadratic_fields(3, 4)
    by_D = {}
    for f in fields:
        by_D.setdefault(f.D, {})[f.u] = f
    for D, pair in by_D.items():
        if len(pair) != 2:
            return f"missing twist for D={D}", False
        f1, f2 = pair.values()
        if f1.genus >= 1:
            if f1.descriptor.L[1] + f2.descriptor.L[1] != 0:
                return f"twist trace sum nonzero for D={D}", False
    return "twist pairs have opposite traces (deg D <= 4)", True


def same_field(K, D1, u1, D2, u2) -> bool:
    """Whether sqrt(u1*D1) and sqrt(u2*D2) generate the same extension:
    the product u1*u2*D1*D2 must be a square in F_q(T), which its
    factorization decides (zero counts as a square)."""
    prod = poly.mul_scalar(K, poly.mul(K, D1, D2), K.mul(u1, u2))
    if not prod:
        return True
    unit, s, _ = poly.squarefree_part(K, prod)
    return s == poly.ONE and K.is_square(unit)


def _field_distinctness():
    K = GF(3)
    fields = quadratic.enumerate_quadratic_fields(3, 3)
    for f1, f2 in itertools.combinations(fields, 2):
        if same_field(K, f1.D, f1.u, f2.D, f2.u):
            return f"{f1.label()} and {f2.label()} coincide", False
    return "enumerated fields pairwise distinct (deg D <= 3)", True


def _forms_relations():
    for q in (3, 2):
        for m in (0, 1, 2):
            table = forms.form_table(q, 2, m)
            if not forms.form_count_identity_check(table):
                return f"forms aggregation identity fails at q={q} m={m}", False
            nf = forms.form_count(table)
            brute = forms.brute_force_forms(q, 2, 2, m)
            if nf != brute:
                return f"form oracle mismatch at q={q} m={m}: {nf} vs {brute}", False
    return "form counts match the oracle (q=3 m<=2; q=2 m<=2)", True


def _hasse_weil_all():
    fields = quadratic.enumerate_quadratic_fields(3, 5)
    for f in fields:
        if not zeta.hasse_weil_check(f.descriptor)["ok"]:
            return f"{f.label()} fails the Hasse-Weil window", False
    return f"{len(fields)} enumerated descriptors pass Hasse-Weil (deg D <= 5)", True


SUITES = {
    "algebra": [_field_axioms, _gcd_properties, _factor_degrees,
                _enumeration_cardinality, _squarefree_reexpansion, _irreducible_counts,
                _squarefree_sieve, _point_count_table, _artin_schreier,
                _discriminant_reduction, _discriminant_definition, _walk_steps],
    "places": [_principal_divisor_degree, _height_two_ways],
    "zeta": [_sequence_identities, _sequences_vs_enumeration, _euler_product_small],
    "riemann_roch": [_class_model_identities, _genus0_sections],
    "counting": [_oracle_equivalence, _error_decomposition, _pipeline_agreement],
    "quadratic": [_twist_pairing, _field_distinctness, _hasse_weil_all],
    "forms": [_forms_relations],
}

# the cells that --deep adds to the checks of its suite; the point-count
# tables at genus 3, where the table of r = 3 supplies s = 1 and 3, and
# r = 2 its own
DEEP_CELLS = {
    _oracle_equivalence: ((3, 4, 2), (2, 4, 3), (3, 3, 3), (2, 5, 4), (3, 4, 3), (7, 3, 2)),
    _discriminant_reduction: ((3, 4),),
    _discriminant_definition: ((7, 1),),
    _point_count_table: ((3, 7),),
}


def run_suite(suite: str, deep: bool = False):
    groups = SUITES.values() if suite == "all" else [SUITES[suite]]
    results = []
    for check in itertools.chain.from_iterable(groups):
        try:
            detail, ok = check(deep=DEEP_CELLS[check]) if deep and check in DEEP_CELLS else check()
        except Exception as exc:
            detail, ok = f"raised {type(exc).__name__}: {exc}", False
        results.append((check.__name__.lstrip("_"), ok, detail))
    return results

"""Counting engines for projective points of given height over F_q(T) and
its quadratic extensions.

Two independent routes produce every headline number:

  * brute force: coprime polynomial vectors of the exact height, one
    normalized representative per scalar class, counted lead by lead by
    inclusion-exclusion over a sieve of irreducible-factor degrees in
    F_q[T] (or minimal-polynomial coefficient triples, walked), inside an
    explicit tuple budget;
  * Moebius inversion: (q-1) * N = sum_l b(l) * sum_j lambda(a_j+(m-l)a_0, n)
    over a class model, evaluated exactly, together with its error
    decomposition around the Schanuel main term S * q^(nm), whose genus
    window every count checks against its reflection and its bound.

The two must agree wherever both run; that equality is the package's core
acceptance property.  Degree-2 points are additionally counted twice: once
through minimal polynomials (discriminant classification) and once by
summing line counts over the quadratic extensions, one count class at a
time.
"""

import functools
from collections import Counter, namedtuple

from . import kernels
from .errors import DEFAULT_BUDGET, ConsistencyError, RefusalError, check_budget
from .gf import GF, prime_power

# riemann_roch, zeta, quadratic and fractions are imported by the Moebius,
# assembly and Schanuel functions that use them, so that the brute-force
# and table routes (count --engine brute, countd) load none of them;
# annotations naming their types are strings.  DEFAULT_BUDGET and
# check_budget live in errors, which the parser reads without loading this
# module, and are bound here for forms, verify and the library.


class CountResult(namedtuple("CountResult", "q g J n d m N main_term err_unit_sum "
                                             "err_zeta_tail err_genus_window")):
    """Exact count plus its decomposition N = main + unit_sum + zeta_tail +
    genus_window (an algebraic identity, not an estimate)."""

    __slots__ = ()

    def error_parts(self):
        return {
            "unit_sum": self.err_unit_sum,
            "zeta_tail": self.err_zeta_tail,
            "genus_window": self.err_genus_window,
        }


# -- brute-force oracle -------------------------------------------------------


# At odd q the degree-2 counts walk every coefficient triple of max degree
# m and m - 1, up to Y -> mu*Y + kappa (kernels.discriminant_classes):
# kernels.walk_steps counts the steps the walk meets, in closed form; the
# candidates number ncodes^3 for the ncodes = q^(m+1) codes of degree <= m.
# A step costs 0.1-0.3 us (3.2e7 steps in 4.1 s at q=3,
# m=5; 3.1e6 in 0.8 s at q=5, m=3, whole process) and counts this many
# times against the budget: the default budget admits q=5 m=3, q=11 m=2
# and q=25 m=1, and refuses q=3 m=5 and q=7 m=3.
WALK_STEP_COST = 10


def check_walk_budget(q, m, budget, what):
    """Refuse a walk of the degree-2 tables at odd q and height m whose steps,
    weighted by WALK_STEP_COST, or whose tables, those of the field
    enumeration at deg D <= 2m (kernels.check_table_budget), exceed the budget."""
    check_budget(WALK_STEP_COST * kernels.walk_steps(q, m), budget,
                 f"{what} at cost {WALK_STEP_COST} per walk step", "weighted walk steps")
    kernels.check_table_budget(q, 2 * m, budget, what)


# kernels.classify_triples_by_polys, run by countd and forms at even q and by
# forms --brute at every q, spends 4-60 us a triple.  The default budget
# admits q=2 m=5, q=3 m=3, q=4 m=2, q=8 m=1; refuses q=2 m=6, q=4 m=3, q=5 m=2.
ORACLE_TRIPLE_COST = 100


def check_oracle_budget(q, m, budget):
    """Refuse a run of the polynomial triple loop at height m whose
    q^(3(m+1)) triples, weighted by ORACLE_TRIPLE_COST, exceed the budget."""
    check_budget(ORACLE_TRIPLE_COST * q ** (3 * (m + 1)), budget,
                 f"polynomial triple loop q={q} m={m} at cost {ORACLE_TRIPLE_COST} per triple",
                 "weighted oracle triples")


def brute_count_rational(q, n, m, budget=DEFAULT_BUDGET) -> int:
    """Points of P^(n-1)(F_q(T)) of relative height exactly m, by exhaustive
    enumeration of normalized coprime polynomial vectors."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        return 0
    check_budget(q ** (n * (m + 1)), budget, f"brute count q={q} n={n} m={m}")
    return kernels.count_coprime_vectors(q, n, m)


# -- Moebius inversion engine -------------------------------------------------


@functools.lru_cache(maxsize=256)
def moebius_point_count(desc: "CurveDescriptor", n: int, m: int) -> CountResult:
    """Exact N with (q-1)N = sum_{l<=m} b(l) * Lambda(m-l), plus the split of
    (q-1)N into main term and the three correction sums.

    Lambda(i) is the class sum of lambda(a_j + i*a_0, n) over the class
    model of desc; above the genus window it collapses to
    J*(q^(n(i+1-g)) - 1), which is what turns the full sum into
    J*q^(n(m+1-g))/zeta(n) plus controlled corrections.  Inside the window,
    each t(i) = Lambda(i) - J*(q^(n(i+1-g)) - 1) must equal its reflection
    q^(n(i+1-g)) * Lambda(2g-2-i), and from m = 2g-1 on |sum_l b(l)t(m-l)|
    must not exceed sum_l a(l)t(m-l), a(l) the effective divisor counts.

    Cached per (descriptor, n, m): fields that share a descriptor share
    their count, and the result is immutable.
    """
    from fractions import Fraction

    from .riemann_roch import build_class_model, lambda_sum, reflection_identity_check
    from .zeta import divisor_counts, moebius_sums, schanuel_constant, zeta_value

    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    model = build_class_model(desc)
    q, g, J = desc.q, desc.g, desc.J
    b = moebius_sums(desc, m)
    pre = sum(b[l] * lambda_sum(model, m - l, n) for l in range(m + 1))
    if pre % (q - 1):
        raise ConsistencyError(f"(q-1) does not divide the inversion sum {pre}")
    N = pre // (q - 1)

    zeta_n = zeta_value(desc, n)
    piece_a = J * Fraction(q) ** (n * (m + 1 - g)) / zeta_n
    qn = Fraction(q) ** n
    piece_b = Fraction(-J * sum(b[: m + 1]))
    partial = sum(b[l] * qn ** (m - l + 1 - g) for l in range(m + 1))
    piece_c = J * partial - piece_a
    # Fraction zeros keep err_genus_window exact at genus 0 (no window)
    window_lo = max(0, m - 2 * g + 2)
    piece_d = bound = Fraction(0)
    a = divisor_counts(desc, m) if g else ()
    for l in range(window_lo, m + 1):
        i = m - l
        if not reflection_identity_check(model, i, n):
            raise ConsistencyError(f"class sums fail reflection at degree {i}, n={n}")
        term = lambda_sum(model, i, n) - J * (qn ** (i + 1 - g) - 1)
        piece_d += b[l] * term
        bound += a[l] * term
    if m >= 2 * g - 1 and abs(piece_d) > bound:
        raise ConsistencyError("genus-window piece exceeds its absolute bound")
    if piece_a + piece_b + piece_c + piece_d != (q - 1) * N:
        raise ConsistencyError("error decomposition does not reassemble the count")

    main = schanuel_constant(desc, n) * Fraction(q) ** (n * m)
    if piece_a != (q - 1) * main:
        raise ConsistencyError("main term does not match the Schanuel constant")
    return CountResult(
        q=q,
        g=g,
        J=J,
        n=n,
        d=1,
        m=m,
        N=N,
        main_term=main,
        err_unit_sum=piece_b / (q - 1),
        err_zeta_tail=piece_c / (q - 1),
        err_genus_window=piece_d / (q - 1),
    )


# -- degree-2 points via minimal polynomials ----------------------------------


def count_fixed_degree_points(q, d, m, budget=DEFAULT_BUDGET) -> int:
    """N(2, d, m): points of the projective line of degree d and effective
    degree d over F_q(T) with height m/d, via minimal polynomials.

    Each separable qualifying polynomial contributes d roots; in
    characteristic 2 the inseparable quadratics contribute a single root
    each.  Supported for d <= 2 (higher d would need a constant-field test
    beyond quadratics); d < 1 is not a degree and raises ValueError.
    """
    if d < 1:
        raise ValueError(f"degree d must be >= 1, not {d}")
    if d == 1:
        return brute_count_rational(q, 2, m, budget=budget)
    if d != 2:
        raise RefusalError("minimal-polynomial counting implemented for d <= 2 only")
    if m < 0:
        return 0
    prime_power(q)  # ValueError for a q that is no field size, before the budget
    if q % 2:
        check_walk_budget(q, m, budget, f"degree-2 count q={q} m={m}")
        # the discriminant classes of the irreducible quadratics: deg s >= 1
        return 2 * sum(n for (s, _), n in kernels.discriminant_classes(q, m).items()
                       if len(s) > 1)
    check_oracle_budget(q, m, budget)
    sep, insep = kernels.classify_triples_by_polys(GF(q), m)
    return 2 * sep + insep


def brute_count_p1_over_field(field: "QuadraticFieldDesc", m, budget=DEFAULT_BUDGET) -> int:
    """P^1(K) points of relative height m over a quadratic extension K,
    counted without the zeta machinery: minimal polynomials whose
    discriminant square class matches the field (2 roots each), plus the
    rational points that height-double into K at even m."""
    if m < 0:
        return 0
    q = field.q
    check_walk_budget(q, m, budget, f"field line count q={q} m={m}")
    # u*unit is a square exactly when both units are squares or neither is
    total = 2 * kernels.discriminant_classes(q, m)[field.D, GF(q).is_square(field.u)]
    if m % 2 == 0:
        total += brute_count_rational(q, 2, m // 2, budget=budget)
    return total


# -- assembly over quadratic fields (d = 2) -----------------------------------


QuadraticAssembly = namedtuple("QuadraticAssembly",
                               "q n m N fields_used rational_correction main_term_partial")
QuadraticAssembly.__doc__ = """N(n, 2, m) summed over the fields_used quadratic extensions, each
contributing its line count N_K(n, 1, m) less rational_correction, and
main_term_partial, the sum of S_K * q^(nm) over those fields."""


def count_degree2_points_by_fields(q, n, m, budget=DEFAULT_BUDGET) -> QuadraticAssembly:
    """N(n, 2, m) as a sum over quadratic extensions K of
    N_K(n,1,m) - [m even] * N(n,1,m/2).

    A field can contribute only when deg D <= 2m (its line generators have
    minimal-polynomial height m, whose discriminant has degree <= 2m and
    squarefree part D), so the enumeration up to deg D <= 2m, budgeted by
    quadratic.check_enumeration_budget, is complete.  Heights with m > 2
    would draw in genus >= 2 fields, whose exact class data this package
    does not compute; such requests are refused.

    The sum runs over count classes (quadratic.field_classes): the fields
    with equal point counts share one descriptor, one line count and one
    Schanuel constant, each weighted by the number of those fields.
    """
    from fractions import Fraction

    from .quadratic import check_enumeration_budget, field_classes
    from .zeta import CurveDescriptor

    prime_power(q)  # ValueError for a q that is no field size, before the even-q refusal
    if q % 2 == 0:
        raise RefusalError("even q refused: quadratic extensions have no squarefree model")
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 1:  # no field has deg D <= 2m
        return QuadraticAssembly(q, n, m, 0, 0, 0, Fraction(0))
    if m > 2:
        raise RefusalError(
            f"m = {m} would require fields of genus up to {(2*m - 1)//2}; "
            "exact counting stops at genus 1 (m <= 2)"
        )
    check_enumeration_budget(q, 2 * m, budget)
    corr = 0
    if m % 2 == 0:
        corr = moebius_point_count(CurveDescriptor.rational(q), n, m // 2).N
    classes = field_classes(q, 2 * m)
    groups = Counter()
    for dc in classes.degrees:
        for counts in dc.counts:  # one tuple per twist
            groups.update(counts)
    total = 0
    main = Fraction(0)
    for c, k in groups.items():
        desc = classes.descriptors[c]
        res = moebius_point_count(desc, n, m)
        if res.N < corr:
            raise ConsistencyError(
                f"negative contribution from the fields of genus {desc.g} "
                f"with point counts {c}")
        total += k * (res.N - corr)
        main += k * res.main_term  # S_K * q^(nm), checked by the count
    return QuadraticAssembly(q, n, m, total, sum(groups.values()), corr, main)


def schanuel_sum_quadratic(q, n, degD_max, budget=DEFAULT_BUDGET):
    """Partial sum of S_K(n, 1) over the enumerated quadratic extensions
    with deg D <= degD_max, exact, with a per-degree increment report.

    Convergence of the full sum requires n > 3 (= d + 1 for d = 2); smaller
    n is refused rather than summed blindly, and so is an enumeration over
    the budget (quadratic.check_enumeration_budget).
    """
    from fractions import Fraction

    from .quadratic import check_enumeration_budget, field_classes
    from .zeta import schanuel_constant

    if n <= 3:
        raise RefusalError(f"sum over quadratic fields converges only for n > 3, got n={n}")
    check_enumeration_budget(q, degD_max, budget)
    classes = field_classes(q, degD_max)
    increments = {}
    for dc in classes.degrees:
        # fields with equal point counts share their descriptor, hence
        # their Schanuel constant
        groups = Counter()
        for counts in dc.counts:  # one tuple per twist
            groups.update(counts)
        increments[dc.deg_D] = sum((k * schanuel_constant(classes.descriptors[c], n)
                                    for c, k in groups.items()), Fraction(0))
    total = sum(increments.values(), Fraction(0))
    degs = sorted(increments)
    ratios = {
        d: float(increments[d] / increments[d - 1])
        for d in degs
        if d - 1 in increments and increments[d - 1]
    }
    report = {
        "increments": {d: increments[d] for d in degs},
        "increment_floats": {d: float(increments[d]) for d in degs},
        "ratio_to_previous_degree": ratios,
        "all_positive": all(v > 0 for v in increments.values()),
    }
    return total, report


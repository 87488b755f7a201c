"""Counting engines for projective points of given height over F_q(T) and
its quadratic extensions.

Two independent routes produce every headline number:

  * brute force: enumerate coprime polynomial vectors (or minimal-polynomial
    coefficient triples) of the exact height, one normalized representative
    per scalar class, inside an explicit tuple budget;
  * Moebius inversion: (q-1) * N = sum_l b(l) * sum_j lambda(a_j+(m-l)a_0, n)
    over a class model, evaluated exactly, together with its error
    decomposition around the Schanuel main term S * q^(nm).

The two must agree wherever both run; that equality is the package's core
acceptance property.  Degree-2 points are additionally counted twice: once
through minimal polynomials (discriminant classification) and once by
summing per-field counts over the enumerated quadratic extensions.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import kernels, poly
from .errors import ConsistencyError, RefusalError
from .gf import GF
from .quadratic import QuadraticFieldDesc, enumerate_quadratic_fields
from .riemann_roch import ClassModel, build_class_model, lambda_sum
from .zeta import (
    CurveDescriptor,
    divisor_counts,
    moebius_sums,
    schanuel_constant,
    zeta_value,
)

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class CountResult:
    """Exact count plus its decomposition N = main + unit_sum + zeta_tail +
    genus_window (an algebraic identity, not an estimate)."""

    q: int
    g: int
    J: int
    n: int
    d: int
    m: int
    N: int
    main_term: Fraction
    err_unit_sum: Fraction
    err_zeta_tail: Fraction
    err_genus_window: Fraction

    def error_parts(self):
        return {
            "unit_sum": self.err_unit_sum,
            "zeta_tail": self.err_zeta_tail,
            "genus_window": self.err_genus_window,
        }


# -- brute-force oracle -------------------------------------------------------


def check_budget(candidates: int, budget: int, what: str):
    if candidates > budget:
        raise RefusalError(
            f"{what} needs {candidates} candidate tuples > budget {budget}; "
            f"raise the budget explicitly to proceed"
        )


def brute_count_rational(q, n, m, budget=DEFAULT_BUDGET, workers=1) -> int:
    """Points of P^(n-1)(F_q(T)) of relative height exactly m, by exhaustive
    enumeration of normalized coprime polynomial vectors."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        return 0
    check_budget(q ** (n * (m + 1)), budget, f"brute count q={q} n={n} m={m}")
    _, _, _, monic_codes = kernels.vector_tables(q, m)
    tasks = [(q, n, m, pos, code) for pos in range(n) for code in monic_codes]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return sum(pool.starmap(_lead_task, tasks, chunksize=16))
    return sum(_lead_task(*t) for t in tasks)


def _lead_task(q, n, m, pos, code):
    return kernels.count_coprime_lead(q, n, m, pos, code)


def brute_count_unnormalized(q, n, m, budget=DEFAULT_BUDGET) -> int:
    """All coprime vectors of height exactly m (no scalar normalization);
    equals (q-1) times the projective count.  Kept as a cross-check."""
    if m < 0:
        return 0
    check_budget(q ** (n * (m + 1)), budget, f"unnormalized count q={q} n={n} m={m}")
    K = GF(q)
    total = 0
    polys = list(poly.enumerate_polys(K, m))
    for vec in product(polys, repeat=n):
        if all(not f for f in vec):
            continue
        if max(poly.deg(f) for f in vec) != m:
            continue
        if poly.gcd_many(K, vec) == poly.ONE:
            total += 1
    return total


# -- Moebius inversion engine -------------------------------------------------


def moebius_point_count(model: ClassModel | CurveDescriptor, n: int, m: int) -> CountResult:
    """Exact N with (q-1)N = sum_{l<=m} b(l) * Lambda(m-l), plus the split of
    (q-1)N into main term and the three correction sums.

    Lambda(i) is the class sum of lambda(a_j + i*a_0, n); above the genus
    window it collapses to J*(q^(n(i+1-g)) - 1), which is what turns the
    full sum into J*q^(n(m+1-g))/zeta(n) plus controlled corrections.
    """
    if isinstance(model, CurveDescriptor):
        model = build_class_model(model)
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    desc = model.desc
    q, g, J = desc.q, desc.g, desc.J
    b = moebius_sums(desc, m)
    pre = sum(b[l] * lambda_sum(model, m - l, n) for l in range(m + 1))
    if pre % (q - 1):
        raise ConsistencyError(f"(q-1) does not divide the inversion sum {pre}")
    N = pre // (q - 1)

    zeta_n = zeta_value(desc, n)
    piece_a = Fraction(J * q ** (n * (m + 1 - g))) / zeta_n
    qn = Fraction(q) ** n
    piece_b = Fraction(-J * sum(b[: m + 1]))
    partial = sum(b[l] * qn ** (m - l + 1 - g) for l in range(m + 1))
    piece_c = J * partial - piece_a
    window_lo = max(0, m - 2 * g + 2)
    piece_d = Fraction(0)
    for l in range(window_lo, m + 1):
        i = m - l
        piece_d += b[l] * (lambda_sum(model, i, n) - J * (qn ** (i + 1 - g) - 1))
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


def error_decomposition(result: CountResult, model: ClassModel) -> dict:
    """Report the correction pieces of a Moebius count, the genus-window
    bound in its direct and reflected forms, and re-verify the assembly.

    Only defined for m >= 2g-1 (below that the closed divisor-count form
    does not cover the window).
    """
    desc = model.desc
    q, g, J, n, m = desc.q, desc.g, desc.J, result.n, result.m
    if (result.q, result.g, result.J) != (q, g, J):
        raise ValueError("result was produced by a different class model")
    if m < 2 * g - 1:
        raise RefusalError(f"decomposition defined for m >= 2g-1 = {2*g-1}, got {m}")
    qn = Fraction(q) ** n
    a = divisor_counts(desc, m)
    direct = Fraction(0)
    for i in range(0, 2 * g - 1):
        direct += a[m - i] * (lambda_sum(model, i, n) - J * (qn ** (i + 1 - g) - 1))
    reflected = Fraction(0)
    for i2 in range(0, 2 * g - 1):
        reflected += a[m + i2 - 2 * g + 2] * qn ** (g - 1 - i2) * lambda_sum(model, i2, n)
    if direct != reflected:
        raise ConsistencyError("genus-window bound: direct and reflected forms differ")
    pieces = {
        "unit_sum": (q - 1) * result.err_unit_sum,
        "zeta_tail": (q - 1) * result.err_zeta_tail,
        "genus_window": (q - 1) * result.err_genus_window,
    }
    total = sum(pieces.values())
    if total != (q - 1) * (result.N - result.main_term):
        raise ConsistencyError("pieces do not sum to (q-1)(N - main term)")
    if abs(pieces["genus_window"]) > direct:
        raise ConsistencyError("genus-window piece exceeds its absolute bound")
    return {
        "pieces": pieces,
        "window_bound_direct": direct,
        "window_bound_reflected": reflected,
        "sum_matches": True,
    }


# -- degree-2 points via minimal polynomials ----------------------------------


def count_fixed_degree_points(q, d, m, budget=DEFAULT_BUDGET) -> int:
    """N(2, d, m): points of the projective line of degree d and effective
    degree d over F_q(T) with height m/d, via minimal polynomials.

    Each separable qualifying polynomial contributes d roots; in
    characteristic 2 the inseparable quadratics contribute a single root
    each.  Supported for d <= 2 (higher d would need a constant-field test
    beyond quadratics).
    """
    if d == 1:
        return brute_count_rational(q, 2, m, budget=budget)
    if d != 2:
        raise RefusalError("minimal-polynomial counting implemented for d <= 2 only")
    if m < 0:
        return 0
    check_budget(q ** ((d + 1) * (m + 1)), budget, f"degree-2 count q={q} m={m}")
    sep, insep = kernels.irreducible_triple_counts(q, m)
    return 2 * sep + insep


def brute_count_p1_over_field(field: QuadraticFieldDesc, m, budget=DEFAULT_BUDGET) -> int:
    """P^1(K) points of relative height m over a quadratic extension K,
    counted without the zeta machinery: minimal polynomials whose
    discriminant square class matches the field (2 roots each), plus the
    rational points that height-double into K at even m."""
    if m < 0:
        return 0
    q = field.q
    check_budget(q ** (3 * (m + 1)), budget, f"field line count q={q} m={m}")
    matched = kernels.count_quadratic_triples(q, m, want_bits=4, target=(field.D, field.u))
    total = 2 * matched
    if m % 2 == 0:
        total += brute_count_rational(q, 2, m // 2, budget=budget)
    return total


# -- assembly over quadratic fields (d = 2) -----------------------------------


@dataclass(frozen=True)
class FieldContribution:
    field: QuadraticFieldDesc
    N_line: int  # N_K(n, 1, m): all P^(n-1)(K) points of height m
    rational_correction: int
    contribution: int


@dataclass(frozen=True)
class QuadraticAssembly:
    q: int
    n: int
    m: int
    N: int
    per_field: tuple
    main_term_partial: Fraction  # sum of S_K * q^(nm) over the enumerated fields

    @property
    def fields_used(self) -> int:
        return len(self.per_field)


def count_degree2_points_by_fields(q, n, m, budget=DEFAULT_BUDGET) -> QuadraticAssembly:
    """N(n, 2, m) as a sum over quadratic extensions K of
    N_K(n,1,m) - [m even] * N(n,1,m/2).

    A field can contribute only when deg D <= 2m (its line generators have
    minimal-polynomial height m, whose discriminant has degree <= 2m and
    squarefree part D), so the enumeration below is complete.  Heights with
    m > 2 would draw in genus >= 2 fields, whose exact class data this
    package does not compute; such requests are refused.
    """
    if q % 2 == 0:
        raise RefusalError("even q refused: quadratic extensions have no squarefree model")
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 0:
        return QuadraticAssembly(q, n, m, 0, (), Fraction(0))
    if m > 2:
        raise RefusalError(
            f"m = {m} would require fields of genus up to {(2*m - 1)//2}; "
            "exact counting stops at genus 1 (m <= 2)"
        )
    rows = []
    total = 0
    main_partial = Fraction(0)
    if m >= 1:
        rational_corr = 0
        if m % 2 == 0:
            rational_corr = moebius_point_count(CurveDescriptor.rational(q), n, m // 2).N
        for field in enumerate_quadratic_fields(q, 2 * m):
            model = build_class_model(field.descriptor)
            n_line = moebius_point_count(model, n, m).N
            corr = rational_corr if m % 2 == 0 else 0
            contrib = n_line - corr
            if contrib < 0:
                raise ConsistencyError(f"negative contribution from {field.label()}")
            rows.append(FieldContribution(field, n_line, corr, contrib))
            total += contrib
            main_partial += schanuel_constant(field.descriptor, n) * Fraction(q) ** (n * m)
    return QuadraticAssembly(q, n, m, total, tuple(rows), main_partial)


def schanuel_sum_quadratic(q, n, degD_max):
    """Partial sum of S_K(n, 1) over the enumerated quadratic extensions
    with deg D <= degD_max, exact, with a per-degree increment report.

    Convergence of the full sum requires n > 4 (= d + 2 for d = 2); smaller
    n is refused rather than summed blindly.
    """
    if n <= 4:
        raise RefusalError(f"sum over quadratic fields converges only for n > 4, got n={n}")
    increments = {}
    for field in enumerate_quadratic_fields(q, degD_max):
        inc = schanuel_constant(field.descriptor, n)
        increments[field.deg_D] = increments.get(field.deg_D, Fraction(0)) + inc
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


# -- growth/ratio reporting ----------------------------------------------------


def growth_report(q, n_values=(2, 3), m_max=3, budget=DEFAULT_BUDGET):
    """Float ratio tables around the exact counts (report-only: the growth
    statements behind them carry non-explicit constants)."""
    base = CurveDescriptor.rational(q)
    rows = []
    for n in n_values:
        for m in range(m_max + 1):
            N = moebius_point_count(base, n, m).N
            rows.append(
                {"kind": "line", "q": q, "n": n, "d": 1, "m": m, "N": N,
                 "N_over_q_nm": N / q ** (n * m)}
            )
    if q % 2:
        for m in range(0, min(m_max, 2) + 1):
            n22 = count_fixed_degree_points(q, 2, m, budget=budget)
            n31 = moebius_point_count(base, 3, m).N
            rows.append(
                {"kind": "degree2", "q": q, "n": 2, "d": 2, "m": m, "N": n22,
                 "N_over_q_3m": n22 / q ** (3 * m),
                 "ratio_to_d_times_line": (n22 / (2 * n31)) if n31 else None}
            )
        fields = enumerate_quadratic_fields(q, min(2 * m_max, 6))
        by_genus = {}
        for f in fields:
            by_genus[f.genus] = by_genus.get(f.genus, 0) + 1
        rows.append({"kind": "fields_by_genus", "q": q, "counts": by_genus})
        for m in range(min(m_max, 2) + 1):
            upto = sum(c for g, c in by_genus.items() if g <= m)
            rows.append(
                {"kind": "fields_genus_le_m", "q": q, "m": m, "count": upto,
                 "count_over_q_3m": upto / q ** (3 * m)}
            )
    return rows

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffcount import kernels, riemann_roch, verify, zeta
from ffcount.counting import (
    QuadraticAssembly,
    brute_count_p1_over_field,
    brute_count_rational,
    count_degree2_points_by_fields,
    count_fixed_degree_points,
    moebius_point_count,
    schanuel_sum_quadratic,
)
from ffcount.errors import ConsistencyError, RefusalError
from ffcount.gf import GF
from ffcount.quadratic import enumerate_quadratic_fields
from ffcount.zeta import CurveDescriptor, schanuel_constant

R2 = CurveDescriptor.rational(2)
R3 = CurveDescriptor.rational(3)


def per_field_assembly(q, n, m):
    """count_degree2_points_by_fields summed one field at a time, the
    reference for its sums over count classes: each field contributes its
    line count less [m even] * N(n, 1, m/2), and no contribution is
    negative."""
    if m < 1:
        return QuadraticAssembly(q, n, m, 0, 0, 0, Fraction(0))
    corr = moebius_point_count(CurveDescriptor.rational(q), n, m // 2).N if m % 2 == 0 else 0
    fields = enumerate_quadratic_fields(q, 2 * m)
    contributions = [moebius_point_count(f.descriptor, n, m).N - corr for f in fields]
    assert min(contributions) >= 0
    main = sum(schanuel_constant(f.descriptor, n) for f in fields) * Fraction(q) ** (n * m)
    return QuadraticAssembly(q, n, m, sum(contributions), len(fields), corr, main)


def test_brute_count_examples():
    assert brute_count_rational(2, 2, 1) == 6
    assert brute_count_rational(2, 2, 0) == 3
    assert brute_count_rational(3, 2, 0) == 4
    assert brute_count_rational(2, 2, -1) == 0


def test_budget_refusal():
    with pytest.raises(RefusalError):
        brute_count_rational(3, 4, 4)  # 3^20 tuples
    with pytest.raises(RefusalError):
        brute_count_rational(2, 2, 3, budget=100)


def test_moebius_examples():
    # (b(0)(2^4 - 1) + b(1)(2^2 - 1)) / (q - 1) = (15 - 9)/1
    assert moebius_point_count(R2, 2, 1).N == 6
    assert moebius_point_count(R2, 2, 0).N == 3
    r = moebius_point_count(R2, 2, 2)
    assert r.N == 24 and r.main_term == 24
    with pytest.raises(ValueError):
        moebius_point_count(R2, 1, 2)
    with pytest.raises(ValueError):
        moebius_point_count(R2, 2, -1)


def test_count_result_identity():
    descs = (
        R2,
        R3,
        CurveDescriptor(3, 1, (1, 2, 3)),
        CurveDescriptor(2, 1, (1, -2, 2)),  # class number 1 boundary
    )
    for desc in descs:
        for n in (2, 3):
            for m in range(5):
                r = moebius_point_count(desc, n, m)
                assert r.main_term + sum(r.error_parts().values()) == r.N
                assert r.N >= 0


def test_genus0_exactness_from_height_two():
    for q in (2, 3, 5):
        desc = CurveDescriptor.rational(q)
        for n in (2, 3, 4):
            for m in (2, 3, 4):
                r = moebius_point_count(desc, n, m)
                assert r.N == schanuel_constant(desc, n) * Fraction(q) ** (n * m)
                assert all(v == 0 for v in r.error_parts().values())


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11]), n=st.integers(2, 6), m=st.integers(0, 8))
def test_brute_and_moebius_agree_on_sampled_cells(q, n, m):
    # every sampled cell inside q^(n(m+1)) <= 10^8 candidate tuples (m = 0
    # always is); the literal Euclid loop joins in below 2*10^4 tuples
    m = max(k for k in range(m + 1) if q ** (n * (k + 1)) <= 10**8)
    N = brute_count_rational(q, n, m)
    assert N == moebius_point_count(CurveDescriptor.rational(q), n, m).N
    if q ** (n * (m + 1)) <= 2 * 10**4:
        assert verify.brute_count_unnormalized(q, n, m) == (q - 1) * N


def test_unnormalized_is_q_minus_1_times_projective():
    for q, n, m in ((2, 2, 2), (3, 2, 1), (3, 3, 1), (5, 2, 1)):
        assert verify.brute_count_unnormalized(q, n, m) == (q - 1) * brute_count_rational(q, n, m)


def test_error_decomposition_genus0():
    # no genus window: an exact zero, which count prints as 0/1
    r = moebius_point_count(R2, 2, 3)
    assert r.err_genus_window == 0 and isinstance(r.err_genus_window, Fraction)
    assert r.main_term + sum(r.error_parts().values()) == r.N


def test_error_decomposition_genus1():
    f = [f for f in enumerate_quadratic_fields(3, 3) if f.genus == 1][0]
    for m in (1, 2, 3):
        r = moebius_point_count(f.descriptor, 2, m)
        assert sum(r.error_parts().values()) == r.N - r.main_term


def test_window_reflection_fault_raises(genus2_field, monkeypatch):
    # a class sum off by a multiple of q-1 at degree 0 and n = 4 keeps
    # (q-1) | the inversion sum, and the class table's own validation
    # (n <= 3) passes; the count's window, degrees 0..2 at m = 3, reflects
    _, desc = genus2_field
    count = moebius_point_count.__wrapped__
    count(desc, 4, 3)
    real = riemann_roch.lambda_sum

    def broken(model, i, n):
        return real(model, i, n) + (model.q - 1 if (i, n) == (0, 4) else 0)

    monkeypatch.setattr(riemann_roch, "lambda_sum", broken)
    with pytest.raises(ConsistencyError, match="reflection"):
        count(desc, 4, 3)


def test_window_bound_fault_raises(monkeypatch):
    # with a(m) = 0 the bound loses the degree-0 window term, which b(m)
    # weights in the piece: b(1) = -4 and b(3) = 12 for this field
    desc = [f for f in enumerate_quadratic_fields(3, 3) if f.genus == 1][0].descriptor
    real = zeta.divisor_counts
    monkeypatch.setattr(zeta, "divisor_counts", lambda d, l_max: real(d, l_max)[:-1] + [0])
    for m in (1, 3):
        with pytest.raises(ConsistencyError, match="bound"):
            moebius_point_count.__wrapped__(desc, 2, m)


# L(t) = 1 + c*t + q*t^2 with |c| <= 2*sqrt(q)
HASSE_WEIL_GENUS1 = st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25)).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(-math.isqrt(4 * q), math.isqrt(4 * q))))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(qc=HASSE_WEIL_GENUS1, n=st.integers(2, 6), m=st.integers(0, 12))
def test_genus1_window_checks_hold_in_hasse_weil_window(qc, n, m):
    q, c = qc
    r = moebius_point_count.__wrapped__(CurveDescriptor(q, 1, (1, c, q)), n, m)
    assert r.N >= 0
    assert r.main_term + sum(r.error_parts().values()) == r.N


def test_degree2_examples():
    assert count_fixed_degree_points(3, 2, 0) == 0
    assert count_fixed_degree_points(2, 2, 0) == 0
    assert count_fixed_degree_points(3, 2, 1) == 432
    assert count_fixed_degree_points(2, 2, 1) == 42
    # d = 1 degenerates to the rational count
    assert count_fixed_degree_points(3, 1, 1) == brute_count_rational(3, 2, 1)
    with pytest.raises(RefusalError):
        count_fixed_degree_points(3, 3, 0)
    # d < 1 is not a degree: bad input, not an unimplemented case
    for d in (0, -1):
        with pytest.raises(ValueError, match=f"not {d}"):
            count_fixed_degree_points(3, d, 1)


def test_degree2_budget_counts_walk_steps_at_odd_q(monkeypatch):
    # the walk makes kernels.walk_steps steps, each counted WALK_STEP_COST
    # times; even q prices its candidate triples as the form oracle does,
    # ORACLE_TRIPLE_COST each
    monkeypatch.setattr(kernels, "discriminant_classes", lambda q, m: {})
    monkeypatch.setattr(kernels, "classify_triples_by_polys", lambda K, m: (0, 0))
    for q, m in ((5, 3), (11, 2), (25, 1), (3, 4)):
        assert count_fixed_degree_points(q, 2, m) == 0
    with pytest.raises(RefusalError, match="q=3 m=5 at cost 10 per walk step"):
        count_fixed_degree_points(3, 2, 5)
    assert count_fixed_degree_points(3, 2, 5, budget=10**9) == 0
    assert count_fixed_degree_points(4, 2, 2) == 0  # 4^9 triples
    with pytest.raises(RefusalError, match="needs 1677721600 weighted oracle triples"):
        count_fixed_degree_points(4, 2, 3)  # 4^12 triples
    with pytest.raises(RefusalError, match="needs 13421772800 weighted oracle triples"):
        count_fixed_degree_points(2, 2, 8)  # 2^27 triples
    field = enumerate_quadratic_fields(3, 1)[0]
    with pytest.raises(RefusalError, match="field line count q=3 m=5 at cost 10"):
        brute_count_p1_over_field(field, 5)


def test_moebius_counts_are_cached_per_descriptor():
    info = moebius_point_count.cache_info()
    assert info.maxsize is not None
    moebius_point_count.cache_clear()
    count_degree2_points_by_fields(3, 2, 2)
    descriptors = {f.descriptor for f in enumerate_quadratic_fields(3, 4)}
    # one count per descriptor, and one for the rational correction at m/2
    assert moebius_point_count.cache_info().misses == len(descriptors) + 1
    assert moebius_point_count(R3, 2, 1) is moebius_point_count(CurveDescriptor(3, 0, [1]), 2, 1)


def test_oracle_equivalence_q4():
    # non-prime constant field: same engines, same agreement
    desc = CurveDescriptor.rational(4)
    for n, m in ((2, 0), (2, 1), (2, 2), (3, 1)):
        assert brute_count_rational(4, n, m) == moebius_point_count(desc, n, m).N
    # constant irreducible quadratics over F_4 split over F_16
    assert count_fixed_degree_points(4, 2, 0) == 0


def test_degree2_regression_values():
    # frozen from the package's own exhaustive runs, cross-checked by the
    # per-field assembly below
    assert count_fixed_degree_points(3, 2, 2) == 13824
    assert count_fixed_degree_points(3, 2, 3) == 428976


def test_assembly_matches_minimal_polynomials():
    for m in (0, 1, 2):
        asm = count_degree2_points_by_fields(3, 2, m)
        assert asm.N == count_fixed_degree_points(3, 2, m)
    asm = count_degree2_points_by_fields(3, 2, 1)
    assert asm.fields_used == 18
    assert asm == per_field_assembly(3, 2, 1)


def test_grouped_assembly_rows_equal_per_field_moebius():
    # the assembly computes one line count per count class, weighted by
    # its fields; the sums must equal those over the fields one by one
    asm = count_degree2_points_by_fields(3, 2, 2)
    assert asm.fields_used == len(enumerate_quadratic_fields(3, 4))
    assert asm.rational_correction == moebius_point_count(R3, 2, 1).N
    assert asm == per_field_assembly(3, 2, 2)


def test_degree2_routes_agree_at_q9():
    # odd non-prime q runs the discriminant tables like odd prime q
    assert count_fixed_degree_points(9, 2, 1) == count_degree2_points_by_fields(9, 2, 1).N
    assert count_fixed_degree_points(9, 2, 1) == 116640
    for f in enumerate_quadratic_fields(9, 2):
        assert brute_count_p1_over_field(f, 1) == moebius_point_count(f.descriptor, 2, 1).N, (
            f.label()
        )


# N(2, 2, m) at more odd q, prime and not, from the discriminant walk and
# from the per-field Moebius sum, which agreed when these were recorded
DEGREE2_CELLS = {(5, 2): 864000, (7, 1): 32928, (7, 2): 12644352, (11, 1): 319440,
                 (13, 1): 738192, (25, 1): 19500000, (27, 1): 28658448}


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(cell=st.sampled_from(sorted(DEGREE2_CELLS)))
def test_degree2_routes_agree_at_more_q(cell):
    q, m = cell
    walk = count_fixed_degree_points(q, 2, m)
    assert walk == count_degree2_points_by_fields(q, 2, m).N == DEGREE2_CELLS[cell]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(q=st.sampled_from((3, 5, 7, 9, 11, 13)), m=st.integers(0, 2))
def test_degree2_routes_agree_on_small_cells(q, m):
    # the walk against the field sum wherever the walk has at most 1331
    # codes, and against the polynomial triple loop, which reads neither
    # the walk's Moebius step nor its tables, up to 2*10^4 triples
    assume(q ** (m + 1) <= 1331)
    walk = count_fixed_degree_points(q, 2, m)
    assert walk == count_degree2_points_by_fields(q, 2, m).N
    if q ** (3 * (m + 1)) <= 2 * 10**4:
        assert walk == 2 * kernels.classify_triples_by_polys(GF(q), m)[0]


@st.composite
def small_fields(draw):
    """A quadratic extension of F_q(T) with q in {3, 5, 7, 9} and deg D <= 2."""
    q = draw(st.sampled_from((3, 5, 7, 9)))
    return draw(st.sampled_from(enumerate_quadratic_fields(q, 2)))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(field=small_fields(), m=st.integers(0, 1))
def test_field_brute_count_equals_moebius(field, m):
    assert brute_count_p1_over_field(field, m) == moebius_point_count(field.descriptor, 2, m).N


# (q, m) of the class-sum test: m = 2 draws in genus 1 at deg D = 3, 4,
# and stops at q = 7, whose 4802 fields take about 0.15 s one by one
# (q = 9 has 13122)
ASSEMBLY_CELLS = ([(q, m) for q in (3, 5, 7, 9, 11, 13, 25, 27) for m in (0, 1)]
                  + [(q, 2) for q in (3, 5, 7)])


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(cell=st.sampled_from(ASSEMBLY_CELLS), n=st.integers(2, 6))
def test_class_sums_equal_per_field_sums(cell, n):
    q, m = cell
    assert count_degree2_points_by_fields(q, n, m) == per_field_assembly(q, n, m)


def test_assembly_refusals():
    with pytest.raises(RefusalError):
        count_degree2_points_by_fields(3, 2, 3)
    with pytest.raises(RefusalError):
        count_degree2_points_by_fields(2, 2, 1)
    assert count_degree2_points_by_fields(3, 2, -1).N == 0


def test_line_counts_over_genus1_field():
    f = [f for f in enumerate_quadratic_fields(3, 3) if f.D == (0, 2, 0, 1) and f.u == 1][0]
    expected = {0: 4, 1: 0, 2: 96, 3: 864}
    for m, want in expected.items():
        assert moebius_point_count(f.descriptor, 2, m).N == want
        assert brute_count_p1_over_field(f, m) == want


def test_line_counts_over_genus0_twist():
    f = [f for f in enumerate_quadratic_fields(3, 1) if f.u == 2][0]
    for m in (0, 1, 2):
        assert brute_count_p1_over_field(f, m) == moebius_point_count(f.descriptor, 2, m).N


def test_line_counts_over_even_degree_fields():
    # even deg D exercises the split/inert place at infinity for both twists
    fields = enumerate_quadratic_fields(3, 4)
    deg2 = [f for f in fields if f.deg_D == 2][:2]
    deg4 = [f for f in fields if f.deg_D == 4]
    for f in deg2 + [deg4[0], deg4[-1]]:
        for m in (1, 2, 3):
            assert brute_count_p1_over_field(f, m) == moebius_point_count(f.descriptor, 2, m).N, (
                f.label(), m,
            )


def test_genus2_field_with_synthetic_class_table(genus2_field):
    # the per-class table pins only multisets per degree; points and the
    # canonical class determine them for a hyperelliptic genus-2 curve
    f, desc = genus2_field
    # the window bound holds from m = 2g-1 = 3 on; every m reflects its
    # window terms, with negative exponents at degree 0
    for m in (0, 1, 2, 3):
        assert moebius_point_count(desc, 2, m).N == brute_count_p1_over_field(f, m)


def test_schanuel_sum_quadratic():
    # the sum converges for n > 3 = d + 1
    with pytest.raises(RefusalError, match="converges only for n > 3, got n=3"):
        schanuel_sum_quadratic(3, 3, 2)
    for n in (4, 6):
        total, report = schanuel_sum_quadratic(3, n, 2)
        # degrees 1 and 2 give rational fields: every summand is the base constant
        assert total == 18 * schanuel_constant(R3, n)
        assert report["all_positive"]
        assert sorted(report["increments"]) == [1, 2]
    assert 18 * schanuel_constant(R3, 4) == Fraction(2080, 3)


@pytest.mark.parametrize("q, degD_max", [(3, 6), (5, 4)])
def test_grouped_schanuel_sum_equals_per_field_sum(q, degD_max):
    fields = enumerate_quadratic_fields(q, degD_max)
    per_degree = {}
    for f in fields:
        per_degree[f.deg_D] = per_degree.get(f.deg_D, 0) + schanuel_constant(f.descriptor, 6)
    # the records grouped by (deg D, descriptor), as the sum was once formed
    grouped = {}
    for (d, desc), k in Counter((f.deg_D, f.descriptor) for f in fields).items():
        grouped[d] = grouped.get(d, Fraction(0)) + k * schanuel_constant(desc, 6)
    total, report = schanuel_sum_quadratic(q, 6, degD_max)
    assert report["increments"] == per_degree == grouped
    assert list(report["increments"]) == sorted(grouped)
    assert total == sum(per_degree.values())

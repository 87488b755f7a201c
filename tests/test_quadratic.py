import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcount import kernels, poly, verify
from ffcount.errors import ConsistencyError, RefusalError
from ffcount.gf import GF, constant_extension
from ffcount.quadratic import (
    HORNER_ENTRY_COST,
    build_descriptor,
    check_enumeration_budget,
    curve_point_counts,
    enumerate_quadratic_fields,
    field_classes,
    frobenius_orbit_count,
    min_generator_height_bound,
    monic_formatter,
)
from ffcount.verify import same_field
from ffcount.zeta import divisor_counts, hasse_weil_check

K3 = GF(3)
T3T = (0, 2, 0, 1)  # T^3 - T


def test_hasse_weil_failure_raises(monkeypatch):
    # N_r = 4 q^r + 1 for every code and both twists, far outside the window
    def bad_tables(K, d, r_max):
        counts = tuple(4 * K.q**r + 1 for r in range(1, r_max + 1))
        return [counts] * K.q**d, [counts] * K.q**d

    monkeypatch.setattr(kernels, "point_count_tables", bad_tables)
    field_classes.cache_clear()
    enumerate_quadratic_fields.cache_clear()
    try:
        # the message names the first field of genus 1: T^3 + c is a cube
        # in characteristic 3, so the first squarefree D is T^3 + T
        with pytest.raises(ConsistencyError, match=r"q3_D\[T\^3\+T\]_u1 failed Hasse-Weil"):
            enumerate_quadratic_fields(3, 3)
    finally:
        field_classes.cache_clear()
        enumerate_quadratic_fields.cache_clear()


def test_hasse_weil_failure_names_a_twisted_field(monkeypatch):
    # only the twist eps = 2 is counted wrong: the first failing field is
    # the first squarefree D of genus 1 with u = 2
    real = kernels.point_count_tables

    def bad_twists(K, d, r_max):
        plain, _ = real(K, d, r_max)
        return plain, [tuple(4 * K.q**r + 1 for r in range(1, r_max + 1))] * K.q**d

    monkeypatch.setattr(kernels, "point_count_tables", bad_twists)
    field_classes.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=r"q5_D\[T\^3\+1\]_u2 failed Hasse-Weil"):
            field_classes(5, 5)
    finally:
        field_classes.cache_clear()


def test_enumeration_small():
    fields = enumerate_quadratic_fields(3, 1)
    assert len(fields) == 6
    assert {f.D for f in fields} == {(0, 1), (1, 1), (2, 1)}
    assert {f.u for f in fields} == {1, 2}
    assert all(f.genus == 0 for f in fields)


def test_enumeration_counts_by_degree():
    fields = enumerate_quadratic_fields(3, 4)
    per_degree = {}
    for f in fields:
        per_degree[f.deg_D] = per_degree.get(f.deg_D, 0) + 1
    # 2 * (number of monic squarefree of each degree): q, then q^d - q^(d-1)
    assert per_degree == {1: 6, 2: 12, 3: 36, 4: 108}
    assert all(f.genus == (f.deg_D - 1) // 2 for f in fields)


def test_even_q_refused():
    with pytest.raises(RefusalError):
        enumerate_quadratic_fields(2, 2)


def test_point_count_examples():
    # y^2 = T^3 - T over F_3: x^3 - x vanishes everywhere, plus one point
    # at infinity
    assert curve_point_counts(K3, 1, T3T, 1) == (4,)
    assert curve_point_counts(K3, 2, T3T, 1) == (4,)
    # genus 0, deg D = 1: the projective line
    assert curve_point_counts(K3, 1, (0, 1), 1) == (4,)
    # over F_9 the same curve has |N_2 - (q^2+1)| <= 2g sqrt(q^2) = 6
    n2 = curve_point_counts(K3, 1, T3T, 2)[1]
    assert abs(n2 - 10) <= 6


def test_build_descriptor():
    d = build_descriptor(3, 1, (4,))
    assert d.L == (1, 0, 3) and d.J == 4
    d0 = build_descriptor(3, 0, ())
    assert d0.L == (1,) and d0.J == 1
    with pytest.raises(ValueError):
        build_descriptor(3, 1, ())
    # genus 2 from two counts: functional equation holds by construction
    fields = [f for f in enumerate_quadratic_fields(3, 5) if f.genus == 2]
    assert fields
    for f in fields[:5]:
        L = f.descriptor.L
        assert len(L) == 5 and L[3] == 3 * L[1] and L[4] == 9


def test_descriptors_pass_hasse_weil_up_to_deg6():
    fields = enumerate_quadratic_fields(3, 6)
    assert len(fields) == 2 * (3 + 6 + 18 + 54 + 162 + 486)
    for f in fields:
        assert hasse_weil_check(f.descriptor)["ok"]


def test_degree1_places_match_divisor_count():
    # a(1) of the curve equals the number of degree-1 places, which is N_1
    for f in enumerate_quadratic_fields(3, 4):
        if f.genus == 1:
            assert divisor_counts(f.descriptor, 1)[1] == f.point_counts[0]


def test_twist_pairing():
    fields = enumerate_quadratic_fields(3, 4)
    by_D = {}
    for f in fields:
        by_D.setdefault(f.D, []).append(f)
    for D, pair in by_D.items():
        assert len(pair) == 2
        if pair[0].genus >= 1:
            assert pair[0].descriptor.L[1] + pair[1].descriptor.L[1] == 0


def test_field_distinctness():
    fields = enumerate_quadratic_fields(3, 3)
    for f1, f2 in itertools.combinations(fields, 2):
        assert not same_field(K3, f1.D, f1.u, f2.D, f2.u)
    # sanity: u*D and (u*c^2)*D do generate the same field
    assert same_field(K3, (0, 1), 1, (0, 1), 1)
    assert same_field(K3, (0, 1), 2, (0, 0, 0, 1), 2)  # T vs T^3 = T * T^2


def test_min_generator_height_bound():
    fields = enumerate_quadratic_fields(3, 3)
    f = [f for f in fields if f.D == T3T and f.u == 1][0]
    assert min_generator_height_bound(f) == Fraction(3, 2)
    f1 = [f for f in fields if f.D == (0, 1) and f.u == 1][0]
    assert min_generator_height_bound(f1) == Fraction(1, 2)


def test_constant_field_preserved():
    # Y^2 - u*D stays irreducible over F_9(T) for every enumerated field
    for f in enumerate_quadratic_fields(3, 3):
        neg_uD = poly.neg(K3, poly.mul_scalar(K3, f.D, f.u))
        assert poly.quadratic_stays_irreducible(K3, poly.ONE, poly.ZERO, neg_uD)


def test_genus3_descriptor_from_counts():
    # Newton identities at genus 3, checked against independent
    # place-count recomputations of the divisor numbers
    D = (1, 1, 0, 0, 0, 0, 0, 1)  # T^7 + T + 1, squarefree
    _, s, _ = poly.squarefree_part(K3, D)
    assert s == D
    counts = curve_point_counts(K3, 1, D, 3)
    desc = build_descriptor(3, 3, counts)
    assert hasse_weil_check(desc)["ok"]
    a = divisor_counts(desc, 2)
    n1, n2 = counts[0], counts[1]
    assert a[1] == n1
    assert a[2] == (n2 - n1) // 2 + n1 * (n1 + 1) // 2


def test_deterministic_order():
    a = enumerate_quadratic_fields(3, 3)
    b = enumerate_quadratic_fields(3, 3)
    assert [f.label() for f in a] == [f.label() for f in b]
    degs = [f.deg_D for f in a]
    assert degs == sorted(degs)


@pytest.mark.parametrize("cell", verify.FIELD_TABLE_CELLS)
def test_field_tables_match_naive_definitions(cell):
    # verify's checks, one cell each: the squarefree kernel against the
    # factoring squarefree part, the point-count tables against
    # curve_point_counts
    for check in (verify._squarefree_sieve, verify._point_count_table):
        message, ok = check((cell,))
        assert ok, message


@functools.cache
def _field_tables(q, d):
    K = GF(q)
    return kernels.squarefree_kernel(K, d), kernels.point_count_tables(K, d, max((d - 1) // 2, 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cell=st.sampled_from([(5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (7, 4), (3, 7)]),
       low=st.integers(0, 7**4 - 1), twist=st.booleans())
def test_field_tables_sample_at_the_largest_cells(cell, low, twist):
    q, d = cell
    K = GF(q)
    code = low % q**d
    D = poly.from_code(q, code, pad=d) + (1,)
    u = K.non_square_unit() if twist else 1
    kernel, tables = _field_tables(q, d)
    assert kernel[q**d + code] == poly.to_code(q, poly.squarefree_part(K, D)[1])
    counts = tables[twist][code]
    assert counts == curve_point_counts(K, u, D, len(counts))


def test_genus4_tables_read_every_s_off_the_largest_r():
    # at genus 4 only r = 3 and r = 4 get a table: r = 4 supplies s = 1, 2
    # and 4, whose characters differ from the restriction of chi_4 at
    # s = 1 and 2, and r = 3 supplies s = 3
    K, d = GF(3), 9
    plain, twisted = kernels.point_count_tables(K, d, 4)
    rng = random.Random(20)
    for code in rng.sample(range(3**d), 12):
        D = poly.from_code(3, code, pad=d) + (1,)
        assert plain[code] == curve_point_counts(K, 1, D, 4), code
        assert twisted[code] == curve_point_counts(K, 2, D, 4), code


def test_orbit_table_over_a_non_prime_field():
    # every code at q = 9, d = 3: Frobenius x -> x^9 on F_81, whose table
    # also supplies r = 1
    K = GF(9)
    eps = K.non_square_unit()
    plain, twisted = kernels.point_count_tables(K, 3, 2)
    for code, D in enumerate(poly.enumerate_monic(K, 3)):
        expected = tuple(curve_point_counts(K, u, D, 2) for u in (1, eps))
        assert (plain[code], twisted[code]) == expected, D


@pytest.mark.parametrize("q, d_max", [(3, 7), (5, 5), (7, 4), (9, 3)])
def test_monic_formatter_equals_format_poly(q, d_max):
    for d in range(1, d_max + 1):
        format_D = monic_formatter(q, d)
        for code, D in enumerate(poly.enumerate_monic(GF(q), d)):
            assert format_D(code) == poly.format_poly(D)


@pytest.mark.parametrize("q, degD_max", [(3, 6), (5, 5)])
def test_twisted_point_counts(q, degD_max):
    # eps is a non-square in F_{q^r} for odd r and a square for even r, so
    # over odd r each x, and infinity, gives the pair 2 points, and over
    # even r the two curves are isomorphic
    by_D = {}
    for f in enumerate_quadratic_fields(q, degD_max):
        by_D.setdefault(f.D, []).append(f.point_counts)
    for D, (plain, twisted) in by_D.items():
        for r, (n1, n_eps) in enumerate(zip(plain, twisted), start=1):
            if r % 2:
                assert n1 + n_eps == 2 * q**r + 2, (D, r)
            else:
                assert n1 == n_eps, (D, r)


@pytest.mark.parametrize("q, r", [(2, 6), (3, 1), (3, 4), (5, 3), (7, 2), (9, 2)])
def test_frobenius_orbit_count_matches_the_orbits(q, r):
    Kr, _ = constant_extension(GF(q), r)
    assert frobenius_orbit_count(q, r) == len(kernels._frobenius_orbits(Kr, q)[0])


def test_enumeration_budget_prices_each_table_alone():
    # deg D <= 2 builds no Horner table, but code-sum tables of q^4 + q^2
    # entries, and deg D <= 4 ones of q^6 + q^4; each table is checked on
    # its own, so q=5, deg D <= 7 (99450000 weighted Horner entries) passes
    for q, degD_max in ((73, 2), (17, 4), (5, 7), (3, 10)):
        check_enumeration_budget(q, degD_max, 10**8)
    for q, degD_max in ((79, 2), (19, 4)):
        with pytest.raises(RefusalError, match="at cost 3 per code-sum entry"):
            check_enumeration_budget(q, degD_max, 10**8)


@pytest.mark.parametrize("q, degD_max", [(3, 7), (5, 5), (9, 3)])
def test_enumeration_budget_counts_the_horner_entries(monkeypatch, q, degD_max):
    # the budget charges each entry of the Horner tables the enumeration
    # builds: q^d rows of one entry per Frobenius orbit rep
    entries = []
    real = kernels._orbit_sums

    def counted(K, d, r, subs):
        Kr, _ = constant_extension(K, r)
        entries.append(K.q**d * len(kernels._frobenius_orbits(Kr, K.q)[0]))
        return real(K, d, r, subs)

    monkeypatch.setattr(kernels, "_orbit_sums", counted)
    field_classes.__wrapped__(q, degD_max)  # past the cache, so that every table is built
    cost = HORNER_ENTRY_COST * sum(entries)
    check_enumeration_budget(q, degD_max, cost)
    with pytest.raises(RefusalError, match=f"needs {cost} weighted Horner row entries > "
                                           f"budget {cost - 1};"):
        check_enumeration_budget(q, degD_max, cost - 1)

import itertools
from fractions import Fraction

import pytest

from ffcount import poly, quadratic
from ffcount.errors import ConsistencyError, RefusalError
from ffcount.gf import GF
from ffcount.quadratic import (
    build_descriptor,
    curve_point_counts,
    enumerate_quadratic_fields,
    min_generator_height_bound,
    same_field,
)
from ffcount.zeta import divisor_counts, hasse_weil_check

K3 = GF(3)
T3T = (0, 2, 0, 1)  # T^3 - T


def test_hasse_weil_failure_raises(monkeypatch):
    def bad_counts(K, u, D, r_max):
        return tuple(4 * K.q**r + 1 for r in range(1, r_max + 1))

    monkeypatch.setattr(quadratic, "curve_point_counts", bad_counts)
    enumerate_quadratic_fields.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="Hasse-Weil"):
            enumerate_quadratic_fields(3, 3)
    finally:
        enumerate_quadratic_fields.cache_clear()


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
        coeffs = (neg_uD, poly.ZERO, (1,))
        assert poly.stays_irreducible_over_constant_extension(K3, coeffs, 2)


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

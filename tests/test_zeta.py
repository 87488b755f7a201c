from fractions import Fraction

import pytest

from ffcount.errors import DescriptorError, RefusalError
from ffcount.verify import count_divisors_by_enumeration
from ffcount.zeta import (
    CurveDescriptor,
    closed_form_divisor_count,
    divisor_counts,
    euler_gap_lower_bound,
    euler_product_truncation,
    euler_truncation_bound,
    hasse_weil_check,
    moebius_sums,
    parse_descriptor,
    schanuel_constant,
    serialize_descriptor,
    weil_interval,
    zeta_value,
)

R2 = CurveDescriptor.rational(2)
R3 = CurveDescriptor.rational(3)
E1 = CurveDescriptor(3, 1, (1, 0, 3))  # J = 4

TEST_DESCRIPTORS = [
    R2,
    R3,
    CurveDescriptor.rational(5),
    E1,
    CurveDescriptor(3, 1, (1, 2, 3)),
    CurveDescriptor(3, 1, (1, -2, 3)),
    CurveDescriptor(2, 1, (1, -2, 2)),  # one rational point, J = 1
    CurveDescriptor(2, 2, (1, 1, 2, 2, 4)),
]


def test_descriptor_validation():
    with pytest.raises(DescriptorError):
        CurveDescriptor(2, 0, (2,))  # L(0) != 1
    with pytest.raises(DescriptorError):
        CurveDescriptor(2, 1, (1, 0, 3))  # functional equation: needs qt^2
    with pytest.raises(DescriptorError):
        CurveDescriptor(3, 1, (1, -5, 3))  # J = -1
    for q in (1, 6, 10):  # no field has q elements
        with pytest.raises(DescriptorError, match="not a prime power"):
            CurveDescriptor(q, 0, (1,))
    assert E1.J == 4


def test_divisor_count_examples():
    assert divisor_counts(R2, 3) == [1, 3, 7, 15]
    assert divisor_counts(R3, 2) == [1, 4, 13]
    assert divisor_counts(E1, 1) == [1, 4]
    assert all(CurveDescriptor.rational(q) for q in (2, 3))
    assert divisor_counts(E1, 0) == [1]


def test_moebius_sum_examples():
    assert moebius_sums(R2, 5) == [1, -3, 2, 0, 0, 0]
    assert moebius_sums(R2, 0) == [1]
    assert moebius_sums(E1, 3) == [1, -4, 0, 12]


def test_sequences_match_direct_enumeration():
    for q in (2, 3):
        desc = CurveDescriptor.rational(q)
        a_enum, b_enum = count_divisors_by_enumeration(q, 4)
        assert a_enum == divisor_counts(desc, 4)
        assert b_enum == moebius_sums(desc, 4)


def test_convolution_identity():
    for desc in TEST_DESCRIPTORS:
        a = divisor_counts(desc, 12)
        b = moebius_sums(desc, 12)
        for l in range(13):
            assert sum(a[i] * b[l - i] for i in range(l + 1)) == (1 if l == 0 else 0)


def test_closed_form_window():
    for desc in TEST_DESCRIPTORS:
        a = divisor_counts(desc, 12)
        for m in range(max(0, 2 * desc.g - 1), 13):
            assert a[m] == closed_form_divisor_count(desc, m)
    # the genus-1 value right at the window edge
    assert closed_form_divisor_count(E1, 1) == 4


def test_zeta_values():
    assert zeta_value(R2, 2) == Fraction(8, 3)
    assert zeta_value(R3, 2) == Fraction(27, 16)
    assert zeta_value(E1, 2) == Fraction(7, 4)
    for desc in TEST_DESCRIPTORS:
        for s in (2, 3, 4):
            assert zeta_value(desc, s) > 1
    with pytest.raises(ValueError):
        zeta_value(R2, 1)


def test_zeta_dominated_by_rational_power():
    # zeta_K(s) <= zeta_{F_q(T)}(s)^e with e = 2 for quadratic extensions
    from ffcount.quadratic import enumerate_quadratic_fields

    for f in enumerate_quadratic_fields(3, 4):
        for s in (2, 3):
            assert 1 < zeta_value(f.descriptor, s) <= zeta_value(R3, s) ** 2


def test_schanuel_constants():
    assert schanuel_constant(R2, 2) == Fraction(3, 2)
    assert schanuel_constant(R2, 3) == Fraction(21, 4)
    assert schanuel_constant(E1, 2) == Fraction(8, 7)
    with pytest.raises(ValueError):
        schanuel_constant(R2, 1)


def test_euler_product_small_values():
    assert euler_product_truncation(2, 2, 0) == 1
    assert euler_product_truncation(2, 2, 1) == Fraction(64, 27)
    # gap enclosed by its certificates for several truncations
    for q, s, D in ((2, 2, 9), (2, 3, 7), (3, 2, 6), (3, 3, 5)):
        gap = zeta_value(CurveDescriptor.rational(q), s) - euler_product_truncation(q, s, D)
        assert euler_gap_lower_bound(q, s, D) <= gap <= euler_truncation_bound(q, s, D)


def test_euler_product_size_guard():
    with pytest.raises(RefusalError):
        euler_product_truncation(3, 2, 20)


def test_euler_product_refusal_point():
    # at q=2, s=2 the bit estimate admits D = 18 (2092532 bits against the
    # limit of 2097152) and refuses D = 19
    assert 1 < euler_product_truncation(2, 2, 18) < zeta_value(CurveDescriptor.rational(2), 2)
    with pytest.raises(RefusalError, match=r"at q=2, D=19 needs ~4189676 bits, above the "
                                           r"limit of 2097152"):
        euler_product_truncation(2, 2, 19)


def test_euler_bound_decreases():
    bounds = [euler_truncation_bound(2, 2, D) for D in range(1, 12)]
    assert all(b1 > b2 > 0 for b1, b2 in zip(bounds, bounds[1:]))


def test_weil_interval():
    assert weil_interval(3, 1) == (4, 2)  # (sqrt3 +- 1)^2 = 4 +- 2 sqrt3
    assert weil_interval(3, 2) == (28, 16)
    assert weil_interval(2, 0) == (1, 0)


def test_hasse_weil_check():
    assert hasse_weil_check(E1)["ok"]
    assert hasse_weil_check(R2)["ok"]
    bad = CurveDescriptor(3, 1, (1, 5, 3))  # J = 9 > (sqrt3+1)^2
    rep = hasse_weil_check(bad)
    assert not rep["ok"]
    assert any("class number" in f or "c1" in f for f in rep["failures"])


def test_descriptor_file_roundtrip():
    for desc in TEST_DESCRIPTORS:
        assert parse_descriptor(serialize_descriptor(desc)) == desc
    text = "# comment\nq = 3\ng = 1\nL_coeffs = 1, 0, 3\n"
    assert parse_descriptor(text) == E1


def test_descriptor_file_errors():
    with pytest.raises(DescriptorError, match="line 2"):
        parse_descriptor("q = 3\nbogus line\n")
    with pytest.raises(DescriptorError, match="line 2"):
        parse_descriptor("q = 3\nzz = 1\n")
    with pytest.raises(DescriptorError, match="line 3"):
        parse_descriptor("q = 3\ng = 0\nq = 2\nL_coeffs = 1\n")
    with pytest.raises(DescriptorError, match="missing"):
        parse_descriptor("q = 3\ng = 0\n")
    with pytest.raises(DescriptorError, match="line 3"):
        parse_descriptor("q = 3\ng = 0\nL_coeffs = 1, x\n")
    with pytest.raises(DescriptorError, match="functional equation"):
        parse_descriptor("q = 3\ng = 1\nL_coeffs = 1, 0, 2\n")
    with pytest.raises(DescriptorError, match="6 is not a prime power"):
        parse_descriptor("q = 6\ng = 0\nL_coeffs = 1\n")


def test_sequences_in_a_descriptor_become_tuples():
    # equal descriptors must hash alike: moebius_point_count caches on them
    listed = CurveDescriptor(3, 1, [1, 0, 3], class_dims=[[1], [0], [0], [0]])
    tupled = CurveDescriptor(3, 1, (1, 0, 3), class_dims=((1,), (0,), (0,), (0,)))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.L == (1, 0, 3) and listed.class_dims == ((1,), (0,), (0,), (0,))
    assert CurveDescriptor(3, 0, [1]) == R3


def test_class_dims_descriptor_roundtrip():
    desc = CurveDescriptor(3, 1, (1, 0, 3), class_dims=((1,), (0,), (0,), (0,)))
    back = parse_descriptor(serialize_descriptor(desc))
    assert back.class_dims == desc.class_dims

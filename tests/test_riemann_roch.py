import itertools

import pytest

from ffcount import poly
from ffcount.errors import DescriptorError
from ffcount.gf import GF
from ffcount.places import (
    INFINITY,
    Divisor,
    Place,
    genus0_section_basis,
    rf,
    section_space_contains,
)
from ffcount.quadratic import enumerate_quadratic_fields
from ffcount.riemann_roch import (
    build_class_model,
    class_dimension,
    class_sum_identity_check,
    clifford_sum_check,
    lambda_sum,
    reflection_identity_check,
)
from ffcount.zeta import CurveDescriptor, divisor_counts

K2, K3 = GF(2), GF(3)
T = (0, 1)
R2 = build_class_model(CurveDescriptor.rational(2))
E1 = build_class_model(CurveDescriptor(3, 1, (1, 0, 3)))


def test_dimension_formulas():
    # l(a, n) = n * l(a, 1) for n-tuples; negative degree: 0
    assert 5 * class_dimension(R2, 1, -1) == 0
    # genus 0: l = n (i+1)
    assert 3 * class_dimension(R2, 1, 2) == 9
    # genus 1 at degree 0: only the zero class has sections
    assert 2 * class_dimension(E1, 1, 0) == 2
    for j in (2, 3, 4):
        assert class_dimension(E1, j, 0) == 0
    with pytest.raises(ValueError):
        class_dimension(E1, 5, 0)


def test_l_scales_linearly_in_n():
    # lambda_sum counts the nonzero n-tuples of the spaces L(a_j + i*a_0),
    # of dimension n * l(a_j + i*a_0, 1), below, in and above the window
    for model in (R2, E1):
        for i in range(-1, 5):
            for n in (1, 2, 3, 4):
                assert lambda_sum(model, i, n) == sum(
                    model.q ** (n * class_dimension(model, j, i)) - 1
                    for j in range(1, model.J + 1))


def test_lambda_sum_values():
    # genus 1, q=3, J=4: degree 0 only the principal class counts
    assert lambda_sum(E1, 0, 2) == 3**2 - 1
    assert lambda_sum(E1, 1, 2) == 4 * (3**2 - 1)
    assert lambda_sum(E1, -3, 2) == 0


def test_genus0_section_basis():
    # a = m*oo: polynomials of degree <= m
    basis = genus0_section_basis(K2, Divisor({INFINITY: 2}))
    assert [f.num for f in basis] == [(1,), (0, 1), (0, 0, 1)]
    # a = 0: constants
    basis = genus0_section_basis(K2, Divisor({}))
    assert [f.num for f in basis] == [(1,)]
    # negative degree: empty
    assert genus0_section_basis(K2, Divisor({INFINITY: -1})) == []


def test_genus0_basis_membership_and_span_size():
    # degree-2 divisor (T) + oo: dimension 3, checked by brute membership
    div = Divisor({Place(T): 1, INFINITY: 1})
    basis = genus0_section_basis(K2, div)
    assert len(basis) == 3
    for f in basis:
        assert section_space_contains(K2, div, f)
    # span cardinality equals q^(deg + 1): combinations c0/T + c1 + c2*T
    span = set()
    for coeffs in itertools.product(range(2), repeat=3):
        num = poly.normalize(coeffs)  # over the common denominator T
        x = rf(K2, num, T)
        span.add((x.num, x.den))
    assert len(span) == 2**3
    # brute membership over a candidate pool finds exactly the span
    members = set()
    for num in poly.enumerate_polys(K2, 4):
        for den in (poly.ONE, T, (0, 0, 1)):
            x = rf(K2, num, den)
            if section_space_contains(K2, div, x):
                members.add((x.num, x.den))
    assert members == span


def test_class_sum_identity():
    for model in (R2, E1):
        assert class_sum_identity_check(model, 8)


def test_reflection_identity_genus1():
    for n in (1, 2, 3):
        assert reflection_identity_check(E1, 0, n)
    with pytest.raises(ValueError):
        reflection_identity_check(R2, 0, 2)


def test_clifford_sum_bound_values():
    # q=3, J=4, genus 1, degree 0: sum is q^n - 1, bound n(q-1)a(0)q^(n-1)
    assert lambda_sum(E1, 0, 2) == 8
    assert clifford_sum_check(E1, 0, 2)  # 8^2 = 64 <= (2*2)^2 * 3^2 = 144
    assert clifford_sum_check(E1, 0, 3)  # 26^2 <= (3*2)^2 * 3^4


def test_clifford_and_reflection_all_enumerated_genus1():
    for f in enumerate_quadratic_fields(3, 4):
        model = build_class_model(f.descriptor)
        for i in range(0, 2 * model.g - 1):
            for n in (2, 3):
                assert clifford_sum_check(model, i, n)
                assert reflection_identity_check(model, i, n)


def test_genus2_external_table_accepted_and_validated(genus2_field):
    f, desc = genus2_field
    assert f.J >= divisor_counts(f.descriptor, 1)[1]  # point classes embed
    model = build_class_model(desc)
    assert class_sum_identity_check(model, 6)
    for i in (0, 1, 2):
        for n in (1, 2, 3):
            assert reflection_identity_check(model, i, n)
            assert clifford_sum_check(model, i, n)


def test_genus2_table_rejections(genus2_field):
    desc = genus2_field[0].descriptor
    good = genus2_field[1].class_dims
    with pytest.raises(DescriptorError):
        build_class_model(CurveDescriptor(desc.q, 2, desc.L))  # table missing
    # Clifford violation
    bad = (tuple([3] + list(good[0][1:])),) + good[1:]
    with pytest.raises(DescriptorError):
        build_class_model(CurveDescriptor(desc.q, 2, desc.L, class_dims=bad))
    # two principal classes at degree 0
    bad = (good[0], (1,) + good[1][1:]) + good[2:]
    with pytest.raises(DescriptorError):
        build_class_model(CurveDescriptor(desc.q, 2, desc.L, class_dims=bad))
    # class-sum identity broken (swap a degree-2 dim from 1 to 0)
    bad = good[:-1] + ((good[-1][0], good[-1][1], 0),)
    with pytest.raises(DescriptorError):
        build_class_model(CurveDescriptor(desc.q, 2, desc.L, class_dims=bad))


def test_class_dimension_degree_window():
    assert class_dimension(E1, 1, 7) == 7  # i + 1 - g above the window
    assert class_dimension(R2, 1, 4) == 5

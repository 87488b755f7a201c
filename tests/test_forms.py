import random

import pytest

from ffcount.counting import brute_count_rational, count_fixed_degree_points
from ffcount.errors import ConsistencyError, RefusalError
from ffcount.forms import (
    FormTable,
    brute_force_forms,
    form_count,
    form_count_identity_check,
    form_table,
    frobenius_height,
    separable_point_count,
)


def test_form_table():
    # the counts N(2, d/p^i, m), and N(2, d/p, m/p) when p | d and p | m
    assert form_table(3, 2, 1) == FormTable(3, 2, 2, 1, {2: 432})
    assert form_table(2, 2, 1) == FormTable(2, 2, 2, 1, {2: 42, 1: 6})
    assert form_table(2, 2, 2) == FormTable(2, 2, 2, 2, {2: 414, 1: 24}, frobenius=6)


def test_separable_point_count():
    # p does not divide d: everything is separable
    t = FormTable(3, 2, 2, 1, {2: 432})
    assert separable_point_count(t) == 432
    # p = d = 2
    t = FormTable(2, 2, 2, 1, {2: 42, 1: 6})
    assert separable_point_count(t) == 36
    # d = p^2
    t = FormTable(2, 2, 4, 1, {4: 100, 2: 30, 1: 6})
    assert separable_point_count(t) == 70


def test_form_count_cases():
    # empty p-power sum: NF = N / d
    assert form_count(FormTable(3, 2, 2, 1, {2: 432})) == 216
    # p | d: d*NF = N(d) + (p-1) N(d/p)
    assert form_count(FormTable(2, 2, 2, 1, {2: 42, 1: 6})) == 24
    # d = p^2 = 4: 4*NF = N(4) + N(2) + 2 N(1)
    assert form_count(FormTable(2, 2, 4, 0, {4: 10, 2: 4, 1: 1})) == 4
    with pytest.raises(ConsistencyError):
        form_count(FormTable(3, 2, 2, 0, {2: 5}))
    # p | d and p | m: 2*NF = N(2) + N(1) - N(1, m/2).  Without the
    # Frobenius count the integral but wrong (414 + 24) / 2 = 219 is refused
    assert form_count(FormTable(2, 2, 2, 2, {2: 414, 1: 24}, frobenius=6)) == 216
    with pytest.raises(ConsistencyError):
        form_count(FormTable(2, 2, 2, 2, {2: 414, 1: 24}))
    with pytest.raises(KeyError):
        form_count(FormTable(2, 2, 2, 0, {2: 4}))


def test_identity_holds_on_arbitrary_tables():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        r = rng.randrange(3)
        s = rng.choice([v for v in (1, 2, 3) if v % p])
        d = s * p**r
        counts = {d // p**i: rng.randrange(10**6) for i in range(r + 1)}
        t = FormTable(p, rng.choice([2, 3]), d, rng.randrange(4), counts)
        assert form_count_identity_check(t)
    assert form_count_identity_check(FormTable(2, 2, 4, 0, {4: 0, 2: 0, 1: 0}))


def test_oracle_odd_q():
    for m in (0, 1, 2):
        t = form_table(3, 2, m)
        assert brute_force_forms(3, 2, 2, m) == form_count(t)


def test_oracle_char2_height1():
    t = form_table(2, 2, 1)
    assert form_count(t) == 24
    assert brute_force_forms(2, 2, 2, 1) == 24


def test_char2_height0_relation_is_not_integral():
    # N(2,2,0) = 0 and N(2,1,0) = 3: the weighted-sum relation gives 3/2
    # while the direct form count is 0.  The relation's surjectivity step
    # fails for heights divisible by p (Frobenius images need subtracting),
    # so a table without the Frobenius count is refused rather than
    # answered; the corrected relation below is exact.
    t = FormTable(2, 2, 2, 0, {2: 0, 1: 3})
    assert brute_force_forms(2, 2, 2, 0) == 0
    with pytest.raises(ConsistencyError):
        form_count(t)


def test_frobenius_height():
    assert frobenius_height(2, 2, 0) == 0
    assert frobenius_height(2, 2, 4) == 2
    assert frobenius_height(2, 2, 3) is None
    assert frobenius_height(3, 2, 3) is None  # p does not divide d
    assert frobenius_height(2, 4, 2) is None  # p^2 | d: no settled correction
    assert frobenius_height(3, 6, 3) == 1


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_corrected_form_count_matches_oracle_char2(m):
    assert form_count(form_table(2, 2, m)) == brute_force_forms(2, 2, 2, m)


@pytest.mark.parametrize("m", [0, 1])
def test_char2_corrected_relation(m):
    # 2*NF = N(2,2,m) + N(2,1,m) - [2|m] N(2,1,m/2): inseparable factor
    # points are rational points minus Frobenius images
    n22 = count_fixed_degree_points(2, 2, m)
    n21 = brute_count_rational(2, 2, m)
    corr = brute_count_rational(2, 2, m // 2) if m % 2 == 0 else 0
    assert 2 * brute_force_forms(2, 2, 2, m) == n22 + n21 - corr


def test_oracle_refusals():
    with pytest.raises(RefusalError):
        brute_force_forms(3, 3, 2, 1)
    with pytest.raises(RefusalError):
        brute_force_forms(3, 2, 2, 5, budget=100)

import itertools
import math
import random

import pytest

from ffcount import poly
from ffcount.gf import GF
from ffcount.places import (
    INFINITY,
    Divisor,
    Place,
    divisor_of_vector,
    enumerate_places,
    height_relative,
    ord_at,
    ord_vec,
    rf,
    vector_to_coprime_polys,
)

K2, K3 = GF(2), GF(3)
T = (0, 1)


def test_ord_examples():
    place_T = Place(T)
    # ord_T(T^2/(T+1)) = 2 over F_2
    assert ord_at(K2, place_T, rf(K2, (0, 0, 1), (1, 1))) == 2
    # ord_oo(T) = -1
    assert ord_at(K2, INFINITY, rf(K2, T)) == -1
    # ord(0) = +infinity
    assert ord_at(K2, place_T, rf(K2, poly.ZERO)) == math.inf
    assert ord_at(K2, INFINITY, rf(K2, poly.ZERO)) == math.inf


def test_ord_vec():
    one, t = rf(K2, (1,)), rf(K2, T)
    assert ord_vec(K2, INFINITY, [one, t]) == -1
    assert ord_vec(K2, INFINITY, [rf(K2, poly.ZERO)] * 2) == math.inf
    assert ord_vec(K2, INFINITY, [one, t, rf(K2, (1, 0, 1))]) == -2


def test_divisor_examples():
    # single coordinate (T): principal divisor (T) - oo, degree 0
    d = divisor_of_vector(K2, [rf(K2, T)])
    assert d[Place(T)] == 1 and d[INFINITY] == -1
    assert d.degree() == 0
    # (1, T): only infinity contributes
    d = divisor_of_vector(K2, [rf(K2, (1,)), rf(K2, T)])
    assert d.coeffs == {INFINITY: -1}
    # (1, 1): zero divisor
    d = divisor_of_vector(K2, [rf(K2, (1,)), rf(K2, (1,))])
    assert d.coeffs == {}
    with pytest.raises(ValueError):
        divisor_of_vector(K2, [rf(K2, poly.ZERO)])


def test_principal_divisors_have_degree_zero():
    rng = random.Random(7)
    pool = [f for f in poly.enumerate_polys(K3, 6) if f]
    for _ in range(60):
        num, den = rng.choice(pool), rng.choice(pool)
        assert divisor_of_vector(K3, [rf(K3, num, den)]).degree() == 0


def test_height_examples():
    assert height_relative(K2, [rf(K2, (1,)), rf(K2, T)]) == 1
    assert height_relative(K2, [rf(K2, (1,)), rf(K2, T), rf(K2, (1, 0, 1))]) == 2


def test_height_projective_invariance():
    vec = [rf(K3, (1, 2), (0, 1)), rf(K3, (0, 0, 1))]
    h = height_relative(K3, vec)
    # scalars from k*: constants, polynomials, and rational functions
    for lam_num, lam_den in [((2,), (1,)), ((0, 1), (1,)), ((1, 1, 2), (1,)),
                             ((1,), (0, 1)), ((2, 1), (1, 0, 1))]:
        scaled = [
            rf(K3, poly.mul(K3, x.num, lam_num), poly.mul(K3, x.den, lam_den))
            for x in vec
        ]
        assert height_relative(K3, scaled) == h
    # nonnegative whenever a coordinate is 1
    assert height_relative(K3, [rf(K3, (1,)), vec[0]]) >= 0


def test_height_two_algorithms_exhaustive():
    # divisor route vs max degree of the coprime representative
    for K, dmax in ((K2, 4), (K3, 2)):
        for f, g in itertools.product(poly.enumerate_polys(K, dmax), repeat=2):
            if not f and not g:
                continue
            vec = [rf(K, f), rf(K, g)]
            rep = vector_to_coprime_polys(K, vec)
            assert height_relative(K, vec) == max(poly.deg(x) for x in rep)


def test_height_two_algorithms_rational_entries():
    rng = random.Random(3)
    pool = list(poly.enumerate_polys(K3, 4))
    nonzero = [f for f in pool if f]
    for _ in range(50):
        vec = [
            rf(K3, rng.choice(pool), rng.choice(nonzero)),
            rf(K3, rng.choice(pool), rng.choice(nonzero)),
        ]
        if all(x.is_zero() for x in vec):
            continue
        rep = vector_to_coprime_polys(K3, vec)
        assert poly.gcd_many(K3, rep) == poly.ONE
        lead = next(x for x in rep if x)
        assert lead[-1] == 1
        assert height_relative(K3, vec) == max(poly.deg(x) for x in rep)


def test_enumerate_places():
    ps = enumerate_places(K2, 1)
    assert len(ps) == 3 and ps[-1] is INFINITY
    assert {p.prime for p in ps[:-1]} == {(0, 1), (1, 1)}
    assert [p.degree for p in ps] == [1, 1, 1]
    assert len(enumerate_places(K2, 2)) == 1
    assert len(enumerate_places(K3, 1)) == 4
    with pytest.raises(ValueError):
        enumerate_places(K2, 0)


def test_divisor_arithmetic():
    d1 = Divisor({Place(T): 2, INFINITY: -1})
    d2 = Divisor({Place(T): -2, INFINITY: 3})
    s = d1 + d2
    assert s[Place(T)] == 0 and s[INFINITY] == 2
    assert s.degree() == 2
    assert (-d1)[Place(T)] == -2


def test_rational_function_normalization():
    x = rf(K3, (0, 2), (0, 0, 1))  # 2T / T^2 -> 2/T -> stored with monic den
    assert x.den == T
    assert x.num == (2,)
    with pytest.raises(ZeroDivisionError):
        rf(K3, (1,), poly.ZERO)

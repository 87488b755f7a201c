import itertools

import pytest

from ffcount import poly
from ffcount.errors import ConsistencyError, exact_quotient
from ffcount.gf import GF, constant_extension

K2, K3 = GF(2), GF(3)

T = (0, 1)


def P(*coeffs):
    return poly.normalize(coeffs)


def test_gcd_examples():
    # gcd(T^2+T, T) = T over F_2
    assert poly.gcd(K2, P(0, 1, 1), T) == T
    # unit case
    assert poly.gcd(K2, P(1, 1, 1), P(1)) == poly.ONE
    # T^3 - T = T(T-1)(T+1) and T^2 - 1 over F_3
    assert poly.gcd(K3, P(0, 2, 0, 1), P(2, 0, 1)) == P(2, 0, 1)
    with pytest.raises(ValueError):
        poly.gcd(K2, poly.ZERO, poly.ZERO)


def test_gcd_divides_exhaustive_deg4():
    for K in (K2, K3):
        polys = list(poly.enumerate_polys(K, 4))
        for f, g in itertools.product(polys, repeat=2):
            if not f and not g:
                continue
            d = poly.gcd(K, f, g)
            assert d and d[-1] == 1
            if f:
                assert not poly.rem(K, f, d)
            if g:
                assert not poly.rem(K, g, d)


def test_common_divisors_divide_gcd_exhaustive():
    for K, dmax in ((K2, 4), (K3, 3)):
        polys = list(poly.enumerate_polys(K, dmax))
        divisors = [h for h in polys if h]
        for f, g in itertools.product(polys, repeat=2):
            if not f and not g:
                continue
            d = poly.gcd(K, f, g)
            for h in divisors:
                if (not f or not poly.rem(K, f, h)) and (not g or not poly.rem(K, g, h)):
                    assert not poly.rem(K, d, h)


def test_mul_degree_additivity():
    for K in (K2, K3):
        for f in poly.enumerate_polys(K, 3):
            for g in poly.enumerate_polys(K, 2):
                if f and g:
                    assert poly.deg(poly.mul(K, f, g)) == poly.deg(f) + poly.deg(g)


def test_divmod_roundtrip():
    for f in poly.enumerate_polys(K3, 4):
        for g in poly.enumerate_polys(K3, 2):
            if not g:
                continue
            quo, rem = poly.divmod_(K3, f, g)
            assert poly.add(K3, poly.mul(K3, quo, g), rem) == f
            assert poly.deg(rem) < poly.deg(g)


def test_irreducibility_examples():
    assert poly.is_irreducible(K2, P(1, 1, 1))  # T^2+T+1
    assert not poly.is_irreducible(K2, P(0, 0, 1))  # T^2
    with pytest.raises(ValueError):
        poly.is_irreducible(K2, P(1))
    # the only monic irreducible quadratic over F_2
    assert len(poly.monic_irreducibles(K2, 2)) == 1
    assert poly.monic_irreducibles(K2, 2) == (P(1, 1, 1),)


@pytest.mark.parametrize("q,d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2),
                                 (4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 3), (5, 4)])
def test_irreducible_counts_match_necklace_formula(q, d):
    assert len(poly.monic_irreducibles(GF(q), d)) == poly.count_monic_irreducibles(q, d)


def test_exact_quotient_raises_on_a_remainder():
    assert exact_quotient(60, 4, "I_4(4)") == 15
    assert exact_quotient(-12, 3, "a negative count") == -4
    with pytest.raises(ConsistencyError, match=r"^I_4\(4\) is not integral: 61/4$"):
        exact_quotient(61, 4, "I_4(4)")


@pytest.mark.parametrize("q", [2, 3])
def test_irreducible_count_raises_on_a_wrong_lower_count(q, monkeypatch):
    # I_q(4) = (q^4 - I_q(1) - 2 I_q(2)) / 4, so one irreducible quadratic
    # too many leaves a remainder of 2, which must raise, not round away
    count = poly.count_monic_irreducibles
    monkeypatch.setattr(poly, "count_monic_irreducibles",
                        lambda q, d: count(q, d) + (d == 2))
    with pytest.raises(ConsistencyError, match=f"degree 4 over F_{q} is not integral"):
        count(q, 4)


def test_irreducible_count_needs_a_positive_degree():
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree >= 1"):
            poly.count_monic_irreducibles(2, d)


def test_enumerate_polys():
    assert list(poly.enumerate_polys(K2, 1)) == [poly.ZERO, P(1), P(0, 1), P(1, 1)]
    assert len(list(poly.enumerate_polys(K3, 0))) == 3
    assert len(list(poly.enumerate_polys(K2, 4))) == 32
    assert list(poly.enumerate_polys(K2, -1)) == [poly.ZERO]
    with pytest.raises(ValueError):
        list(poly.enumerate_polys(K2, -2))


def test_code_roundtrip():
    for q in (2, 3, 5):
        for code in range(q**3):
            assert poly.to_code(q, poly.from_code(q, code)) == code


def test_squarefree_part_examples():
    # T^2 (T+1) over F_3
    f = poly.mul(K3, P(0, 0, 1), P(1, 1))
    unit, s, h = poly.squarefree_part(K3, f)
    assert (unit, s, h) == (1, P(1, 1), T)
    # squarefree input stays put
    unit, s, h = poly.squarefree_part(K3, P(1, 0, 1))
    assert (s, h) == (P(1, 0, 1), poly.ONE)
    # (T^3 - T) * (T^2)^2
    f = poly.mul(K3, P(0, 2, 0, 1), P(0, 0, 0, 0, 1))
    unit, s, h = poly.squarefree_part(K3, f)
    assert s == P(0, 2, 0, 1)
    back = poly.mul_scalar(K3, poly.mul(K3, s, poly.mul(K3, h, h)), unit)
    assert back == f
    with pytest.raises(ValueError):
        poly.squarefree_part(K3, poly.ZERO)


def test_pth_power_is_not_squarefree():
    # T^p has zero derivative; the split must still see the repeated factor
    for K in (K2, K3):
        f = tuple([0] * K.p + [1])
        unit, s, h = poly.squarefree_part(K, f)
        assert poly.mul_scalar(K, poly.mul(K, s, poly.mul(K, h, h)), unit) == f
        assert h != poly.ONE


def test_squarefree_against_full_factorization():
    for K in (K2, K3):
        for f in poly.enumerate_polys(K, 6):
            if not f:
                continue
            unit, fac = poly.factor(K, f)
            _, s, _ = poly.squarefree_part(K, f)
            expect = poly.ONE
            for p, mult in sorted(fac.items()):
                if mult % 2:
                    expect = poly.mul(K, expect, p)
            assert s == expect


def test_factor_reassembles():
    for f in poly.enumerate_polys(K3, 5):
        if not f:
            continue
        unit, fac = poly.factor(K3, f)
        back = poly.constant(unit)
        for p, mult in fac.items():
            assert poly.is_irreducible(K3, p)
            back = poly.mul(K3, back, poly.pow_(K3, p, mult))
        assert back == f


def test_factor_without_irreducibles_raises(monkeypatch):
    # a broken irreducible table must surface as a ConsistencyError, which
    # python -O does not strip
    monkeypatch.setattr(poly, "monic_irreducibles", lambda K, d: ())
    with pytest.raises(ConsistencyError):
        poly.factor(K3, P(1, 0, 1))


def test_quadratic_stays_irreducible_odd():
    # Y^2 - T irreducible over F_9(T): T is no square there; Y^2 - T^2 not
    assert poly.quadratic_stays_irreducible(K3, P(1), poly.ZERO, P(0, 2))
    assert not poly.quadratic_stays_irreducible(K3, P(1), poly.ZERO, P(0, 0, 2))
    # Y^2 + 1 is irreducible over F_3(T), but its roots lie in F_9
    assert not poly.quadratic_stays_irreducible(K3, P(1), poly.ZERO, P(1))
    # zero discriminant: (Y + 1)^2
    assert not poly.quadratic_stays_irreducible(K3, P(1), P(2), P(1))
    with pytest.raises(ValueError):
        poly.quadratic_stays_irreducible(K3, poly.ZERO, P(1), P(1))


def test_quadratic_stays_irreducible_char2():
    # Y^2 + Y + T survives; Y^2 + Y + 1 splits over F_4(T), and so does
    # Y^2 + Y + T^2 + T + 1 = Y^2 + Y + (T^2 + T) + 1
    assert poly.quadratic_stays_irreducible(K2, P(1), P(1), T)
    assert not poly.quadratic_stays_irreducible(K2, P(1), P(1), P(1))
    assert not poly.quadratic_stays_irreducible(K2, P(1), P(1), P(1, 1, 1))
    # Y^2 + Y = Y(Y+1)
    assert not poly.quadratic_stays_irreducible(K2, P(1), P(1), poly.ZERO)
    # inseparable: Y^2 - T irreducible, Y^2 - T^2 = (Y-T)^2 not, and
    # T*Y^2 + 1 needs a*c = T, no square
    assert poly.quadratic_stays_irreducible(K2, P(1), poly.ZERO, T)
    assert not poly.quadratic_stays_irreducible(K2, P(1), poly.ZERO, P(0, 0, 1))
    assert poly.quadratic_stays_irreducible(K2, T, poly.ZERO, P(1))


def _has_root_over_square_extension(K, a, b, c):
    """Whether a*Y^2 + b*Y + c has a root in F_{q^2}(T), by trying every
    u/v with u | c and v | a monic in F_{q^2}[T]: a root in lowest terms
    has that shape (a*u^2 = -v*(b*u + c*v) and c*v^2 = -u*(a*u + b*v))."""
    big, emb = constant_extension(K, 2)
    a, b, c = (tuple(emb[x] for x in f) for f in (a, b, c))
    if not c:
        return True  # Y = 0
    divisors = lambda f: [g for g in poly.enumerate_polys(big, poly.deg(f))
                          if g and not poly.rem(big, f, g)]
    for v in divisors(a):
        if v[-1] != 1:
            continue
        for u in divisors(c):
            val = poly.add(big, poly.add(big, poly.mul(big, a, poly.mul(big, u, u)),
                                         poly.mul(big, b, poly.mul(big, u, v))),
                           poly.mul(big, c, poly.mul(big, v, v)))
            if not val:
                return True
    return False


def _check_against_root_search(K, m):
    polys = list(poly.enumerate_polys(K, m))
    for a in polys[1:]:
        for b in polys:
            for c in polys:
                got = poly.quadratic_stays_irreducible(K, a, b, c)
                assert got == (not _has_root_over_square_extension(K, a, b, c)), (a, b, c)


def test_char2_vs_exhaustive_root_search():
    # irreducibility over F_{q^2}(T) against explicit root enumeration; at
    # q=4 every constant quadratic splits over F_16, through w or w + c0
    for q, m in ((2, 2), (4, 0)):
        _check_against_root_search(GF(q), m)


def test_odd_q_vs_exhaustive_root_search():
    _check_against_root_search(K3, 1)


def test_format_poly():
    assert poly.format_poly(P(1, 0, 3)) == "3T^2+1"
    assert poly.format_poly(poly.ZERO) == "0"
    assert poly.format_poly(T) == "T"

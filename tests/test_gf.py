import pytest

from ffcount import poly
from ffcount.errors import ConsistencyError
from ffcount.gf import GF, FiniteField, prime_power


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    K = GF(q)
    els = list(K.elements())
    assert len(els) == q
    for a in els:
        assert K.add(a, 0) == a
        assert K.mul(a, 1) == a
        assert K.add(a, K.neg(a)) == 0
        for b in els:
            assert K.add(a, b) == K.add(b, a)
            assert K.mul(a, b) == K.mul(b, a)
            for c in els:
                assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
                assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
                assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    for a in K.units():
        assert K.mul(a, K.inv(a)) == 1


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        FiniteField(4)


def test_prime_power():
    assert [prime_power(q) for q in (2, 4, 9, 27, 97, 121)] == [
        (2, 1), (2, 2), (3, 2), (3, 3), (97, 1), (11, 2)]
    for q in (-3, 0, 1, 6, 12, 100):
        with pytest.raises(ValueError, match="not a prime power"):
            prime_power(q)


def test_default_modulus_search_failure_raises(monkeypatch):
    monkeypatch.setattr(poly, "is_irreducible", lambda K, f: False)
    with pytest.raises(ConsistencyError):
        FiniteField(3, 2)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 81, 125])
def test_default_modulus_is_the_first_candidate_that_builds_a_field(q, monkeypatch):
    # the naive definition: build the tables for each candidate in code
    # order and take the first in which every nonzero element has an inverse
    p, e = prime_power(q)
    with monkeypatch.context() as patch:
        patch.setattr(poly, "is_irreducible", lambda K, f: True)  # let any modulus build
        for code in range(p**e):
            cand = tuple((code // p**i) % p for i in range(e)) + (1,)
            K = FiniteField(p, e, cand)
            if all(K.inv(a) for a in K.units()):
                break
    assert FiniteField(p, e).modulus == GF(q).modulus == cand


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 81, 125])
def test_tables_match_polynomial_arithmetic_mod_the_modulus(q):
    # the naive definition: an element code is the poly code over F_p of
    # its coefficients in w, multiplied as polynomials and reduced
    K = GF(q)
    Fp = GF(K.p)
    polys = [poly.from_code(K.p, a) for a in K.elements()]
    for a, A in enumerate(polys):
        for b, B in enumerate(polys):
            assert K.add(a, b) == poly.to_code(K.p, poly.add(Fp, A, B))
            product = poly.rem(Fp, poly.mul(Fp, A, B), K.modulus)
            assert K.mul(a, b) == poly.to_code(K.p, product)


def test_explicit_modulus_must_be_irreducible():
    assert FiniteField(3, 2, (2, 2, 1)).modulus == (2, 2, 1)
    for p, modulus in ((3, (0, 0, 1)), (3, (2, 0, 1)), (2, (1, 0, 1, 0, 1))):
        # the last is (x^2 + x + 1)^2, reducible with no root in F_2
        with pytest.raises(ValueError, match="reducible"):
            FiniteField(p, len(modulus) - 1, modulus)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    K = GF(4)
    assert K.modulus == (1, 1, 1)  # x^2 + x + 1


def test_squares_odd_q():
    K = GF(3)
    assert K.is_square(0) and K.is_square(1)
    assert not K.is_square(2)
    assert K.non_square_unit() == 2
    K9 = GF(9)
    squares = sum(1 for a in K9.units() if K9.is_square(a))
    assert squares == 4  # (q-1)/2


def test_char2_all_squares():
    K = GF(4)
    assert all(K.is_square(a) for a in K.elements())
    with pytest.raises(ValueError):
        K.non_square_unit()


@pytest.mark.parametrize("small, big", [(3, 9), (4, 16), (9, 81), (5, 125)])
def test_embedding_is_a_homomorphism(small, big):
    K, L = GF(small), GF(big)
    emb = K.embedding_into(L)
    assert emb[: K.p] == list(range(K.p))  # F_p has the same codes in both
    assert len(set(emb)) == K.q
    for a in K.elements():
        for b in K.elements():
            assert emb[K.add(a, b)] == L.add(emb[a], emb[b])
            assert emb[K.mul(a, b)] == L.mul(emb[a], emb[b])


def test_no_embedding_between_coprime_degrees():
    with pytest.raises(ValueError):
        GF(4).embedding_into(GF(8))


def test_pow():
    K = GF(5)
    assert K.pow(2, 4) == 1
    assert K.pow(2, -1) == K.inv(2)
    assert K.pow(0, 3) == 0

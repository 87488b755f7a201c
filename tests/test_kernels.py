from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcount import kernels, poly, verify
from ffcount.counting import brute_count_rational, count_fixed_degree_points
from ffcount.errors import RefusalError
from ffcount.gf import GF
from ffcount.kernels import discriminant_classes, vector_tables


def test_vector_tables_shape():
    ncodes, deg, gcdtab, monic_codes = vector_tables(3, 2)
    assert ncodes == 27
    assert deg[0] == -1 and deg[1] == 0 and deg[3] == 1
    assert len(gcdtab) == ncodes * ncodes
    # gcd symmetry and idempotence spot checks
    for i in (1, 5, 9, 13):
        for j in (0, 2, 8, 26):
            assert gcdtab[i * ncodes + j] == gcdtab[j * ncodes + i]
    assert all(deg[c] >= 0 for c in monic_codes)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_sieve_gcd_table_matches_euclid(q):
    # verify's sieve check on every cell with at most 512 codes: every
    # ordered pair, including the zero row and column, against Euclid
    m_max = max(m for m in range(9) if q ** (m + 1) <= 512)
    message, ok = verify._gcd_table_sieve(((q, m_max),))
    assert ok, message


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=st.integers(0, 5**5 - 1), y=st.integers(0, 5**5 - 1))
def test_sieve_gcd_table_at_the_cap(x, y):
    # q=5, m=4: 3125 codes, the largest q=5 cell under the 4096-code cap
    ncodes, _, gcdtab, _ = vector_tables(5, 4)
    f, g = poly.from_code(5, x), poly.from_code(5, y)
    assert gcdtab[x * ncodes + y] == (poly.to_code(5, poly.gcd(GF(5), f, g)) if x or y else 0)


def test_gcd_table_cap():
    assert vector_tables(5, 4)[2] is not None  # 3125 codes
    assert vector_tables(3, 7)[2] is None  # 6561 codes: gcds on demand


def test_memo_and_literal_recursions_agree():
    # pure memoised recursion vs direct product-loop reference on tiny cells
    from itertools import product

    from ffcount import poly

    for q, n, m in ((2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 3, 1)):
        K = GF(q)
        expect = 0
        polys = list(poly.enumerate_polys(K, m))
        for vec in product(polys, repeat=n):
            if all(not f for f in vec):
                continue
            if max(poly.deg(f) for f in vec) != m:
                continue
            lead = next(f for f in vec if f)
            if lead[-1] != 1:
                continue
            if poly.gcd_many(K, vec) == poly.ONE:
                expect += 1
        assert brute_count_rational(q, n, m) == expect


@pytest.mark.parametrize("q, m", [(3, 1), (3, 2), (5, 1)])
def test_polynomial_loop_matches_discriminant_tables(q, m):
    # the loop that serves characteristic 2 is the naive definition of the
    # discriminant-class count on odd q
    sep, insep = kernels.classify_triples_by_polys(GF(q), m)
    assert insep == 0
    assert (sep, insep) == kernels.irreducible_triple_counts(q, m)


def test_nogcdtab_path_matches_table_path():
    q, m = 3, 2
    ncodes, deg, gcdtab, monic_codes = vector_tables(q, m)
    gcd_code = kernels._gcd_code_fn(q)

    def table_row(g):
        return gcdtab[g * ncodes : (g + 1) * ncodes]

    def on_demand_row(g):
        return [gcd_code(g, y) for y in range(ncodes)]

    for n in (2, 3, 4):
        a, b = (
            sum(
                kernels.count_completions(
                    n - pos - 1, m, q, ncodes, deg, gcd_row, code, deg[code] == m, {}
                )
                for pos in range(n)
                for code in monic_codes
            )
            for gcd_row in (table_row, on_demand_row)
        )
        assert a == b == brute_count_rational(q, n, m)


@pytest.mark.parametrize("q, m", [(3, 1), (3, 2), (5, 1)])
def test_discriminant_classes_match_naive_definition(q, m):
    # b^2 - 4ac and its squarefree part by polynomial arithmetic, over every
    # normalized coprime triple of max degree exactly m
    K = GF(q)
    polys = list(poly.enumerate_polys(K, m))
    expect = Counter()
    for a in polys:
        if not a or a[-1] != 1:
            continue
        for b in polys:
            for c in polys:
                if max(poly.deg(a), poly.deg(b), poly.deg(c)) != m:
                    continue
                if poly.gcd_many(K, (a, b, c)) != poly.ONE:
                    continue
                four_ac = poly.mul_scalar(K, poly.mul(K, a, c), 4 % q)
                disc = poly.sub(K, poly.mul(K, b, b), four_ac)
                if disc:
                    unit, s, _ = poly.squarefree_part(K, disc)
                    expect[s, K.is_square(unit)] += 1
    assert discriminant_classes(q, m) == expect


def test_discriminant_classes_refuse_before_building(monkeypatch, capsys):
    # 3^8 codes exceed the gcd table, and 5^5 codes fit the gcd table but
    # exceed the discriminant tables; the refusal must come before any table
    # is built, both from the library and from the command line
    from ffcount.cli import main

    def no_tables(q, m):
        raise AssertionError("tables built before the refusal")

    monkeypatch.setattr(kernels, "vector_tables", no_tables)
    for q, m in ((3, 7), (5, 4)):
        with pytest.raises(RefusalError):
            discriminant_classes(q, m)
        with pytest.raises(RefusalError):
            count_fixed_degree_points(q, 2, m, budget=10**12)
        argv = ["countd", "--q", str(q), "--d", "2", "--m", str(m), "--budget", "1000000000000"]
        assert main(argv) == 2
        assert "refused" in capsys.readouterr().err

import pytest

from ffcount import kernels
from ffcount.counting import brute_count_rational
from ffcount.gf import GF
from ffcount.kernels import quad_tables, vector_tables


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
    # the loop that serves characteristic 2 and non-prime q is the naive
    # definition of the table kernel on odd prime q
    sep, insep = kernels.classify_triples_by_polys(GF(q), m)
    assert insep == 0
    assert sep == kernels.count_quadratic_triples(q, m, want_bits=3)


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


def test_quad_tables_classification_bits():
    from ffcount import poly

    q, m = 3, 2
    K = GF(q)
    tables = quad_tables(q, m, target=((0, 1), 1))  # match square class of T
    classify = tables[6]
    for code in range(1, len(classify)):
        f = poly.from_code(q, code)
        unit, s, _ = poly.squarefree_part(K, f)
        bits = classify[code]
        assert bool(bits & 1) == (not (s == poly.ONE and K.is_square(unit)))
        assert bool(bits & 2) == (poly.deg(s) >= 1)
        assert bool(bits & 4) == (s == (0, 1) and K.is_square(unit))

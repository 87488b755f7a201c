import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcount import kernels, poly, verify
from ffcount.counting import brute_count_rational, count_fixed_degree_points
from ffcount.errors import ConsistencyError, RefusalError
from ffcount.gf import GF
from ffcount.kernels import discriminant_classes


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_factor_degrees_match_factorization(q):
    # verify's sieve check on every cell with at most 512 codes: multiples
    # against products, and the factor degrees of every code against
    # trial division
    m_max = max(m for m in range(9) if q ** (m + 1) <= 512)
    message, ok = verify._factor_degrees(((q, m_max),))
    assert ok, message


@functools.cache
def _factor_degrees(q, m):
    return kernels.factor_degrees(q, m)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(k=st.integers(0, 7), low=st.integers(0, 3**7 - 1))
def test_factor_degrees_sample_beyond_the_exhaustive_cells(k, low):
    # q=3, m=7 (6561 codes): the monic codes of degree k are 3^k .. 2*3^k - 1
    g = 3**k + low % 3**k
    factors = poly.factor(GF(3), poly.from_code(3, g))[1]
    assert _factor_degrees(3, 7)[g] == tuple(sorted(map(poly.deg, factors)))


@pytest.mark.parametrize("q, size", [(3, 3**5), (5, 5**4), (9, 9**3), (27, 27**2)])
def test_code_sum_split_sizes_the_tables_it_builds(monkeypatch, q, size):
    # the enumeration budget prices these tables without building them
    built = []
    real = kernels.code_sums

    def counted(K, n):
        table = real(K, n)
        built.append(len(table))
        return table

    monkeypatch.setattr(kernels, "code_sums", counted)
    kernels._code_adder(GF(q), size)
    low, high = kernels.code_sum_split(q, size)
    assert built == [low * low, high * high]


def test_memo_and_literal_recursions_agree():
    # the closed count over the factor-degree sieve vs the literal loop
    # over all vectors with Euclid gcds, which meets each point once per
    # unit; n >= 3 has leads at several positions, and q=4, 8 (codes
    # added by XOR) and q=9 are not prime
    for q, n, m in ((2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 4, 2), (4, 3, 1),
                    (3, 3, 2), (8, 2, 1), (9, 2, 1)):
        assert verify.brute_count_unnormalized(q, n, m) == (q - 1) * brute_count_rational(q, n, m)


@pytest.mark.parametrize("q, m", [(3, 1), (3, 2), (5, 1)])
def test_polynomial_loop_matches_discriminant_tables(q, m):
    # the loop that serves characteristic 2 is the naive definition of the
    # discriminant-class count on odd q
    sep, insep = kernels.classify_triples_by_polys(GF(q), m)
    assert insep == 0
    assert 2 * sep == count_fixed_degree_points(q, 2, m)


@pytest.mark.parametrize("q, m, counts", [
    (2, 1, (18, 6)), (2, 2, (198, 18)), (2, 3, (2160, 96)), (4, 1, (900, 60)),
    (3, 2, (6912, 0)), (5, 1, (3000, 0)),
])
def test_polynomial_loop_pinned_counts(q, m, counts):
    # in characteristic 2 no other route gives these counts, so they are
    # fixed values
    assert kernels.classify_triples_by_polys(GF(q), m) == counts


@pytest.mark.parametrize("q, m", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_discriminant_classes_match_naive_definition(q, m):
    # b^2 - 4ac and its squarefree part by polynomial arithmetic, over every
    # normalized coprime triple of max degree exactly m, and of each lower m
    message, ok = verify._discriminant_definition(((q, m),))
    assert ok, message


def test_negative_discriminant_class_is_inconsistent(monkeypatch):
    # the Moebius step may leave one code below 0, never a class: a class
    # total below 0 raises rather than drops out of the Counter
    hist, kernel = kernels.discriminant_histogram(3, 1, reduced=True)
    hist[1] -= 10**6  # the discriminant 1, class (1, square)
    monkeypatch.setattr(kernels, "discriminant_histogram", lambda q, m, reduced: (hist, kernel))
    with pytest.raises(ConsistencyError, match="fewer than 0 triples at q=3 m=1"):
        discriminant_classes.__wrapped__(3, 1)


def test_discriminant_classes_are_read_only():
    # every caller shares the cached classes: none may change them, and a
    # class that cannot occur (deg s = 3 > 2m) still reads 0
    classes = discriminant_classes(3, 1)
    key = next(iter(classes))
    with pytest.raises(TypeError):
        classes[key] = 0
    assert classes[(1, 0, 0, 1), True] == 0 and discriminant_classes(3, 1)[key] > 0


@pytest.mark.parametrize("cell", verify.DISCRIMINANT_REDUCTION_CELLS)
def test_reduced_discriminant_walk_matches_full_walk(cell):
    message, ok = verify._discriminant_reduction((cell,))
    assert ok, message


@pytest.mark.parametrize("q, m", verify.WALK_STEP_CELLS)
def test_walk_steps_count_the_loop_bounds(q, m):
    # verify's walk-price check, cell by cell: the price against the
    # walk's loops
    message, ok = verify._walk_steps(((q, m),))
    assert ok, message


def test_walk_steps_pinned():
    cells = ((3, 5), (5, 3), (11, 2), (13, 2), (17, 2), (73, 1))
    assert [kernels.walk_steps(q, m) for q, m in cells] == [
        32328072, 3119700, 2301288, 6030752, 28657512, 788692]


def test_discriminant_classes_refuse_before_building(monkeypatch, capsys):
    # 3^8 and 5^5 codes: the walk's price refuses them at the default
    # budget before a code-sum table is built, both from the library and
    # from the command line
    from ffcount.cli import main

    def no_tables(*args):
        raise AssertionError("tables built before the refusal")

    monkeypatch.setattr(kernels, "code_sums", no_tables)
    for q, m in ((3, 7), (5, 4)):
        with pytest.raises(RefusalError):
            count_fixed_degree_points(q, 2, m)
        assert main(["countd", "--q", str(q), "--d", "2", "--m", str(m)]) == 2
        assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("q, m", [(3, 2), (5, 1), (9, 1)])
def test_walk_builds_the_tables_its_price_counts(monkeypatch, q, m):
    # the walk's kernel and code-sum tables are those of the field
    # enumeration up to deg D <= 2m, priced by one check_table_budget, and
    # it reads no factor-degree sieve
    def no_sieve(*args):
        raise AssertionError("the walk built a factor-degree sieve")

    monkeypatch.setattr(kernels, "factor_degrees", no_sieve)
    built = []
    real_sums, real_kernel = kernels.code_sums, kernels.squarefree_kernel

    def counted_sums(K, n):
        table = real_sums(K, n)
        built.append(len(table))
        return table

    def counted_kernel(K, top, add=None):
        kernel = real_kernel(K, top, add)
        built.append(len(kernel))
        return kernel

    monkeypatch.setattr(kernels, "code_sums", counted_sums)
    monkeypatch.setattr(kernels, "squarefree_kernel", counted_kernel)
    kernels.discriminant_histogram(q, m, reduced=True)
    low, high = kernels.code_sum_split(q, q ** (2 * m + 1))
    assert built == [low * low, high * high, q ** (2 * m + 1)]
    cost = kernels.TABLE_ENTRY_COST * (low * low + high * high)
    kernels.check_table_budget(q, 2 * m, cost, "walk")
    with pytest.raises(RefusalError, match=f"walk at cost 3 per code-sum entry needs {cost} "):
        kernels.check_table_budget(q, 2 * m, cost - 1, "walk")


@pytest.mark.parametrize("cell", verify.DISCRIMINANT_KERNEL_CELLS)
def test_squarefree_kernel_at_discriminant_tops(cell):
    # the kernel discriminant_classes reads at top = 2m, on every monic code
    message, ok = verify._squarefree_sieve((cell,))
    assert ok, message


def test_squarefree_kernel_small_values():
    K = GF(3)
    kernel = kernels.squarefree_kernel(K, 4)
    code = lambda *coeffs: poly.to_code(3, coeffs)
    assert kernel[code(1)] == code(1)
    assert kernel[code(0, 0, 1)] == code(1)  # T^2
    assert kernel[code(0, 0, 0, 1)] == code(0, 1)  # T^3
    assert kernel[code(0, 1, 0, 0, 1)] == code(0, 1, 1)  # T (T+1)^3
    assert kernel[code(2, 0, 1)] == code(2, 0, 1)  # T^2 + 2 = (T+1)(T+2)
    assert kernel[code(2)] == 0  # not monic


@functools.cache
def _kernel(q, top):
    return kernels.squarefree_kernel(GF(q), top)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(cell=st.sampled_from([(3, 8), (5, 6), (7, 4)]), low=st.integers(0, 3**8 - 1),
       d=st.integers(0, 8))
def test_squarefree_kernel_sample_beyond_the_exhaustive_cells(cell, low, d):
    q, top = cell
    d = min(d, top)
    K = GF(q)
    f = poly.from_code(q, low % q**d, pad=d) + (1,)
    s = poly.squarefree_part(K, f)[1]
    assert _kernel(q, top)[poly.to_code(q, f)] == poly.to_code(q, s)


@pytest.mark.parametrize("cell", verify.ARTIN_SCHREIER_CELLS)
def test_artin_schreier_echelon_matches_scan(cell):
    message, ok = verify._artin_schreier((cell,))
    assert ok, message


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cell=st.sampled_from([(2, 3), (4, 2), (8, 1)]), nz=st.integers(0, 2**9 - 1),
       dz=st.integers(1, 2**9 - 1), e=st.integers(0, 2**9 - 1), unit=st.integers(1, 7),
       noise=st.integers(0, 2**9 - 1))
def test_artin_schreier_sample_against_scan(cell, nz, dz, e, unit, noise):
    # w = z^2 + z + noise/(unit * dz^2) for z = nz/dz + e, with numerator
    # and denominator scaled by the unit: neither reduced nor monic, and
    # solvable whenever noise is 0 (at every even draw); each piece has
    # degree <= top.  The test over dz^2 must agree with the scan both on
    # w = (w_num*w_den)/w_den^2 and, as the triple loop runs it with dz = b,
    # on the reduced numerator over dz^2.
    Q, top = cell
    K = GF(Q)
    to_poly = lambda code: poly.from_code(Q, code % Q ** (top + 1))
    nz, dz, e = to_poly(nz), to_poly(dz) or poly.ONE, to_poly(e)
    noise = to_poly(noise // 2) if noise % 2 else poly.ZERO
    unit = unit % Q or 1
    dz2 = poly.mul(K, dz, dz)
    w_num = poly.add(K, poly.add(K, poly.mul(K, nz, nz), poly.mul(K, nz, dz)),
                     poly.mul(K, poly.add(K, poly.mul(K, e, e), e), dz2))
    w_num = poly.add(K, poly.mul_scalar(K, w_num, unit), noise)
    w_den = poly.mul_scalar(K, dz2, unit)
    expect = verify.artin_schreier_by_scan(K, w_num, w_den)
    assert poly._artin_schreier_over_square(K, poly.mul(K, w_num, w_den), w_den) == expect
    num = poly.mul_scalar(K, w_num, K.inv(unit))
    assert poly._artin_schreier_over_square(K, num, dz) == expect
    assert expect or noise

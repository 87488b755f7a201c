"""Decomposable-form counting relations and a small brute-force oracle.

A decomposable form of degree d splits into d linear factors; counting the
non-proportional forms whose factor points all generate degree-d,
effective-degree-d extensions reduces to point counts N(n, d', m) over the
divisors d' = d/p^i, p the characteristic.  At heights m prime to p:

    d * NF(n,d,m) = N(n,d,m) + sum_{i=1..r} (p^i - p^(i-1)) * N(n,d/p^i,m)

with p^r the highest power of p in d.  When p | m the weighted sum
over-counts the inseparable layer.  For d = p the inseparable forms
a*X^p + c*Y^p are the points (a:c) of height m minus the p-th powers, and
the p-th powers are the Frobenius images of the points of height m/p, so

    p * NF(n,p,m) = N(n,p,m) + (p-1) * (N(n,1,m) - N(n,1,m/p)),

at p = 2: 2*NF = N(n,2,m) + N(n,1,m) - N(n,1,m/2), which matches the
oracle.  form_count applies the same Frobenius term (p-1) * N(n,d/p,m/p)
for d = p*s with p not dividing s; only p = d = 2 is checked against the
oracle.  No correction is settled for p^2 | d at p | m; there the weighted
sum is used as it stands (count_fixed_degree_points refuses d > 2, so no
caller reaches that case).

The oracle enumerates binary quadratic forms directly, where
decomposability is automatic and the factor field is read off the
discriminant.
"""

from collections import namedtuple
from fractions import Fraction

from . import kernels
from .counting import DEFAULT_BUDGET, check_oracle_budget, count_fixed_degree_points
from .errors import ConsistencyError, RefusalError, exact_quotient
from .gf import GF


class FormTable(namedtuple("FormTable", "p n d m counts frobenius", defaults=(None,))):
    """Counts N(n, d', m) for the divisors d' of d needed by the relations,
    plus N(n, d/p, m/p) when frobenius_height() says form_count needs it.

    p is the characteristic, counts maps d' -> N(n, d', m), and frobenius
    is N(n, d/p, m/p), the Frobenius images to subtract, or None."""

    __slots__ = ()

    def count(self, d_prime: int) -> int:
        if d_prime not in self.counts:
            raise KeyError(f"table is missing N(n, {d_prime}, m)")
        return self.counts[d_prime]

    def p_power_range(self):
        """(r, [d, d/p, ..., d/p^r]) with p^r the largest p-power dividing d."""
        r = 0
        d = self.d
        while d % self.p == 0:
            d //= self.p
            r += 1
        return r, [self.d // self.p**i for i in range(r + 1)]


def frobenius_height(p: int, d: int, m: int):
    """m/p when form_count needs the Frobenius count N(n, d/p, m/p), that is
    when p divides d exactly once and p | m; None otherwise."""
    if d % p == 0 and (d // p) % p and m % p == 0:
        return m // p
    return None


def form_table(q, d, m, budget=DEFAULT_BUDGET) -> FormTable:
    """The n = 2 table at height m: N(2, d/p^i, m) for every p-power p^i
    dividing d, and the Frobenius count N(2, d/p, m/p) when
    frobenius_height() asks for it, all by count_fixed_degree_points."""
    p = GF(q).p
    counts = {}
    d_prime = d
    while True:  # d < 1 raises in the first count, so d_prime = 0 never loops
        counts[d_prime] = count_fixed_degree_points(q, d_prime, m, budget=budget)
        if d_prime % p:
            break
        d_prime //= p
    h = frobenius_height(p, d, m)
    frobenius = None if h is None else count_fixed_degree_points(q, d // p, h, budget=budget)
    return FormTable(p, 2, d, m, counts, frobenius)


def separable_point_count(table: FormTable) -> int:
    """N(n,d,m) restricted to separable extensions: N(n,d,m) - N(n,d/p,m)
    when p | d.  Exact at heights prime to p.  When p | m the inseparable
    points number N(n,d/p,m) - N(n,d/p,m/p), so this undercounts by the
    Frobenius count N(n,d/p,m/p); form_count adds that term itself."""
    if table.d % table.p == 0:
        return table.count(table.d) - table.count(table.d // table.p)
    return table.count(table.d)


def _weighted_sum(table: FormTable) -> int:
    """N(n,d,m) + sum_{i=1..r} (p^i - p^(i-1)) * N(n,d/p^i,m)."""
    r, _ = table.p_power_range()
    acc = table.count(table.d)
    for i in range(1, r + 1):
        acc += (table.p**i - table.p ** (i - 1)) * table.count(table.d // table.p**i)
    return acc


def form_count(table: FormTable) -> int:
    """NF(n,d,m) from the point-count table: the weighted sum, minus
    (p-1) * N(n,d/p,m/p) when frobenius_height() is not None (p divides d
    exactly once and p | m).  A table without that Frobenius count raises
    ConsistencyError rather than returning the uncorrected value.  For
    p^2 | d at p | m no correction is settled and the weighted sum is used
    as it stands.  The division by d must be exact; anything else signals
    an upstream counting bug."""
    acc = _weighted_sum(table)
    if frobenius_height(table.p, table.d, table.m) is not None:
        if table.frobenius is None:
            raise ConsistencyError(
                f"p = {table.p} divides m = {table.m}, so the form count needs the "
                f"Frobenius count N(n, {table.d // table.p}, {table.m // table.p}); "
                f"the table has none"
            )
        acc -= (table.p - 1) * table.frobenius
    return exact_quotient(acc, table.d, f"the form count from N table {table.counts}")


def form_count_identity_check(table: FormTable) -> bool:
    """The aggregation identity behind the weighted sum in form_count:
    summing the separable layer NF_sep(d') = N_sep(d')/d' over d' = d/p^i
    reproduces it.  Holds for any input table by rearrangement; the
    Frobenius term is not part of it."""
    _, divisors = table.p_power_range()
    total = Fraction(0)
    for d_prime in divisors:
        sub = FormTable(table.p, table.n, d_prime, table.m, table.counts)
        total += Fraction(separable_point_count(sub), d_prime)
    return total == Fraction(_weighted_sum(table), table.d)


def brute_force_forms(q, n, d, m, budget=DEFAULT_BUDGET) -> int:
    """Direct count of qualifying binary quadratic forms of height m.

    A form a*X^2 + b*XY + c*Y^2 qualifies iff a != 0, the dehomogenized
    quadratic is irreducible over F_q(T), and its root field keeps the
    constant field (so each linear factor generates a degree-2,
    effective-degree-2 extension).  Only n = d = 2 is implemented; larger
    parameters have no decidable factor-field test here.

    The forms are classified by polynomial arithmetic on each triple
    (kernels.classify_triples_by_polys, one irreducibility test over
    F_{q^2}(T) per triple, priced by counting.check_oracle_budget), which
    at odd q is independent of the discriminant tables behind
    count_fixed_degree_points.  Characteristic 2 has no second route yet:
    there both sides read the same cached loop, so only the inseparable
    term of the relation is checked.
    """
    if d < 1:
        raise ValueError(f"degree d must be >= 1, not {d}")
    if (n, d) != (2, 2):
        raise RefusalError("form oracle implemented for n = d = 2 only")
    if m < 0:
        return 0
    check_oracle_budget(q, m, budget)
    sep, insep = kernels.classify_triples_by_polys(GF(q), m)
    return sep + insep


"""Decomposable-form counting relations and a small brute-force oracle.

A decomposable form of degree d splits into d linear factors; counting the
non-proportional forms whose factor points all generate degree-d,
effective-degree-d extensions reduces to point counts N(n, d', m) over the
divisors d' = d/p^i, p the characteristic:

    d * NF(n,d,m) = N(n,d,m) + sum_{i=1..r} (p^i - p^(i-1)) * N(n,d/p^i,m)

with p^r the highest power of p in d.  The oracle enumerates binary
quadratic forms directly, where decomposability is automatic and the
factor field is read off the discriminant.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .counting import DEFAULT_BUDGET, check_budget
from .errors import ConsistencyError, RefusalError


@dataclass(frozen=True)
class FormTable:
    """Counts N(n, d', m) for the divisors d' of d needed by the relations."""

    p: int  # characteristic
    n: int
    d: int
    m: int
    counts: dict  # d' -> N(n, d', m)

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


def separable_point_count(table: FormTable) -> int:
    """N restricted to separable extensions: N(n,d,m) - N(n,d/p,m) when p | d."""
    if table.d % table.p == 0:
        return table.count(table.d) - table.count(table.d // table.p)
    return table.count(table.d)


def form_count(table: FormTable) -> int:
    """NF(n,d,m) from the point-count table; the division by d must be exact,
    anything else signals an upstream counting bug."""
    r, _ = table.p_power_range()
    acc = table.count(table.d)
    for i in range(1, r + 1):
        acc += (table.p**i - table.p ** (i - 1)) * table.count(table.d // table.p**i)
    if acc % table.d:
        raise ConsistencyError(
            f"form count is not integral: {acc}/{table.d} (N table {table.counts})"
        )
    return acc // table.d


def form_count_identity_check(table: FormTable) -> bool:
    """The aggregation identity behind form_count: summing the separable
    layer NF_sep(d') = N_sep(d')/d' over d' = d/p^i reproduces the
    weighted-sum formula.  Holds for any input table by rearrangement."""
    r, divisors = table.p_power_range()
    total = Fraction(0)
    for d_prime in divisors:
        sub = FormTable(table.p, table.n, d_prime, table.m, table.counts)
        total += Fraction(separable_point_count(sub), d_prime)
    acc = table.count(table.d)
    for i in range(1, r + 1):
        acc += (table.p**i - table.p ** (i - 1)) * table.count(table.d // table.p**i)
    return total == Fraction(acc, table.d)


def brute_force_forms(q, n, d, m, budget=DEFAULT_BUDGET) -> int:
    """Direct count of qualifying binary quadratic forms of height m.

    A form a*X^2 + b*XY + c*Y^2 qualifies iff a != 0, the dehomogenized
    quadratic is irreducible over F_q(T), and its root field keeps the
    constant field (so each linear factor generates a degree-2,
    effective-degree-2 extension).  Only n = d = 2 is implemented; larger
    parameters have no decidable factor-field test here.
    """
    if (n, d) != (2, 2):
        raise RefusalError("form oracle implemented for n = d = 2 only")
    if m < 0:
        return 0
    check_budget(q ** (3 * (m + 1)), budget, f"form oracle q={q} m={m}")
    sep, insep = kernels.irreducible_triple_counts(q, m)
    return sep + insep

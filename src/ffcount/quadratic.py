"""Enumeration of the quadratic extensions K = F_q(T)(sqrt(u*D)) for odd q.

Every separable quadratic extension of F_q(T) with the same constant field
is generated by a square root of u*D with D squarefree monic of degree
>= 1 and u in {1, eps} for a fixed non-square unit eps; distinct pairs
give distinct fields.  The curve y^2 = u*D(x) has genus (deg D - 1)//2,
and counting its points over F_{q^r} for r = 1..g determines the zeta
numerator, hence the class number and everything the counting layer needs.

The enumeration works one degree d at a time on the low-part codes of the
monic D (D = T^d + the polynomial of the code), through two tables from
`kernels`: the squarefree kernel, a sieve over p^2 * c for each monic
irreducible p that maps every monic code up to the largest degree to its
squarefree part, so that the squarefree D are its fixed points; and the
point counts N_1..N_g of y^2 = D(x) for every code, from character sums
over a Horner table of the values D(x) at one x per Frobenius orbit of
the largest extensions F_{q^r}, which contain the smaller ones.  The
counts of the twist y^2 = eps*D(x) follow from those alone (twist_counts).
No D is factored and no curve is counted point by point;
`poly.squarefree_part` and `curve_point_counts` are the naive definitions
the tables and the twist are checked against (`ffcount verify --suite
algebra`).

The field layer works on count classes.  field_classes keeps, per degree,
the codes of the squarefree D, the untwisted counts tuple of each code,
and the size of each class: the number of fields, of either twist, with
one counts tuple.  Fields with equal point counts share one descriptor,
built and Hasse-Weil checked once.  The Schanuel sum and the degree-2
assembly sum over the class sizes, and `ffcount fields` writes its rows
from the classes, each D formatted by one concatenation of two digit
tables (monic_formatter).  Only enumerate_quadratic_fields builds one
QuadraticFieldDesc per field, for the callers that read fields one by one.

Characteristic 2 is refused here: quadratic extensions are then of
Artin-Schreier or inseparable type and have no squarefree-D normal form.
The minimal-polynomial counters elsewhere still cover char-2 counting.
"""

import functools
import operator
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import compress
from types import MappingProxyType

from . import kernels, poly
from .errors import ConsistencyError, RefusalError, check_budget
from .gf import GF, FiniteField, constant_extension, prime_power
from .zeta import CurveDescriptor, hasse_weil_check

__all__ = [
    "QuadraticFieldDesc",
    "DegreeClasses",
    "FieldClasses",
    "field_classes",
    "check_enumeration_budget",
    "enumerate_quadratic_fields",
    "monic_formatter",
    "curve_point_counts",
    "twist_counts",
    "build_descriptor",
    "min_generator_height_bound",
]


class QuadraticFieldDesc(namedtuple("QuadraticFieldDesc", "q D u genus point_counts descriptor")):
    """One quadratic extension: squarefree monic D, twist unit u, derived data.

    point_counts holds N_r over F_{q^r}, r = 1..genus."""

    __slots__ = ()

    @property
    def deg_D(self) -> int:
        return len(self.D) - 1

    @property
    def J(self) -> int:
        return self.descriptor.J

    def label(self) -> str:
        return f"q{self.q}_D[{poly.format_poly(self.D)}]_u{self.u}"


def min_generator_height_bound(field) -> Fraction:
    """Upper bound deg(D)/2 for the least absolute height of a generator of
    the projective line over the field: sqrt(u*D) has that height.  field
    is a QuadraticFieldDesc, or the DegreeClasses of its degree."""
    return Fraction(field.deg_D, 2)


def curve_point_counts(K: FiniteField, u: int, D, r_max: int):
    """Exact counts N_r = #{y^2 = u*D(x) over F_{q^r}} + points at infinity.

    Infinity contributes 1 point for odd deg D (ramified) and 2 or 0 for
    even deg D according to whether the leading unit u is a square in
    F_{q^r}.  This is the reference for kernels.point_count_tables.
    """
    out = []
    for r in range(1, r_max + 1):
        Kr, emb = constant_extension(K, r)
        Dr = tuple(emb[c] for c in D)
        ur = emb[u]
        n = 0
        for x in Kr.elements():
            v = Kr.mul(ur, poly.evaluate(Kr, Dr, x))
            n += 1 if v == 0 else (2 if Kr.is_square(v) else 0)
        if (len(D) - 1) % 2 == 1:
            n += 1
        else:
            n += 2 if Kr.is_square(ur) else 0
        out.append(n)
    return tuple(out)


def twist_counts(q: int, counts):
    """The point counts of y^2 = eps*D(x) from those of y^2 = D(x), eps a
    non-square of F_q, and back: chi_r(eps) = (-1)^r, so with N_r(u) =
    q^r + 1 + chi_r(u)*(S + [deg D even]) (kernels.point_count_tables),
    N_r(eps) = N_r(1) at even r and 2(q^r + 1) - N_r(1) at odd r."""
    return tuple(2 * (q**r + 1) - n if r % 2 else n for r, n in enumerate(counts, 1))


def build_descriptor(q: int, g: int, counts) -> CurveDescriptor:
    """Zeta numerator from point counts N_1..N_g via Newton's identities.

    L(t) = 1 + c_1 t + ... with power sums p_r = q^r + 1 - N_r of the
    inverse roots; the top half of the coefficients comes from the
    functional equation c_{2g-i} = q^(g-i) c_i.
    """
    if g == 0:
        return CurveDescriptor(q, 0, (1,))
    if len(counts) < g:
        raise ValueError(f"genus {g} needs point counts N_1..N_{g}")
    psums = [q**r + 1 - counts[r - 1] for r in range(1, g + 1)]
    elem = [1]  # elementary symmetric functions e_0..e_g of the inverse roots
    for r in range(1, g + 1):
        acc = psums[r - 1]
        for j in range(1, r):
            acc -= (-1) ** (j - 1) * elem[j] * psums[r - j - 1]
        num = (-1) ** (r - 1) * acc
        if num % r:
            raise ValueError(f"inconsistent point counts: e_{r} is not integral")
        elem.append(num // r)
    c = [0] * (2 * g + 1)
    c[0] = 1
    for i in range(1, g + 1):
        c[i] = (-1) ** i * elem[i]
    for i in range(g):
        c[2 * g - i] = q ** (g - i) * c[i]
    return CurveDescriptor(q, g, tuple(c))


DegreeClasses = namedtuple("DegreeClasses", "deg_D genus codes counts sizes")
DegreeClasses.__doc__ = """The fields of one degree of D by count classes: the low codes of
the squarefree monic D = T^deg_D + f_code, in increasing order;
counts[j], the point counts N_1..N_genus of y^2 = D(x) for the j-th code
(twist_counts gives those of y^2 = eps*D(x)); and sizes, a read-only
mapping from each counts tuple of either twist to the number of fields
that have it, in the order (code, u) of its first field."""

FieldClasses = namedtuple("FieldClasses", "twists degrees descriptors")
FieldClasses.__doc__ = """The class view of the fields with 1 <= deg D <= degD_max: the
twists (1, eps), one DegreeClasses per degree, and the descriptor of
each counts tuple, in one read-only mapping for every degree: counts
tuples of different genera differ in length."""


def _check_field_parameters(q, degD_max):
    prime_power(q)  # ValueError for a q that is no field size, before the even-q refusal
    if q % 2 == 0:
        raise RefusalError("even q refused: no squarefree-D model in characteristic 2")
    if degD_max < 1:
        raise ValueError("degD_max must be >= 1")


def frobenius_orbit_count(q: int, r: int) -> int:
    """Orbits of x -> x^q on F_{q^r}: sum over s | r of I_q(s), since an
    orbit of size s is the root set of one monic irreducible of degree s."""
    return sum(poly.count_monic_irreducibles(q, s) for s in range(1, r + 1) if r % s == 0)


# The enumeration's work is the Horner tables of kernels.point_count_tables:
# per degree d of D, of genus g, one entry per code of the q^d low parts
# and per Frobenius orbit rep of F_{q^r}, for each r with g/2 < r <= g.
# An entry costs 0.2-0.3 us, whole process with the output (0.77 s at
# q=3, deg D <= 10), and counts twice counting.WALK_STEP_COST against the
# budget: the default budget admits q=3 deg D <= 10, q=5 deg D <= 7, q=7
# deg D <= 6 and q=9 deg D <= 5, and refuses q=3 deg D <= 11 and q=11
# deg D <= 5.
HORNER_ENTRY_COST = 20


def check_enumeration_budget(q: int, degD_max: int, budget: int):
    """Check q and degD_max as field_classes does, then refuse an
    enumeration up to degD_max whose Horner entries, weighted by
    HORNER_ENTRY_COST, exceed the budget, or whose squarefree kernel or
    code-sum tables kernels.check_table_budget refuses."""
    _check_field_parameters(q, degD_max)
    what = f"field enumeration q={q} deg D <= {degD_max}"
    entries = 0
    for d in range(1, degD_max + 1):
        g = (d - 1) // 2
        entries += q**d * sum(frobenius_orbit_count(q, r) for r in range(g, g // 2, -1))
    check_budget(HORNER_ENTRY_COST * entries, budget,
                 f"{what} at cost {HORNER_ENTRY_COST} per Horner entry",
                 "weighted Horner row entries")
    kernels.check_table_budget(q, degD_max, budget, what)


@functools.lru_cache(maxsize=8)
def field_classes(q: int, degD_max: int) -> FieldClasses:
    """The fields with 1 <= deg D <= degD_max as count classes, cached;
    every part of the view is immutable, so its callers share it.  It
    checks no budget: check_enumeration_budget is its callers' to run.

    Each distinct counts tuple gets its descriptor once, in the order
    (deg D, code of D, u) of its first field, and must pass the Hasse-Weil
    window, or ConsistencyError names that field (a counting bug would
    surface here).
    """
    _check_field_parameters(q, degD_max)
    K = GF(q)
    twists = (1, K.non_square_unit())
    kernel = kernels.squarefree_kernel(K, degD_max)
    descriptors = {}
    degrees = []
    for d in range(1, degD_max + 1):
        g = (d - 1) // 2
        lead = q**d  # the code of T^d
        # the squarefree D are the fixed points of the kernel
        codes = tuple(compress(range(lead), map(operator.eq, kernel[lead : 2 * lead],
                                                 range(lead, 2 * lead))))
        counts = tuple(map(kernels.point_count_tables(K, d, g).__getitem__, codes))
        # the untwisted classes come in the order of their first code, and
        # each is followed by its twist: the order of the first fields
        sizes = Counter()
        for c, k in Counter(counts).items():
            sizes[c] += k
            sizes[twist_counts(q, c)] += k
        for c in sizes:
            if c in descriptors:
                continue
            desc = descriptors[c] = build_descriptor(q, g, c)
            report = hasse_weil_check(desc)
            if not report["ok"]:
                code, u = next((code, u) for code, plain in zip(codes, counts)
                               for u, counted in zip(twists, (plain, twist_counts(q, plain)))
                               if counted == c)
                field = QuadraticFieldDesc(q, poly.from_code(q, code, pad=d) + (1,), u, g, c, desc)
                raise ConsistencyError(f"{field.label()} failed Hasse-Weil: {report['failures']}")
        degrees.append(DegreeClasses(d, g, codes, counts, MappingProxyType(sizes)))
    return FieldClasses(twists, tuple(degrees), MappingProxyType(descriptors))


@functools.lru_cache(maxsize=8)
def enumerate_quadratic_fields(q: int, degD_max: int):
    """All quadratic extensions with 1 <= deg D <= degD_max, deterministic order.

    Emits QuadraticFieldDesc sorted by (deg D, code of D, u), one record per
    field of field_classes, which has checked every descriptor.
    """
    classes = field_classes(q, degD_max)
    descriptors, (one, eps) = classes.descriptors, classes.twists
    out = []
    for dc in classes.degrees:
        d, g = dc.deg_D, dc.genus
        twisted = {c: twist_counts(q, c) for c in dc.sizes}
        for code, plain in zip(dc.codes, dc.counts):
            D = poly.from_code(q, code, pad=d) + (1,)
            twin = twisted[plain]
            out.append(QuadraticFieldDesc(q, D, one, g, plain, descriptors[plain]))
            out.append(QuadraticFieldDesc(q, D, eps, g, twin, descriptors[twin]))
    return tuple(out)


def monic_formatter(q: int, d: int):
    """format_poly(T^d + f_code) as a function of the code < q^d: one
    concatenation of a string of its high digits (T^d and the terms of
    degree d//2 .. d-1) and one of its low digits, from two tables built
    of format_poly's own terms."""
    # terms[i][c]: "+" and the term c*T^i, or "" for c = 0
    terms = [[""] + ["+" + poly.format_poly((0,) * i + (c,)) for c in range(1, q)]
             for i in range(d)]

    def strings(head, lo, hi):
        """head and the terms of the digits lo .. hi-1, for the codes of
        those digits, the most significant digit first."""
        out = [head]
        for i in range(hi - 1, lo - 1, -1):
            out = [s + t for s in out for t in terms[i]]
        return out

    split = q ** (d // 2)
    high = strings(poly.format_poly((0,) * d + (1,)), d // 2, d)
    low = strings("", 0, d // 2)
    return lambda code: high[code // split] + low[code % split]

"""Enumeration of the quadratic extensions K = F_q(T)(sqrt(u*D)) for odd q.

Every separable quadratic extension of F_q(T) with the same constant field
is generated by a square root of u*D with D squarefree monic of degree
>= 1 and u in {1, eps} for a fixed non-square unit eps; distinct pairs
give distinct fields.  The curve y^2 = u*D(x) has genus (deg D - 1)//2,
and counting its points over F_{q^r} for r = 1..g determines the zeta
numerator, hence the class number and everything the counting layer needs.

Characteristic 2 is refused here: quadratic extensions are then of
Artin-Schreier or inseparable type and have no squarefree-D normal form.
The minimal-polynomial counters elsewhere still cover char-2 counting.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .errors import ConsistencyError, RefusalError
from .gf import GF, FiniteField, constant_extension
from .zeta import CurveDescriptor, hasse_weil_check

__all__ = [
    "QuadraticFieldDesc",
    "enumerate_quadratic_fields",
    "curve_point_counts",
    "build_descriptor",
    "min_generator_height_bound",
    "same_field",
]


@dataclass(frozen=True)
class QuadraticFieldDesc:
    """One quadratic extension: squarefree monic D, twist unit u, derived data."""

    q: int
    D: tuple
    u: int
    genus: int
    point_counts: tuple  # N_r over F_{q^r}, r = 1..genus
    descriptor: CurveDescriptor

    @property
    def deg_D(self) -> int:
        return len(self.D) - 1

    @property
    def J(self) -> int:
        return self.descriptor.J

    def label(self) -> str:
        return f"q{self.q}_D[{poly.format_poly(self.D)}]_u{self.u}"


def min_generator_height_bound(field: QuadraticFieldDesc) -> Fraction:
    """Upper bound deg(D)/2 for the least absolute height of a generator of
    the projective line over the field: sqrt(u*D) has that height."""
    return Fraction(field.deg_D, 2)


def curve_point_counts(K: FiniteField, u: int, D, r_max: int):
    """Exact counts N_r = #{y^2 = u*D(x) over F_{q^r}} + points at infinity.

    Infinity contributes 1 point for odd deg D (ramified) and 2 or 0 for
    even deg D according to whether the leading unit u is a square in
    F_{q^r}.
    """
    out = []
    for r in range(1, r_max + 1):
        if r == 1:
            Kr, emb = K, list(range(K.q))
        else:
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


@functools.lru_cache(maxsize=None)
def enumerate_quadratic_fields(q: int, degD_max: int, check: bool = True):
    """All quadratic extensions with 1 <= deg D <= degD_max, deterministic order.

    Emits QuadraticFieldDesc sorted by (deg D, code of D, u).  With `check`
    every descriptor must pass the Hasse-Weil window (a counting bug would
    surface here).
    """
    if q % 2 == 0:
        raise RefusalError("even q refused: no squarefree-D model in characteristic 2")
    if degD_max < 1:
        raise ValueError("degD_max must be >= 1")
    K = GF(q)
    eps = K.non_square_unit()
    out = []
    for d in range(1, degD_max + 1):
        for D in poly.enumerate_monic(K, d):
            if d >= 2:
                _, s, _ = poly.squarefree_part(K, D)
                if s != D:
                    continue
            g = (d - 1) // 2
            for u in (1, eps):
                counts = curve_point_counts(K, u, D, g)
                desc = build_descriptor(q, g, counts)
                fdesc = QuadraticFieldDesc(q, D, u, g, counts, desc)
                if check:
                    report = hasse_weil_check(desc)
                    if not report["ok"]:
                        raise ConsistencyError(
                            f"{fdesc.label()} failed Hasse-Weil: {report['failures']}"
                        )
                out.append(fdesc)
    return tuple(out)


def same_field(K, D1, u1, D2, u2) -> bool:
    """Whether sqrt(u1*D1) and sqrt(u2*D2) generate the same extension:
    the product u1*u2*D1*D2 must be a square in F_q(T)."""
    prod = poly.mul_scalar(K, poly.mul(K, D1, D2), K.mul(u1, u2))
    return poly.is_square_poly(K, prod)

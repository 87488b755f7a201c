"""Places, divisors and heights on the rational function field F_q(T).

The places of F_q(T) are the monic irreducible polynomials together with
one distinguished place at infinity of degree 1.  Divisors are finite
integer combinations of places; the relative height of a nonzero
coordinate vector is minus the degree of its divisor.  Everything is
exact: valuations are ints (math.inf for the zero function), heights are
ints.  The genus-0 Riemann-Roch spaces L(a, 1), an explicit basis and a
membership test by valuations, are the reference for the dimensions of
the class models in `riemann_roch`.  No command loads this module: the
counting engines work on coprime polynomial vectors.
"""

import math
from collections import namedtuple

from . import poly
from .errors import ConsistencyError
from .poly import ZERO, ONE

INF = math.inf


class Place(namedtuple("Place", "prime")):
    """A place of F_q(T): a monic irreducible polynomial, or infinity (prime=None)."""

    __slots__ = ()

    @property
    def is_infinite(self) -> bool:
        return self.prime is None

    @property
    def degree(self) -> int:
        return 1 if self.prime is None else len(self.prime) - 1

    def __repr__(self):
        return "oo" if self.prime is None else f"({poly.format_poly(self.prime)})"


INFINITY = Place(None)


class Divisor:
    """Finite-support map Place -> int."""

    def __init__(self, coeffs=None):
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c}

    def degree(self) -> int:
        return sum(c * p.degree for p, c in self.coeffs.items())

    def __getitem__(self, place):
        return self.coeffs.get(place, 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return Divisor(out)

    def __neg__(self):
        return Divisor({p: -c for p, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{p!r}" for p, c in sorted(
            self.coeffs.items(), key=lambda pc: (pc[0].degree, pc[0].prime or ())))


class RationalFunction:
    """Element of F_q(T), stored as coprime numerator/denominator, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, K, num, den=ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly.gcd(K, num, den)
            if g != ONE:
                num = poly.exact_div(K, num, g)
                den = poly.exact_div(K, den, g)
            unit, den = poly.monic(K, den)
            if unit != 1:
                num = poly.mul_scalar(K, num, K.inv(unit))
        else:
            num, den = ZERO, ONE
        self.num = num
        self.den = den

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        s = poly.format_poly(self.num)
        return s if self.den == ONE else f"({s})/({poly.format_poly(self.den)})"


def rf(K, num, den=ONE) -> RationalFunction:
    return RationalFunction(K, num, den)


def _ord_in_poly(K, place: Place, f) -> int:
    """Multiplicity of a finite place's prime in a nonzero polynomial."""
    n = 0
    while True:
        quo, r = poly.divmod_(K, f, place.prime)
        if r:
            return n
        f = quo
        n += 1


def ord_at(K, place: Place, x) -> int | float:
    """Normalized valuation of a rational function (or polynomial) at a place.

    ord(0) = infinity.  At the infinite place, ord(f) = deg den - deg num.
    """
    if isinstance(x, tuple):
        x = RationalFunction(K, x)
    if x.is_zero():
        return INF
    if place.is_infinite:
        return poly.deg(x.den) - poly.deg(x.num)
    return _ord_in_poly(K, place, x.num) - _ord_in_poly(K, place, x.den)


def ord_vec(K, place: Place, xs) -> int | float:
    """min of coordinate valuations; infinity for the zero vector."""
    return min((ord_at(K, place, x) for x in xs), default=INF)


def _as_rf_vector(K, xs):
    out = []
    for x in xs:
        out.append(RationalFunction(K, x) if isinstance(x, tuple) else x)
    return out


def divisor_of_vector(K, xs) -> Divisor:
    """div(x) = sum over places of min coordinate valuation.

    Only finitely many places contribute: primes dividing some numerator or
    denominator, plus infinity.
    """
    xs = _as_rf_vector(K, xs)
    if all(x.is_zero() for x in xs):
        raise ValueError("divisor of the zero vector is undefined")
    primes = set()
    for x in xs:
        if x.is_zero():
            continue
        for f in (x.num, x.den):
            if poly.deg(f) >= 1:
                _, fac = poly.factor(K, f)
                primes.update(fac)
    coeffs = {}
    for p in primes:
        place = Place(p)
        v = ord_vec(K, place, xs)
        if v:
            coeffs[place] = v
    v_inf = ord_vec(K, INFINITY, xs)
    if v_inf:
        coeffs[INFINITY] = v_inf
    return Divisor(coeffs)


def height_relative(K, xs) -> int:
    """Relative height -deg div(x) of a nonzero coordinate vector."""
    return -divisor_of_vector(K, xs).degree()


def vector_to_coprime_polys(K, xs):
    """Normalized coprime polynomial representative of a projective vector.

    Clears denominators, divides out the content, and scales so the first
    nonzero coordinate is monic.  The result is the unique representative
    of the scalar class in this form, and its maximal degree equals the
    relative height.
    """
    xs = _as_rf_vector(K, xs)
    if all(x.is_zero() for x in xs):
        raise ValueError("zero vector has no projective representative")
    den = ONE
    for x in xs:
        if not x.is_zero():
            g = poly.gcd(K, den, x.den)
            den = poly.exact_div(K, poly.mul(K, den, x.den), g)
    pols = [
        poly.mul(K, x.num, poly.exact_div(K, den, x.den)) if not x.is_zero() else ZERO
        for x in xs
    ]
    content = poly.gcd_many(K, pols)
    if content != ONE:
        pols = [poly.exact_div(K, f, content) if f else ZERO for f in pols]
    lead = next(f for f in pols if f)
    unit = lead[-1]
    if unit != 1:
        inv = K.inv(unit)
        pols = [poly.mul_scalar(K, f, inv) for f in pols]
    return tuple(pols)


def enumerate_places(K, degree: int):
    """All places of the given degree: monic irreducibles, plus infinity at 1."""
    if degree < 1:
        raise ValueError("places have degree >= 1")
    out = [Place(f) for f in poly.monic_irreducibles(K, degree)]
    if degree == 1:
        out.append(INFINITY)
    return out


# -- explicit genus-0 sections ------------------------------------------------


def genus0_section_basis(K, divisor: Divisor):
    """Explicit basis of L(a, 1) = {f : div(f) >= -a} on F_q(T).

    With den the product of positive finite parts and zreq the required
    zero part, the space is spanned by zreq * T^i / den for
    0 <= i <= deg(a); the count deg(a)+1 matches the genus-0 dimension.
    """
    den = poly.ONE
    zreq = poly.ONE
    n_inf = 0
    for place, c in divisor.coeffs.items():
        if place.is_infinite:
            n_inf = c
        elif c > 0:
            den = poly.mul(K, den, poly.pow_(K, place.prime, c))
        elif c < 0:
            zreq = poly.mul(K, zreq, poly.pow_(K, place.prime, -c))
    bound = poly.deg(den) + n_inf - poly.deg(zreq)
    if divisor.degree() < 0:
        return []
    if bound != divisor.degree():
        raise ConsistencyError(f"basis size {bound + 1} does not match degree {divisor.degree()}")
    basis = []
    for i in range(bound + 1):
        t_i = tuple([0] * i + [1])
        basis.append(RationalFunction(K, poly.mul(K, zreq, t_i), den))
    return basis


def section_space_contains(K, divisor: Divisor, f: RationalFunction) -> bool:
    """Membership test for L(a, 1) by checking every relevant valuation."""
    if f.is_zero():
        return True
    checked = set()
    for place in list(divisor.coeffs) + [INFINITY]:
        if place in checked:
            continue
        checked.add(place)
        if ord_at(K, place, f) < -divisor[place]:
            return False
    if poly.deg(f.den) >= 1:
        _, fac = poly.factor(K, f.den)
        for p in fac:
            place = Place(p)
            if place not in checked and ord_at(K, place, f) < -divisor[place]:
                return False
    return True

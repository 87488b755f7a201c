"""Zeta data of a curve over F_q: divisor-count sequences, exact zeta values,
Schanuel constants, Euler products and Hasse-Weil sanity checks.

A curve enters this layer only through its CurveDescriptor: the constant
field size q, the genus g, and the numerator L of the zeta function
Z(t) = L(t)/((1-t)(1-qt)), an integer polynomial of degree 2g with
L(0) = 1 and class number J = L(1).  The coefficients of Z and 1/Z are the
effective-divisor counts a(l) and their Moebius-weighted companions b(l).
All values are exact (ints / Fractions); zeta is only ever evaluated at
integer arguments s >= 2.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import ConsistencyError, DescriptorError, RefusalError, exact_quotient
from .gf import prime_power
from .poly import count_monic_irreducibles

__all__ = [
    "CurveDescriptor",
    "divisor_counts",
    "moebius_sums",
    "zeta_value",
    "schanuel_constant",
    "euler_product_truncation",
    "euler_truncation_bound",
    "euler_gap_lower_bound",
    "hasse_weil_check",
    "weil_interval",
    "parse_descriptor",
    "serialize_descriptor",
]


class CurveDescriptor(namedtuple("CurveDescriptor", "q g L class_dims")):
    """(q, genus, L-polynomial) with optional per-class dimension table.

    `class_dims`, when present, lists for each of the J divisor classes the
    dimensions l(a, 1) in degrees 0 .. 2g-2; it is required for genus >= 2
    and derivable for genus <= 1.  L and class_dims may be given as any
    sequences; they are kept as a tuple and a tuple of tuples, so that
    equal descriptors are equal and hash alike.
    """

    __slots__ = ()

    def __new__(cls, q, g, L, class_dims=None):
        L = tuple(L)
        if class_dims is not None:
            class_dims = tuple(map(tuple, class_dims))
        try:
            prime_power(q)
        except ValueError as exc:
            raise DescriptorError(f"constant field size: {exc}") from None
        if g < 0:
            raise DescriptorError("genus must be >= 0")
        if len(L) != 2 * g + 1:
            raise DescriptorError(f"L must have degree 2g = {2*g}, got {len(L)-1}")
        if L[0] != 1:
            raise DescriptorError("L(0) must be 1")
        for i in range(g + 1):
            if L[2 * g - i] != q ** (g - i) * L[i]:
                raise DescriptorError(
                    f"functional equation fails at coefficient {2*g - i}: "
                    f"expected {q ** (g - i) * L[i]}, got {L[2*g - i]}"
                )
        J = sum(L)
        if J < 1:
            raise DescriptorError(f"class number L(1) = {J} must be >= 1")
        # Weil bounds are diagnosed by hasse_weil_check, not at construction,
        # so that out-of-window descriptors can be built and reported on.
        return super().__new__(cls, q, g, L, class_dims)

    @property
    def J(self) -> int:
        return sum(self.L)

    @staticmethod
    def rational(q: int) -> "CurveDescriptor":
        return CurveDescriptor(q, 0, (1,))


def divisor_counts(desc: CurveDescriptor, l_max: int):
    """Counts a(0..l_max) of effective divisors by degree.

    These are the power series coefficients of L(t)/((1-t)(1-qt)); for
    m >= 2g-1 they satisfy the closed form a(m) = J*(q^(m+1-g)-1)/(q-1).
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    q, L = desc.q, desc.L
    # a(l) = L_l + (q+1)*a(l-1) - q*a(l-2), from a * (1-t)(1-qt) = L
    a = [0] * (l_max + 1)
    for l in range(l_max + 1):
        acc = L[l] if l < len(L) else 0
        if l >= 1:
            acc += (q + 1) * a[l - 1]
        if l >= 2:
            acc -= q * a[l - 2]
        if acc < 0:
            raise DescriptorError(f"descriptor yields negative divisor count a({l}) = {acc}")
        a[l] = acc
    return a


def moebius_sums(desc: CurveDescriptor, l_max: int):
    """Moebius-weighted divisor counts b(0..l_max): coefficients of 1/Z(t).

    Convolving with divisor_counts gives exactly [1, 0, 0, ...].
    """
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    q, L = desc.q, desc.L
    P = [1, -(q + 1), q]  # (1-t)(1-qt)
    b = [0] * (l_max + 1)
    for l in range(l_max + 1):
        acc = P[l] if l < 3 else 0
        for i in range(1, min(l, len(L) - 1) + 1):
            acc -= L[i] * b[l - i]
        b[l] = acc
    return b


def closed_form_divisor_count(desc: CurveDescriptor, m: int) -> int:
    """a(m) = J*(q^(m+1-g)-1)/(q-1), valid for m >= 2g-1."""
    if m < 2 * desc.g - 1:
        raise ValueError("closed form requires m >= 2g-1")
    num = desc.J * (desc.q ** (m + 1 - desc.g) - 1)
    return exact_quotient(num, desc.q - 1, "the closed form J*(q^(m+1-g)-1)/(q-1)")


def _L_at(desc: CurveDescriptor, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(desc.L):
        acc = acc * t + c
    return acc


def zeta_value(desc: CurveDescriptor, s: int) -> Fraction:
    """Exact zeta value L(q^-s) / ((1-q^-s)(1-q^(1-s))) for integer s >= 2."""
    if not isinstance(s, int) or s < 2:
        raise ValueError("zeta is evaluated at integers s >= 2 only")
    q = desc.q
    t = Fraction(1, q**s)
    val = _L_at(desc, t) / ((1 - t) * (1 - q * t))
    if val <= 1:
        raise ConsistencyError(f"zeta value {val} at s={s} is not > 1")
    return val


def schanuel_constant(desc: CurveDescriptor, n: int) -> Fraction:
    """Leading point-count coefficient J / ((q-1) * zeta(n) * q^(n(g-1)))."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("dimension parameter n must be an integer >= 2")
    q = desc.q
    val = Fraction(desc.J) / ((q - 1) * zeta_value(desc, n) * Fraction(q) ** (n * (desc.g - 1)))
    if val <= 0:
        raise ConsistencyError(f"Schanuel constant {val} is not positive")
    return val


# -- Euler product over the rational field ---------------------------------


# size limit of the exact partial Euler product, in bits of its factors
EULER_MAX_BITS = 1 << 21


def euler_product_truncation(q: int, s: int, D: int) -> Fraction:
    """Exact partial Euler product over all places of F_q(T) of degree <= D.

    The result is a single exact rational; its size grows like q^(D+1)
    bits, so truncations beyond EULER_MAX_BITS are refused (at that point
    only the enclosure bounds below remain computable).
    """
    if s < 2:
        raise ValueError("s >= 2 required")
    if D < 0:
        raise ValueError("D must be >= 0")
    bits = sum(
        (count_monic_irreducibles(q, l) + (1 if l == 1 else 0)) * s * l
        for l in range(1, D + 1)
    ) * q.bit_length()
    if bits > EULER_MAX_BITS:
        raise RefusalError(
            f"exact Euler product at q={q}, D={D} needs ~{bits} bits, above the "
            f"limit of {EULER_MAX_BITS}; its gap to zeta stays certified by "
            f"tail_bound (euler_truncation_bound), which needs no product"
        )
    num, den = 1, 1
    for l in range(1, D + 1):
        cnt = count_monic_irreducibles(q, l) + (1 if l == 1 else 0)
        f = q ** (s * l)
        num *= f**cnt
        den *= (f - 1) ** cnt
    return Fraction(num, den)


def euler_truncation_bound(q: int, s: int, D: int) -> Fraction:
    """Upper bound sum_{l>D} a(l) q^(-sl) for zeta - (partial product), exact.

    Every divisor missed by the degree-<=D product contains a place of
    degree > D and so has degree > D; a(l) has the rational closed form.
    """
    t1 = Fraction(q, q - 1) * Fraction(q ** (D + 1), q ** (s * (D + 1))) / (1 - Fraction(q, q**s))
    t2 = Fraction(1, q - 1) * Fraction(1, q ** (s * (D + 1))) / (1 - Fraction(1, q**s))
    return t1 - t2


def euler_gap_lower_bound(q: int, s: int, D: int, extra: int = 6) -> Fraction:
    """Lower bound for zeta - (partial product): single-place divisors of
    degree D+1 .. D+extra alone contribute this much."""
    return sum(
        Fraction(count_monic_irreducibles(q, l), q ** (s * l))
        for l in range(D + 1, D + 1 + extra)
    )


# -- Hasse-Weil window ------------------------------------------------------


def weil_interval(q: int, g: int):
    """(A, B) with (sqrt(q)+1)^(2g) = A + B*sqrt(q) and (sqrt(q)-1)^(2g) = A - B*sqrt(q)."""
    A = B = 0
    binom = 1
    for i in range(2 * g + 1):
        if i % 2 == 0:
            A += binom * q ** (i // 2)
        else:
            B += binom * q ** ((i - 1) // 2)
        binom = binom * (2 * g - i) // (i + 1)
    return A, B


def hasse_weil_check(desc: CurveDescriptor) -> dict:
    """Exact Weil-window checks on a descriptor; never uses floating point.

    Verifies (sqrt(q)-1)^(2g) <= J <= (sqrt(q)+1)^(2g) via squared integer
    comparisons, and |c1| <= 2*sqrt(q) for genus 1.  The functional
    equation is not rechecked: CurveDescriptor rejects any L that fails it.
    Returns {"ok": bool, "failures": [message, ...]}.
    """
    q, g, J = desc.q, desc.g, desc.J
    failures = []
    A, B = weil_interval(q, g)
    # J >= A - B*sqrt(q):  J - A >= -B*sqrt(q)
    if J < A and (A - J) ** 2 > B * B * q:
        failures.append(f"class number {J} below (sqrt(q)-1)^(2g)")
    # J <= A + B*sqrt(q):  J - A <= B*sqrt(q)
    if J > A and (J - A) ** 2 > B * B * q:
        failures.append(f"class number {J} above (sqrt(q)+1)^(2g)")
    if g == 1 and desc.L[1] ** 2 > 4 * q:
        failures.append(f"|c1| = |{desc.L[1]}| exceeds 2*sqrt(q)")
    return {"ok": not failures, "failures": failures}


# -- descriptor file format --------------------------------------------------
#
# Line-oriented "key = value" text; '#' starts a comment.  Keys:
#   q = 3
#   g = 1
#   L_coeffs = 1, 0, 3
#   class_dims = 1; 0; 0; 0        (optional; one row per class, rows are
#                                   comma-separated dims for degrees 0..2g-2)


def parse_descriptor(text: str) -> CurveDescriptor:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DescriptorError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in ("q", "g", "L_coeffs", "class_dims"):
            raise DescriptorError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise DescriptorError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in ("q", "g"):
                values[key] = int(val)
            elif key == "L_coeffs":
                values[key] = tuple(int(x) for x in val.split(","))
            else:
                values[key] = tuple(
                    tuple(int(x) for x in row.split(",")) for row in val.split(";")
                )
        except ValueError as exc:
            raise DescriptorError(f"line {lineno}: {exc}") from None
    for req in ("q", "g", "L_coeffs"):
        if req not in values:
            raise DescriptorError(f"missing required key {req!r}")
    try:
        desc = CurveDescriptor(
            values["q"], values["g"], values["L_coeffs"], values.get("class_dims")
        )
    except DescriptorError as exc:
        raise DescriptorError(f"invalid descriptor: {exc}") from None
    return desc


def serialize_descriptor(desc: CurveDescriptor) -> str:
    lines = [
        f"q = {desc.q}",
        f"g = {desc.g}",
        "L_coeffs = " + ", ".join(str(c) for c in desc.L),
    ]
    if desc.class_dims is not None:
        lines.append(
            "class_dims = " + "; ".join(",".join(str(d) for d in row) for row in desc.class_dims)
        )
    return "\n".join(lines) + "\n"

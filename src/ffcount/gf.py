"""Small finite fields F_q with table-driven arithmetic.

Elements of F_q with q = p^e are encoded as integers in range(q): the
element c_0 + c_1*w + ... + c_{e-1}*w^(e-1), with w a root of the field
modulus, is encoded as c_0 + c_1*p + ... + c_{e-1}*p^(e-1), which is the
poly integer code over F_p of its coefficients in w.  For prime q this is
the plain representation of Z/pZ.  Addition, multiplication and inversion
are precomputed into flat lists at construction time; every field used
here has at most a few hundred elements, so the tables are the fastest and
simplest option for the enumeration loops built on top.

For e > 1 the tables are built on poly over F_p, digit by digit.  The
addition table is poly.code_sums over F_p.  Row a of the multiplication
table starts with the p multiples a*c, c in F_p (poly.scaled_codes); for
b = b0 + w*b1, with b0 = b % p and b1 = b // p, a*b = a*b0 + w*(a*b1), so
entry b reads entries b0 and b1 < b, and multiplication by w shifts a code
up one digit and folds the top digit back through w^e = -(modulus without
its leading 1).  The default modulus is the first monic of degree e, in
code order, that poly.is_irreducible accepts.
"""

import functools

from . import poly
from .errors import ConsistencyError

__all__ = ["FiniteField", "GF", "constant_extension", "prime_power"]


class FiniteField:
    """The finite field with p^e elements, elements encoded as ints in range(q)."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if prime_power(p) != (p, 1):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            self.modulus = None
        elif modulus is None:
            self.modulus = self._default_modulus(p, e)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree e")
            if not poly.is_irreducible(GF(p), modulus):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._build_tables()

    @staticmethod
    def _default_modulus(p, e):
        Fp = GF(p)
        for cand in poly.enumerate_monic(Fp, e):
            if poly.is_irreducible(Fp, cand):
                return cand
        raise ConsistencyError(f"no irreducible modulus of degree {e} over F_{p}")

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            Fp, top = GF(p), p ** (e - 1)
            sums = poly.code_sums(Fp, q)
            self._add = add = [sums[a * q : (a + 1) * q] for a in range(q)]
            # c*w^e for the top digits c, w^e = -(modulus without its leading 1)
            fold = poly.scaled_codes(Fp, poly.neg(Fp, self.modulus[:-1]))
            times_w = [add[x % top * p][fold[x // top]] for x in range(q)]
            self._mul = []
            for a in range(q):
                row = poly.scaled_codes(Fp, poly.from_code(p, a))
                low = row[:]
                for b1 in range(1, q // p):  # a*(b1*p + c) = a*c + w*(a*b1)
                    row += map(add[times_w[row[b1]]].__getitem__, low)
                self._mul.append(row)
        self._neg = [self._add[a].index(0) for a in range(q)]
        # a non-field ring (a reducible modulus) leaves its non-units at 0
        self._inv = [0] + [row.index(1) if 1 in row else 0 for row in self._mul[1:]]
        self._squares = frozenset(self._mul[a][a] for a in range(1, q))

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        r = 1
        while k:
            if k & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            k >>= 1
        return r

    # -- structure --------------------------------------------------------

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def is_square(self, a) -> bool:
        """Whether a is a square in this field (0 counts as a square)."""
        return a == 0 or a in self._squares

    def non_square_unit(self) -> int:
        """Smallest non-square unit; exists iff q is odd."""
        if self.q % 2 == 0:
            raise ValueError("every element of a characteristic-2 field is a square")
        return min(u for u in self.units() if u not in self._squares)

    def embedding_into(self, other: "FiniteField"):
        """Code map of the field embedding into `other` (self must be a subfield).

        Returns a list m of length q with m[code] the image code.  For a
        prime field the embedding is the identity on 0..p-1.  For e > 1 the
        generator is sent to the smallest root of the modulus in `other`,
        which makes the map deterministic.
        """
        if other.p != self.p or other.e % self.e != 0:
            raise ValueError(f"F_{self.q} does not embed into F_{other.q}")
        if self.e == 1:
            return list(range(self.p))
        # F_p has the codes 0 .. p-1 in both fields, so a polynomial over
        # F_p is evaluated in `other` as it stands
        root = next((r for r in other.elements()
                     if poly.evaluate(other, self.modulus, r) == 0), None)
        if root is None:
            raise ConsistencyError(f"modulus {self.modulus} has no root in F_{other.q}")
        return [poly.evaluate(other, poly.from_code(self.p, code), root)
                for code in range(self.q)]

    def __repr__(self):
        return f"FiniteField({self.p}, {self.e})" if self.e > 1 else f"FiniteField({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))


def prime_power(q: int):
    """(p, e) with q = p^e, p prime and e >= 1; ValueError for any other q.
    Builds no field tables."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q  # no factor up to sqrt(q): q is prime
    n, e = q, 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


@functools.lru_cache(maxsize=32)
def GF(q: int) -> FiniteField:
    """Field with q elements (q a prime power), with a fixed default modulus."""
    return FiniteField(*prime_power(q))


@functools.lru_cache(maxsize=32)
def constant_extension(K: FiniteField, r: int):
    """(F_{q^r}, code map of the embedding of K = F_q into it); K itself
    with the identity map at r = 1."""
    if r == 1:
        return K, tuple(range(K.q))
    big = FiniteField(K.p, K.e * r)
    return big, tuple(K.embedding_into(big))

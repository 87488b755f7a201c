"""Small finite fields F_q with table-driven arithmetic.

Elements of F_q with q = p^e are encoded as integers in range(q): the
element c_0 + c_1*w + ... + c_{e-1}*w^(e-1), with w a root of the field
modulus, is encoded as c_0 + c_1*p + ... + c_{e-1}*p^(e-1).  For prime q
this is the plain representation of Z/pZ.  Addition, multiplication and
inversion are precomputed into flat lists at construction time; every
field used here has at most a few hundred elements, so the tables are the
fastest and simplest option for the enumeration loops built on top.
"""

import functools

from .errors import ConsistencyError

__all__ = ["FiniteField", "GF", "constant_extension", "prime_power"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vec_mul_mod(p, a, b, modulus):
    """Multiply coefficient vectors a, b over F_p and reduce mod `modulus`."""
    e = len(modulus) - 1
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] + x * y) % p
    # modulus is monic of degree e
    for k in range(len(r) - 1, e - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            for j in range(e):
                r[k - e + j] = (r[k - e + j] - c * modulus[j]) % p
    r = r[:e]
    r += [0] * (e - len(r))
    return r


def _irreducible(p, f):
    """Whether the monic f over F_p (coefficients, constant first) is
    irreducible, by poly.is_irreducible over F_p.  poly imports this
    module, hence the local import; F_p needs no modulus, so the call
    builds no field that would ask this test again."""
    from . import poly

    return poly.is_irreducible(GF(p), f)


class FiniteField:
    """The finite field with p^e elements, elements encoded as ints in range(q)."""

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
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
            if not _irreducible(p, modulus):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._build_tables()

    @staticmethod
    def _default_modulus(p, e):
        # the monic irreducible of degree e of least code c_0 + c_1*p + ...
        # + c_(e-1)*p^(e-1); each candidate is tested by _irreducible on its
        # coefficients alone, and the field tables are built once, for it
        for code in range(p**e):
            cand = tuple((code // p**i) % p for i in range(e)) + (1,)
            if _irreducible(p, cand):
                return cand
        raise ConsistencyError(f"no irreducible modulus of degree {e} over F_{p}")

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            vecs = [tuple((c // p**i) % p for i in range(e)) for c in range(q)]
            enc = lambda v: sum(int(v[i]) * p**i for i in range(e))
            self._add = [
                [enc([(x + y) % p for x, y in zip(vecs[a], vecs[b])]) for b in range(q)]
                for a in range(q)
            ]
            self._mul = [
                [enc(_vec_mul_mod(p, vecs[a], vecs[b], self.modulus)) for b in range(q)]
                for a in range(q)
            ]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    self._inv[a] = b
                    break
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
        root = None
        for r in other.elements():
            acc = 0
            for c in reversed(self.modulus):
                acc = other.add(other.mul(acc, r), c % self.p)
            if acc == 0:
                root = r
                break
        if root is None:
            raise ConsistencyError(f"modulus {self.modulus} has no root in F_{other.q}")
        images = []
        for code in range(self.q):
            vec = [(code // self.p**i) % self.p for i in range(self.e)]
            acc = 0
            for c in reversed(vec):
                acc = other.add(other.mul(acc, root), c)
            images.append(acc)
        return images

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


@functools.lru_cache(maxsize=None)
def GF(q: int) -> FiniteField:
    """Field with q elements (q a prime power), with a fixed default modulus."""
    return FiniteField(*prime_power(q))


@functools.lru_cache(maxsize=None)
def constant_extension(K: FiniteField, r: int):
    """(F_{q^r}, code map of the embedding of K = F_q into it); K itself
    with the identity map at r = 1."""
    if r == 1:
        return K, tuple(range(K.q))
    big = FiniteField(K.p, K.e * r)
    return big, tuple(K.embedding_into(big))

"""Riemann-Roch dimension bookkeeping over class models of genus <= 1, plus
validation of externally supplied class tables for higher genus.

A ClassModel pins, for each of the J divisor classes of degree 0 and each
degree i in 0..2g-2, the dimension l(a_j + i*a_0, 1); outside that window
the dimensions are forced: 0 below degree 0 and i+1-g from degree 2g-1 on.
For vector spaces of n-tuples, l(a, n) = n*l(a, 1).  The model is all the
counting layer needs: lambda(a, n) = q^l(a,n) - 1 counts nonzero elements.

Two exact identities guard every model:
  * class-sum identity: sum_j q^dims(j,i) - J = (q-1) * a(i) for all i;
  * reflection (duality): sum_j lambda(a_j + i*a_0, n) - J*(q^(n(i+1-g)) - 1)
      = q^(n(i+1-g)) * sum_j lambda(a_j + (2g-2-i)*a_0, n).
The Clifford bound caps table entries at floor((i+2)/2) in the window
(attained only by the zero and canonical classes).
"""

from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .errors import ConsistencyError, DescriptorError
from .places import INFINITY, Divisor, Place, RationalFunction, ord_at
from .zeta import CurveDescriptor, divisor_counts


@dataclass(frozen=True)
class ClassModel:
    desc: CurveDescriptor
    dims_table: tuple  # dims_table[j][i], j in 0..J-1, i in 0..2g-2; empty for g=0

    @property
    def q(self):
        return self.desc.q

    @property
    def g(self):
        return self.desc.g

    @property
    def J(self):
        return self.desc.J


def build_class_model(desc: CurveDescriptor) -> ClassModel:
    """Class model from a descriptor; genus <= 1 tables are derived, higher
    genus requires desc.class_dims and is validated before acceptance."""
    g, J = desc.g, desc.J
    if g == 0:
        table = ((),)
    elif g == 1:
        # degree 0: only the zero class has a section
        table = tuple((1,) if j == 0 else (0,) for j in range(J))
    else:
        if desc.class_dims is None:
            raise DescriptorError(
                f"genus {g} needs an explicit class_dims table (degrees 0..{2*g-2})"
            )
        table = tuple(tuple(row) for row in desc.class_dims)
        _validate_class_dims(desc, table)
    return ClassModel(desc, table)


def _validate_class_dims(desc, table):
    g, J, q = desc.g, desc.J, desc.q
    if len(table) != J:
        raise DescriptorError(f"class_dims needs {J} rows, got {len(table)}")
    for j, row in enumerate(table):
        if len(row) != 2 * g - 1:
            raise DescriptorError(
                f"class_dims row {j + 1} needs degrees 0..{2*g-2}, got {len(row)} entries"
            )
        for i, d in enumerate(row):
            if d < 0 or 2 * d > i + 2:
                raise DescriptorError(
                    f"class_dims[{j + 1}][{i}] = {d} violates the Clifford bound"
                )
    if sum(1 for row in table if row[0] == 1) != 1 or any(row[0] > 1 for row in table):
        raise DescriptorError("degree 0 must have exactly one class of dimension 1")
    model = ClassModel(desc, table)
    a = divisor_counts(desc, 2 * g - 2)
    for i in range(2 * g - 1):
        lhs = sum(q ** row[i] for row in table) - J
        if lhs != (q - 1) * a[i]:
            raise DescriptorError(
                f"class_dims degree {i}: sum q^dims - J = {lhs} != (q-1)a({i}) = {(q-1)*a[i]}"
            )
    for n in (1, 2, 3):
        for i in range(2 * g - 1):
            if not reflection_identity_check(model, i, n):
                raise DescriptorError(f"class_dims fails reflection at degree {i}, n={n}")


def class_dimension(model: ClassModel, j: int, i: int) -> int:
    """l(a_j + i*a_0, 1) for class index j in 1..J and degree i."""
    if not 1 <= j <= model.J:
        raise ValueError(f"class index {j} out of range 1..{model.J}")
    if i < 0:
        return 0
    if i >= 2 * model.g - 1:
        return i + 1 - model.g
    return model.dims_table[j - 1][i]


def l_dim(model: ClassModel, j: int, i: int, n: int) -> int:
    """l(a, n) = n * l(a, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * class_dimension(model, j, i)


def lambda_sum(model: ClassModel, i: int, n: int) -> int:
    """sum over classes of lambda(a_j + i*a_0, n) = q^(n*l) - 1."""
    if i < 0:
        return 0
    q = model.q
    if i >= 2 * model.g - 1:
        return model.J * (q ** (n * (i + 1 - model.g)) - 1)
    return sum(q ** (n * row[i]) - 1 for row in model.dims_table)


def class_sum_identity_check(model: ClassModel, m_max: int) -> bool:
    """sum_j q^dims(j, m) - J == (q-1) * a(m) for all 0 <= m <= m_max."""
    a = divisor_counts(model.desc, m_max)
    q, J = model.q, model.J
    for m in range(m_max + 1):
        lhs = sum(q ** class_dimension(model, j, m) for j in range(1, J + 1)) - J
        if lhs != (q - 1) * a[m]:
            return False
    return True


def clifford_sum_check(model: ClassModel, i: int, n: int) -> bool:
    """Explicit upper bound for the class sums in the genus window:

        sum_j lambda(a_j + i*a_0, n) <= n*(q-1)*a(i) * q^((n-1)(i+2)/2)

    This follows from the geometric-sum split of q^(nc)-1 and the Clifford
    bound c <= floor((i+2)/2).  The (i+2) exponent can be half-integral, so
    the comparison is done on squares to stay in integer arithmetic.
    """
    g = model.g
    if g < 1 or not 0 <= i <= 2 * g - 2:
        raise ValueError("degree must lie in the genus window 0..2g-2")
    lhs = lambda_sum(model, i, n)
    a_i = divisor_counts(model.desc, i)[i]
    # rhs = n*(q-1)*a(i) * q^((n-1)(i+2)/2); compare lhs^2 <= rhs^2
    base = n * (model.q - 1) * a_i
    return lhs * lhs <= base * base * model.q ** ((n - 1) * (i + 2))


def reflection_identity_check(model: ClassModel, i: int, n: int) -> bool:
    """Duality between class sums at degrees i and 2g-2-i:

        sum_j lambda(a_j+i*a_0, n) - J*(q^(n(i+1-g)) - 1)
            = q^(n(i+1-g)) * sum_j lambda(a_j+(2g-2-i)*a_0, n)

    Exact in Fractions (the power is negative when i + 1 < g).
    """
    g = model.g
    if g < 1 or not 0 <= i <= 2 * g - 2:
        raise ValueError("degree must lie in the genus window 0..2g-2")
    scale = Fraction(model.q) ** (n * (i + 1 - g))
    lhs = lambda_sum(model, i, n) - model.J * (scale - 1)
    rhs = scale * lambda_sum(model, 2 * g - 2 - i, n)
    return lhs == rhs


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


def genus0_basis(K, divisor: Divisor, n: int):
    """Spanning set of L(a, n) subset of k^n: the L(a,1) basis per coordinate."""
    base = genus0_section_basis(K, divisor)
    zero = RationalFunction(K, poly.ZERO)
    out = []
    for coord in range(n):
        for f in base:
            vec = [zero] * n
            vec[coord] = f
            out.append(tuple(vec))
    return out


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

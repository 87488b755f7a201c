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

from collections import namedtuple
from fractions import Fraction

from .errors import DescriptorError
from .zeta import CurveDescriptor, divisor_counts


class ClassModel(namedtuple("ClassModel", "desc dims_table")):
    """The descriptor of a curve and its dims_table[j][i] = l(a_j + i*a_0, 1)
    for j in 0..J-1, i in 0..2g-2 (one empty row for g = 0)."""

    __slots__ = ()

    def __new__(cls, desc, dims_table):
        # kept as a tuple of tuples, so that a model hashes
        return super().__new__(cls, desc, tuple(map(tuple, dims_table)))

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
    g, J = desc.g, desc.J
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
    if sum(1 for row in table if row[0] == 1) != 1:
        raise DescriptorError("degree 0 must have exactly one class of dimension 1")
    model = ClassModel(desc, table)
    if not class_sum_identity_check(model, 2 * g - 2):
        raise DescriptorError(
            f"class_dims fails the class-sum identity sum_j q^dims - J = (q-1)a(i), "
            f"i in 0..{2*g-2}"
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


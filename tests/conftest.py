import os
import sys

import pytest

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture(scope="session")
def genus2_field():
    """The first genus-2 field of F_3(T) (deg D = 5), and its descriptor
    with a synthetic class table, right up to the multisets per degree that
    lambda_sum reads: degree 0 has one principal class, degree 1 the a(1)
    point classes, and degree 2 = 2g - 2 the canonical class (dimension 2)
    and J - 1 classes of dimension 1, as for any hyperelliptic genus-2
    curve."""
    from ffcount.quadratic import enumerate_quadratic_fields
    from ffcount.zeta import CurveDescriptor, divisor_counts

    f = next(f for f in enumerate_quadratic_fields(3, 5) if f.genus == 2)
    J, a = f.J, divisor_counts(f.descriptor, 2)
    col0 = [1] + [0] * (J - 1)
    col1 = [1] * a[1] + [0] * (J - a[1])
    col2 = [2] + [1] * (J - 1)
    table = tuple((col0[j], col1[j], col2[j]) for j in range(J))
    return f, CurveDescriptor(f.q, 2, f.descriptor.L, class_dims=table)

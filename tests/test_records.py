import os
import subprocess
import sys
from fractions import Fraction

import pytest

from ffcount.counting import CountResult
from ffcount.errors import DescriptorError
from ffcount.forms import FormTable
from ffcount.places import INFINITY, Place
from ffcount.riemann_roch import build_class_model
from ffcount.zeta import CurveDescriptor

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_assignment_and_deletion_raise_attribute_error():
    desc = CurveDescriptor(3, 1, (1, 2, 3))
    for name in ("q", "class_dims", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(desc, name, 5)
    with pytest.raises(AttributeError):
        del desc.q
    assert desc.q == 3 and desc.class_dims is None


def test_fields_by_position_keyword_and_default():
    desc = CurveDescriptor(3, 1, (1, 2, 3))
    assert desc == CurveDescriptor(q=3, g=1, L=(1, 2, 3), class_dims=None)
    assert desc == CurveDescriptor(3, 1, L=(1, 2, 3))
    with pytest.raises(TypeError):
        CurveDescriptor(3, 1)
    with pytest.raises(TypeError):
        CurveDescriptor(3, 1, (1, 2, 3), None, None)
    with pytest.raises(TypeError):
        CurveDescriptor(3, 1, (1, 2, 3), q=3)
    with pytest.raises(TypeError):
        CurveDescriptor(3, 1, (1, 2, 3), genus=1)


def test_new_validates():
    with pytest.raises(DescriptorError):
        CurveDescriptor(4, 0, (2,))
    with pytest.raises(DescriptorError):
        CurveDescriptor(q=4, g=0, L=(2,))


def test_equality_and_hash_by_fields():
    assert Place(None) == INFINITY and Place((1, 1)) != Place((2, 1))
    a, b = CurveDescriptor(3, 1, (1, 2, 3)), CurveDescriptor(3, 1, (1, 2, 3))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    model = build_class_model(a)
    assert model == build_class_model(b) and hash(model) == hash(build_class_model(b))


def test_repr_lists_the_fields_in_order():
    assert repr(CurveDescriptor(3, 1, (1, 2, 3))) == (
        "CurveDescriptor(q=3, g=1, L=(1, 2, 3), class_dims=None)")
    assert repr(FormTable(3, 2, 2, 1, {1: 5})) == (
        "FormTable(p=3, n=2, d=2, m=1, counts={1: 5}, frobenius=None)")
    result = CountResult(2, 0, 1, 2, 1, 2, 24, Fraction(24), Fraction(0), Fraction(0),
                         Fraction(0))
    assert repr(result) == (
        "CountResult(q=2, g=0, J=1, n=2, d=1, m=2, N=24, main_term=Fraction(24, 1), "
        "err_unit_sum=Fraction(0, 1), err_zeta_tail=Fraction(0, 1), "
        "err_genus_window=Fraction(0, 1))")
    # a class's own __repr__ wins
    assert repr(INFINITY) == "oo" and repr(Place((1, 1))) == "(T+1)"


def test_cli_imports_neither_dataclasses_nor_inspect():
    probe = "import sys, ffcount.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
    assert out.strip() == "[]"

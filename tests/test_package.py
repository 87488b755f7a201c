import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ffcount


def test_public_names_are_their_home_objects():
    for name in ffcount.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"ffcount.{ffcount._HOMES[name]}")
        assert getattr(ffcount, name) is getattr(home, name), name
    assert ffcount.__version__ == "0.1.0"
    assert set(ffcount.__all__) <= set(dir(ffcount))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ffcount import *", namespace)
    assert set(ffcount.__all__) <= set(namespace)
    assert namespace["moebius_point_count"] is ffcount.counting.moebius_point_count


def test_unknown_names_fall_back_to_submodules():
    with pytest.raises(AttributeError, match="no_such_name"):
        ffcount.no_such_name
    from ffcount import counting  # a submodule, not a public name

    assert counting.__name__ == "ffcount.counting"


def test_every_cache_is_bounded():
    # a long-lived process must not grow a cache without limit; every
    # cached function of every module, the long-lived ones named below
    cached = {}
    for info in pkgutil.iter_modules(ffcount.__path__):
        module = importlib.import_module(f"ffcount.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                cached[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"gf.GF", "gf.constant_extension", "counting.moebius_point_count",
            "kernels.discriminant_classes", "kernels.classify_triples_by_polys",
            "quadratic.enumerate_quadratic_fields", "poly.monic_irreducibles", "poly._artin_schreier_image"} <= set(cached)
    assert all(size is not None for size in cached.values()), cached


def test_no_assert_in_the_package():
    # python -O strips assert statements, so every invariant of the
    # package raises instead
    for path in sorted(Path(ffcount.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts at lines {lines}"

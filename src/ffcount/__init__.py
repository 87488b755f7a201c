"""Exact point counting over rational function fields and their quadratic
extensions: heights, divisor-count sequences, zeta values, Riemann-Roch
class models, Moebius-inversion counters and brute-force oracles.

Everything numeric is exact (ints and Fractions); floats appear only in
clearly labeled report columns.

The public names are loaded from their home modules on first access
(PEP 562), so `import ffcount` loads no submodule and `python -m
ffcount.cli` loads only what its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> home module
_HOMES = {
    "GF": "gf",
    "FiniteField": "gf",
    "CurveDescriptor": "zeta",
    "ClassModel": "riemann_roch",
    "CountResult": "counting",
    "QuadraticFieldDesc": "quadratic",
    "RefusalError": "errors",
    "ConsistencyError": "errors",
    "DescriptorError": "errors",
    "brute_count_rational": "counting",
    "moebius_point_count": "counting",
    "count_fixed_degree_points": "counting",
    "count_degree2_points_by_fields": "counting",
    "enumerate_quadratic_fields": "quadratic",
    "schanuel_sum_quadratic": "counting",
    "build_class_model": "riemann_roch",
    "divisor_counts": "zeta",
    "moebius_sums": "zeta",
    "zeta_value": "zeta",
    "schanuel_constant": "zeta",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    # an unknown name raises AttributeError, so that `from ffcount import
    # counting` falls back to importing the submodule
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

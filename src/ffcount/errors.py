"""Exception types shared across the package, and the work budget that
the exhaustive engines check before they enumerate."""

# the default of every --budget, in the unit each refusal names
DEFAULT_BUDGET = 10**8


class RefusalError(Exception):
    """Raised when a requested computation is refused rather than approximated.

    Used for enumeration budgets, coverage limits (e.g. heights that would
    require genus >= 2 class data), and unsupported parameter ranges.  The
    message always states the reason; callers must not silently truncate.
    """


class ConsistencyError(Exception):
    """An internal exact identity failed; indicates a counting bug upstream."""


class DescriptorError(ValueError):
    """Invalid curve descriptor data (bad invariants or file syntax)."""


def exact_quotient(n: int, d: int, what: str) -> int:
    """n // d for a division of counts that must be exact; a remainder
    raises ConsistencyError naming what, n and d.  The numbers are
    formatted only then, so a quotient of any size costs no str()."""
    quotient, remainder = divmod(n, d)
    if remainder:
        raise ConsistencyError(f"{what} is not integral: {n}/{d}")
    return quotient


def check_budget(candidates: int, budget: int, what: str, unit: str = "candidate tuples"):
    """Refuse a run of what whose work, candidates of the named unit,
    exceeds the budget."""
    if candidates > budget:
        raise RefusalError(
            f"{what} needs {candidates} {unit} > budget {budget}; "
            f"raise the budget explicitly to proceed"
        )

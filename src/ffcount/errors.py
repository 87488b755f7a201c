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


def check_budget(candidates: int, budget: int, what: str, unit: str = "candidate tuples"):
    """Refuse a run of what whose work, candidates of the named unit,
    exceeds the budget."""
    if candidates > budget:
        raise RefusalError(
            f"{what} needs {candidates} {unit} > budget {budget}; "
            f"raise the budget explicitly to proceed"
        )

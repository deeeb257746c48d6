"""The element budget shared by the enumeration paths."""

from __future__ import annotations

import os

from .errors import BudgetExceeded, TorifiedError

DEFAULT_BUDGET = 10**6


def enumeration_budget() -> int:
    """Default element budget, overridable via TORIFIED_BUDGET (unset or
    empty: the default); any value but a positive integer is an error."""
    raw = os.environ.get("TORIFIED_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    invalid = TorifiedError(f"TORIFIED_BUDGET must be a positive integer, got {raw!r}")
    try:
        budget = int(raw)
    except ValueError:
        raise invalid from None
    if budget < 1:
        raise invalid
    return budget


def check_budget(size: int, what: str) -> None:
    """Refuse a listing of ``size`` items before any of them is built."""
    budget = enumeration_budget()
    if size > budget:
        raise BudgetExceeded(f"{size} {what} exceed the budget of {budget}")

"""The element budget shared by the enumeration paths."""

from __future__ import annotations

import os
from math import log10

from .errors import BudgetExceeded, TorifiedError

DEFAULT_BUDGET = 10**6
_SHOWN_IN_FULL = 10**1000  # sizes below are printed digit by digit


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
    """Refuse a listing of ``size`` items before any of them is built; the
    refusal carries ``size``."""
    budget = enumeration_budget()
    if size > budget:
        raise BudgetExceeded(f"{_size_text(size)} {what} exceed the budget of {budget}", size)


def _size_text(size: int) -> str:
    """``size`` in decimal below :data:`_SHOWN_IN_FULL`; above, as ``10^k or
    more`` for the exact k with 10^k <= size < 10^(k+1), found without
    converting ``size`` (Python refuses to convert an int of more than 4,300
    digits by default)."""
    if size < _SHOWN_IN_FULL:
        return str(size)
    x = log10(size)  # off by less than 1e-6 for any int that fits in memory
    k = int(x)
    if x - k < 1e-3:  # near a power of ten the rounding may cross it: compare exactly
        k -= 10**k > size
    elif x - k > 1 - 1e-3:
        k += 10 ** (k + 1) <= size
    return f"10^{k} or more"

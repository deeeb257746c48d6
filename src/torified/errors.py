"""Exception hierarchy and validation-report types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field


class TorifiedError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(TorifiedError):
    """A vector's length does not match the ambient dimension."""


class InvalidCone(TorifiedError):
    """Cone data violates an invariant (non-primitive ray, line through 0, ...)."""


class NotPointed(TorifiedError):
    """Operation requires a pointed cone but the input carries lineality."""


class InvalidFan(TorifiedError):
    """A fan failed validation; carries the report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations) or "invalid fan")
        self.report = report


class MissingSourceCone(TorifiedError):
    """The monoid was not built from a cone, so face-based operations are undefined."""


class InvalidComposition(TorifiedError):
    """Flag type must be a tuple of positive integers."""


class InvalidChevalleyData(TorifiedError):
    """Cell data violates min/max constraints."""


class MissingCharts(TorifiedError):
    """The torification carries no atlas."""


class UnknownFamily(TorifiedError):
    """No oracle formula is registered under this family name."""


class BudgetExceeded(TorifiedError):
    """Full enumeration would exceed the configured element budget."""


class ShapeMismatch(TorifiedError):
    """Matrix dimensions do not match the torus ranks they connect."""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check: empty ``violations`` means valid."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(self.violations)

"""Exceptions, the immutable value base and validation reports, shared
across the package.

:class:`Value` is the base of the value types (tori, cones, fans, monoids,
counting reports, groups, homs).  A subclass names its fields in
``__slots__``, where a slot with a leading underscore holds a derived value
and is not a field, and sets them once in its own ``__init__`` by ``_set``.
Values of one class are equal when their fields are, hash as the field
tuple, refuse assignment and deletion, pickle through the constructor and
print as ``Name(field=value, ...)``.  No code is generated for a subclass.
"""

from __future__ import annotations

from operator import attrgetter


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


class Value:
    """Immutable value: equal, and equally hashed, when its fields are."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*cls._fields)
        # the field tuple, also for one field, so hashes are those of the tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def _set(self, *values) -> None:
        """Set the slots, in ``__slots__`` order; for ``__init__`` only."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self) -> str:
        pairs = (f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({', '.join(pairs)})"


class ValidationReport(Value):
    """Outcome of a structural check: empty ``violations`` means valid."""

    __slots__ = ("violations",)

    def __init__(self, violations: tuple[str, ...] = ()):
        self._set(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(self.violations)

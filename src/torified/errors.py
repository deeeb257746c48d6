"""Exceptions, the immutable value base and validation reports, shared
across the package.

:class:`Value` is the base of the value types (tori, cones, fans, monoids,
counting reports, groups, homs).  A subclass names its fields in
``__slots__``, where a slot with a leading underscore holds a derived value
and is not a field, and sets them once in its own ``__init__`` by ``_set``,
which writes each slot through its member descriptor; the descriptors' setters
are collected once per class.  Values of one class are equal when their
fields are, hash as the field tuple, refuse assignment and deletion, pickle
through the constructor and print as ``Name(field=value, ...)``.  A derived
slot may keep what the fields determine: a cone or a fan, which key caches
and sets, keeps its hash, the same hash of its field tuple, in ``_hash``.
No code is generated for a subclass.
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
    """Full enumeration would exceed the configured element budget.
    ``size`` is the number of elements refused, when the refusal knows it."""

    def __init__(self, message: str, size: int | None = None):
        super().__init__(message)
        self.size = size


class ShapeMismatch(TorifiedError):
    """Matrix dimensions do not match the torus ranks they connect."""


class Value:
    """Immutable value: equal, and equally hashed, when its fields are."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # the slots' member descriptors set them without a lookup by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        get = attrgetter(*cls._fields)
        # the field tuple, also for one field, so hashes are those of the tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def _set(self, *values) -> None:
        """Set the slots, in ``__slots__`` order; for ``__init__`` only."""
        for set_slot, value in zip(self._setters, values, strict=True):
            set_slot(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def _kept_hash(self) -> int:
        """``__hash__`` of a subclass with a ``_hash`` slot, which its
        constructor sets to None: the same hash, kept from its first use."""
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._values(self)))
        return self._hash

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

"""Underlying point-set functors of the two gadget constructions.

On the group side, a torification sends a finite abelian group D to the
disjoint union of D^rank over its tori, graded by rank; torified morphisms
act per torus through an integer matrix on each factor.  On the monoid side,
the local functor of a cone counts semigroup maps from the cone's monoid into
a cyclic group with an absorbing zero adjoined; the count is computed two
independent ways (face formula vs. brute-force enumeration against a binomial
presentation) and the extension/restriction maps between the two pictures are
exposed for round-trip checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product as iproduct

from .counting import counting_polynomial, eval_counting
from .errors import (
    BoundTooSmall,
    BudgetExceeded,
    MissingSourceCone,
    ShapeMismatch,
    TorifiedError,
)
from .intlinalg import Vector, dot, hnf_rows, mat_rank
from .lattice import Cone, Fan, faces, require_valid
from .monoids import AffineMonoid, monoid_of_cone
from .torify import Torification

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


# ---------------------------------------------------------------------------
# Finite abelian groups


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups; elements are mixed-radix tuples."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.cyclic_orders):
            raise ValueError("cyclic orders must be positive")

    @property
    def order(self) -> int:
        n = 1
        for m in self.cyclic_orders:
            n *= m
        return n

    def elements(self):
        return iproduct(*(range(m) for m in self.cyclic_orders))

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.cyclic_orders)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.cyclic_orders, strict=True))

    def scale(self, k: int, a) -> tuple[int, ...]:
        return tuple((k * x) % m for x, m in zip(a, self.cyclic_orders, strict=True))

    def __repr__(self) -> str:
        if not self.cyclic_orders:
            return "Z/1"
        return " x ".join(f"Z/{m}" for m in self.cyclic_orders)


#: All isomorphism types of abelian groups of order <= 12, by invariant factors.
ABELIAN_TYPES_UP_TO_12: tuple[tuple[int, ...], ...] = (
    (),
    (2,),
    (3,),
    (4,),
    (2, 2),
    (5,),
    (6,),
    (7,),
    (8,),
    (2, 4),
    (2, 2, 2),
    (9,),
    (3, 3),
    (10,),
    (11,),
    (12,),
    (2, 6),
)


def abelian_group_types(max_order: int = 12) -> tuple[FiniteAbelianGroup, ...]:
    """One group per isomorphism type of order <= max_order (max 12)."""
    if max_order > 12:
        raise ValueError("isomorphism types are tabulated up to order 12")
    return tuple(
        FiniteAbelianGroup(t)
        for t in ABELIAN_TYPES_UP_TO_12
        if FiniteAbelianGroup(t).order <= max_order
    )


# ---------------------------------------------------------------------------
# Graded point sets of the group-side functor


@dataclass(frozen=True)
class GradedPointSet:
    """Per-torus point lists (or exact counts) of a torification at a group D.

    A point of the torus of rank d is a d-tuple of elements of D.  In
    counts-only mode the cardinalities are exact but no elements are stored.
    """

    torification: Torification
    group: FiniteAbelianGroup
    counts_by_index: tuple[int, ...]
    points_by_index: tuple[tuple, ...] | None = None

    @property
    def is_full(self) -> bool:
        return self.points_by_index is not None

    @property
    def total(self) -> int:
        return sum(self.counts_by_index)

    def count_by_grade(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for torus, c in zip(self.torification.tori, self.counts_by_index):
            out[torus.rank] = out.get(torus.rank, 0) + c
        return out

    def points(self, index: int):
        if self.points_by_index is None:
            raise BudgetExceeded("point set was computed in counts-only mode")
        return self.points_by_index[index]

    def grade(self, rank: int):
        """All (torus index, point) pairs of the given grade."""
        if self.points_by_index is None:
            raise BudgetExceeded("point set was computed in counts-only mode")
        for i, torus in enumerate(self.torification.tori):
            if torus.rank == rank:
                for p in self.points_by_index[i]:
                    yield (i, p)


def cc_points(
    t: Torification,
    group: FiniteAbelianGroup,
    budget: int | None = None,
    mode: str = "auto",
) -> GradedPointSet:
    """Evaluate the group-side functor: one copy of D^rank per torus.

    ``mode`` is ``auto`` (fall back to counts-only over budget), ``full``
    (raise BudgetExceeded over budget) or ``counts``.
    """
    if mode not in ("auto", "full", "counts"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = enumeration_budget() if budget is None else budget
    order = group.order
    counts = tuple(order**torus.rank for torus in t.tori)
    total = sum(counts)
    if mode == "counts" or (mode == "auto" and total > budget):
        return GradedPointSet(t, group, counts, None)
    if total > budget:
        raise BudgetExceeded(f"{total} elements exceed the budget of {budget}")
    points = tuple(
        tuple(iproduct(group.elements(), repeat=torus.rank)) for torus in t.tori
    )
    return GradedPointSet(t, group, counts, points)


@dataclass(frozen=True)
class CardinalityCheck:
    group: FiniteAbelianGroup
    functor_count: int
    counting_value: int

    @property
    def ok(self) -> bool:
        return self.functor_count == self.counting_value

    def __bool__(self) -> bool:
        return self.ok


def cc_cardinality_check(t: Torification, group: FiniteAbelianGroup) -> CardinalityCheck:
    """Compare sum_i |D|^rank_i with N(|D|+1); equality is the variety condition."""
    functor_count = sum(group.order**torus.rank for torus in t.tori)
    counting_value = eval_counting(counting_polynomial(t), group.order + 1)
    return CardinalityCheck(group, functor_count, counting_value)


# ---------------------------------------------------------------------------
# Torified maps and their induced point maps


@dataclass(frozen=True)
class TorifiedMap:
    """A map of torifications: an index map plus one integer matrix per torus.

    ``matrices[i]`` has shape (rank of target torus) x (rank of source torus)
    and acts on points by matrix multiplication in D.
    """

    source: Torification
    target: Torification
    index_map: tuple[int, ...]
    matrices: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        if len(self.index_map) != len(self.source.tori):
            raise ShapeMismatch("index_map must cover every source torus")
        if len(self.matrices) != len(self.source.tori):
            raise ShapeMismatch("one matrix per source torus")
        for i, j in enumerate(self.index_map):
            if not 0 <= j < len(self.target.tori):
                raise ShapeMismatch(f"target index {j} out of range")
            m = self.matrices[i]
            rows, cols = len(m), len(m[0]) if m else 0
            want_rows = self.target.tori[j].rank
            want_cols = self.source.tori[i].rank
            if rows != want_rows or (rows and cols != want_cols):
                raise ShapeMismatch(
                    f"matrix {i} is {rows}x{cols}, expected {want_rows}x{want_cols}"
                )


def identity_map(t: Torification) -> TorifiedMap:
    mats = tuple(
        tuple(
            tuple(1 if i == j else 0 for j in range(torus.rank))
            for i in range(torus.rank)
        )
        for torus in t.tori
    )
    return TorifiedMap(t, t, tuple(range(len(t.tori))), mats)


def compose_maps(g: TorifiedMap, f: TorifiedMap) -> TorifiedMap:
    """g after f; matrices multiply torus by torus."""
    if f.target != g.source:
        raise ShapeMismatch("compose_maps needs f.target == g.source")
    index_map = tuple(g.index_map[j] for j in f.index_map)
    matrices = []
    for i in range(len(f.index_map)):
        a = g.matrices[f.index_map[i]]  # target_rank x mid_rank
        b = f.matrices[i]  # mid_rank x source_rank
        tgt_rank = g.target.tori[index_map[i]].rank
        src_rank = f.source.tori[i].rank
        matrices.append(
            tuple(
                tuple(sum(a[r][k] * b[k][c] for k in range(len(b))) for c in range(src_rank))
                for r in range(tgt_rank)
            )
        )
    return TorifiedMap(f.source, g.target, index_map, tuple(matrices))


def apply_map_to_point(f: TorifiedMap, group: FiniteAbelianGroup, index: int, point):
    """Image of one point: target_j = sum_k M[j][k] * point[k] in D."""
    m = f.matrices[index]
    out = []
    for row in m:
        acc = group.identity()
        for coeff, elt in zip(row, point, strict=True):
            acc = group.add(acc, group.scale(coeff, elt))
        out.append(acc)
    return (f.index_map[index], tuple(out))


def induced_map(
    f: TorifiedMap, group: FiniteAbelianGroup, budget: int | None = None
) -> dict:
    """The functor's action on points: {(i, x): (index_map[i], M_i x)}."""
    pts = cc_points(f.source, group, budget=budget, mode="full")
    out = {}
    for i in range(len(f.source.tori)):
        for x in pts.points(i):
            out[(i, x)] = apply_map_to_point(f, group, i, x)
    return out


# ---------------------------------------------------------------------------
# Monoid-side functor: cyclic group with absorbing zero


@dataclass(frozen=True)
class CyclicMonoidWithZero:
    """{0} adjoined to a cyclic group of order m; elements are -1 (the zero)
    and exponents 0..m-1 (the identity being exponent 0)."""

    m: int

    ZERO = -1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("the cyclic part must have order >= 1")

    def elements(self) -> tuple[int, ...]:
        return (self.ZERO,) + tuple(range(self.m))

    @property
    def order(self) -> int:
        return self.m + 1

    def mul(self, a: int, b: int) -> int:
        if a == self.ZERO or b == self.ZERO:
            return self.ZERO
        return (a + b) % self.m

    def power(self, a: int, k: int) -> int:
        if k == 0:
            return 0  # multiplicative identity
        if a == self.ZERO:
            return self.ZERO
        return (a * k) % self.m

    def __repr__(self) -> str:
        return f"mu_{self.m} + 0"


def soule_count_by_faces(monoid: AffineMonoid, m: int) -> int:
    """Count monoid maps into mu_m with zero by the face formula:
    sum over faces of the source cone of m^(unit rank of the localization)."""
    if monoid.source_cone is None:
        raise MissingSourceCone("face-formula counting needs a source cone")
    if m < 1:
        raise ValueError("m must be >= 1")
    cone = monoid.source_cone
    n = monoid.ambient_rank
    return sum(m ** (n - f.dim) for f in faces(cone))


@dataclass(frozen=True)
class BinomialRelation:
    """A lattice relation among generators, split by sign: the assignments we
    accept are those with equal evaluations of both sides (zero absorbing)."""

    coeffs: tuple[int, ...]

    @property
    def lhs(self) -> tuple[int, ...]:
        return tuple(max(c, 0) for c in self.coeffs)

    @property
    def rhs(self) -> tuple[int, ...]:
        return tuple(max(-c, 0) for c in self.coeffs)

    def render(self, names: list[str] | None = None) -> str:
        def side(exps):
            terms = [
                (f"{e}*" if e > 1 else "") + (names[i] if names else f"g{i + 1}")
                for i, e in enumerate(exps)
                if e
            ]
            return " + ".join(terms) if terms else "0"

        return f"{side(self.lhs)} = {side(self.rhs)}"

    def __repr__(self) -> str:
        return f"BinomialRelation({self.render()})"


def _box_kernel_vectors(columns: list[Vector], bound: int) -> list[Vector]:
    """All nonzero kernel vectors with coordinates in [-bound, bound],
    canonicalized so the first nonzero coordinate is positive."""
    g = len(columns)
    n = len(columns[0]) if columns else 0
    found: list[Vector] = []

    # depth-first over coordinates with a reachability prune per row
    tail_reach = [[0] * n for _ in range(g + 1)]
    for j in range(g - 1, -1, -1):
        for i in range(n):
            tail_reach[j][i] = tail_reach[j + 1][i] + bound * abs(columns[j][i])

    def rec(j: int, partial: tuple[int, ...], coeffs: list[int]) -> None:
        if j == g:
            if any(coeffs) and not any(partial):
                vec = tuple(coeffs)
                first = next(c for c in vec if c)
                if first > 0:
                    found.append(vec)
            return
        for c in range(-bound, bound + 1):
            nxt = tuple(p + c * columns[j][i] for i, p in enumerate(partial))
            if any(abs(x) > tail_reach[j + 1][i] for i, x in enumerate(nxt)):
                continue
            coeffs.append(c)
            rec(j + 1, nxt, coeffs)
            coeffs.pop()

    rec(0, (0,) * n, [])
    return found


def discover_relations(monoid: AffineMonoid, bound: int = 6) -> list[BinomialRelation]:
    """Generating relations among all generators (pointed ones plus both signs
    of the units), found as kernel vectors within the coordinate box.

    Raises BoundTooSmall when the vectors found span less than the kernel.
    """
    gens = monoid.all_generators()
    if not gens:
        return []
    n = monoid.ambient_rank
    matrix_rank = mat_rank(gens) if gens else 0
    expected = len(gens) - matrix_rank
    if expected == 0:
        return []
    found = _box_kernel_vectors(list(gens), bound)
    found_rank = mat_rank(found) if found else 0
    if found_rank < expected:
        raise BoundTooSmall(
            f"kernel has rank {expected} but bound {bound} only reaches rank {found_rank}"
        )
    basis = hnf_rows(found, len(gens))
    return [BinomialRelation(b) for b in basis]


@dataclass(frozen=True)
class MonoidHom:
    """A semigroup map determined by generator values (-1 encodes zero).

    ``support_face`` is the smallest face of the source cone on whose monoid
    the map extends; the nonzero generators are exactly those orthogonal to it.
    """

    monoid: AffineMonoid
    target: CyclicMonoidWithZero
    values: tuple[int, ...]
    support_face: Cone

    def value(self, index: int) -> int:
        return self.values[index]


def _relation_satisfied(
    target: CyclicMonoidWithZero, relation: BinomialRelation, values: tuple[int, ...]
) -> bool:
    def side(exps) -> int:
        acc = 0  # identity exponent
        for e, v in zip(exps, values):
            if e:
                acc = target.mul(acc, target.power(v, e))
        return acc

    return side(relation.lhs) == side(relation.rhs)


def _support_face(monoid: AffineMonoid, values: tuple[int, ...]) -> Cone:
    cone = monoid.source_cone
    gens = monoid.all_generators()
    nonzero = [g for g, v in zip(gens, values) if v != CyclicMonoidWithZero.ZERO]
    rays = tuple(
        r for r in cone.rays if all(dot(g, r) == 0 for g in nonzero)
    )
    return Cone(cone.ambient_dim, rays)


def enumerate_monoid_homs(
    monoid: AffineMonoid,
    target: CyclicMonoidWithZero,
    budget: int | None = None,
    bound: int = 6,
) -> tuple[MonoidHom, ...]:
    """Brute-force the semigroup maps into the target.

    Every assignment of target elements to generators is kept iff it satisfies
    all discovered relations (zero absorbing on both sides); each surviving map
    is reported with its support face.
    """
    if monoid.source_cone is None:
        raise MissingSourceCone("hom enumeration tracks support faces of a source cone")
    budget = enumeration_budget() if budget is None else budget
    gens = monoid.all_generators()
    total = target.order ** len(gens)
    if total > budget:
        raise BudgetExceeded(f"{total} assignments exceed the budget of {budget}")
    relations = discover_relations(monoid, bound=bound)
    homs = []
    for values in iproduct(target.elements(), repeat=len(gens)):
        if all(_relation_satisfied(target, rel, values) for rel in relations):
            homs.append(
                MonoidHom(monoid, target, values, _support_face(monoid, values))
            )
    return tuple(homs)


def hom_restrict(hom: MonoidHom) -> tuple[Cone, dict[int, int]]:
    """Restriction to the support face: the face plus the values of the
    generators that stay invertible there (the unit character)."""
    face = hom.support_face
    gens = hom.monoid.all_generators()
    unit_values = {
        i: v
        for i, (g, v) in enumerate(zip(gens, hom.values))
        if all(dot(g, r) == 0 for r in face.rays)
    }
    return face, unit_values


def hom_extend(
    monoid: AffineMonoid,
    target: CyclicMonoidWithZero,
    face: Cone,
    unit_values: dict[int, int],
) -> MonoidHom:
    """Extension by zero: generators orthogonal to the face keep their unit
    value, everything else is sent to zero."""
    gens = monoid.all_generators()
    values = []
    for i, g in enumerate(gens):
        if all(dot(g, r) == 0 for r in face.rays):
            values.append(unit_values[i])
        else:
            values.append(CyclicMonoidWithZero.ZERO)
    return MonoidHom(monoid, target, tuple(values), face)


def toric_fq_points_via_homs(fan: Fan, q: int, budget: int | None = None) -> int:
    """F_q points of the fan's variety from local hom counts.

    Per cone the full hom count (brute-forced when affordable, else the face
    formula) is peeled down to the orbit contribution by subtracting the
    orbits of the proper faces; orbit sums over the fan avoid any
    inclusion-exclusion between overlapping charts.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    require_valid(fan)
    budget = enumeration_budget() if budget is None else budget
    m = q - 1
    target = CyclicMonoidWithZero(m)
    orbit: dict[Cone, int] = {}
    for cone in fan.cones:  # canonical order is by dimension, so faces come first
        monoid = monoid_of_cone(cone)
        size = target.order ** len(monoid.all_generators())
        if size <= budget:
            full = len(enumerate_monoid_homs(monoid, target, budget=budget))
        else:
            full = soule_count_by_faces(monoid, m)
        for f in faces(cone):
            if f != cone:
                full -= orbit[f]
        orbit[cone] = full
    return sum(orbit.values())

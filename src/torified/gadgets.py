"""Underlying point-set functors of the two gadget constructions.

On the group side, a torification sends a finite abelian group D to the
disjoint union of D^rank over its tori, graded by rank, so |X(D)| is
sum_r delta_r |D|^r = N(|D| + 1), one sum over the delta vector; torified
morphisms act per torus through an integer matrix on each factor.  On the
monoid side, the local functor of a cone counts semigroup maps from the
cone's monoid into a cyclic group with an absorbing zero adjoined; the count
is computed two ways (the face formula vs. enumeration of the maps face by
face, each a group hom on the generators orthogonal to its face) and the
extension/restriction maps between the two pictures are exposed for
round-trip checks.  :func:`count_monoid_homs` counts the maps that
:func:`enumerate_monoid_homs` builds, by residues and without building them;
both read a face's orthogonal generators from one table of the generators'
values on the source cone's rays.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product as iproduct
from math import prod
from operator import mul

from .budget import check_budget
from .errors import BudgetExceeded, MissingSourceCone, ShapeMismatch, Value
from .intlinalg import Vector, dot, kernel_basis
from .lattice import Cone, Fan, faces, require_valid
from .monoids import AffineMonoid, _ray_values, monoid_of_cone
from .torify import Torification, _graded_terms, delta_vector


# ---------------------------------------------------------------------------
# Finite abelian groups


class FiniteAbelianGroup(Value):
    """Product of cyclic groups; elements are mixed-radix tuples."""

    __slots__ = ("cyclic_orders",)

    def __init__(self, cyclic_orders: tuple[int, ...]):
        if any(m < 1 for m in cyclic_orders):
            raise ValueError("cyclic orders must be positive")
        self._set(cyclic_orders)

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)

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
    return tuple(g for g in map(FiniteAbelianGroup, ABELIAN_TYPES_UP_TO_12) if g.order <= max_order)


# ---------------------------------------------------------------------------
# Graded point sets of the group-side functor


class GradedPointSet(Value):
    """Per-torus point lists of a torification at a group D, or none.

    A point of the torus of rank d is a d-tuple of elements of D.  The counts
    are read from the delta vector, exact also when no point is stored.
    """

    __slots__ = ("torification", "group", "points_by_index")

    def __init__(self, torification: Torification, group, points_by_index=None):
        self._set(torification, group, points_by_index)

    @property
    def is_full(self) -> bool:
        return self.points_by_index is not None

    @property
    def total(self) -> int:
        return sum(self.count_by_grade().values())

    def count_by_grade(self) -> dict[int, int]:
        return _graded_terms(delta_vector(self.torification), self.group.order)

    def points(self, index: int):
        if self.points_by_index is None:
            raise BudgetExceeded("point set was computed in counts-only mode")
        return self.points_by_index[index]


def cc_points(t: Torification, group: FiniteAbelianGroup) -> GradedPointSet:
    """Evaluate the group-side functor: one copy of D^rank per torus.

    Over the enumeration budget no point is listed: the result holds the
    exact counts only (``is_full`` is false), and asking it for points
    raises BudgetExceeded.
    """
    counts = GradedPointSet(t, group)
    try:
        check_budget(counts.total, "elements")
    except BudgetExceeded:
        return counts
    # every torus of rank r lists the same D^r, so tori of equal rank share it
    elements = tuple(group.elements())
    powers = {r: tuple(iproduct(elements, repeat=r)) for r in set(t.ranks())}
    return GradedPointSet(t, group, tuple(powers[rank] for rank in t.ranks()))


# ---------------------------------------------------------------------------
# Torified maps and their induced point maps


class TorifiedMap(Value):
    """A map of torifications: an index map plus one integer matrix per torus.

    ``matrices[i]`` has shape (rank of target torus) x (rank of source torus)
    and acts on points by matrix multiplication in D.
    """

    __slots__ = ("source", "target", "index_map", "matrices")

    def __init__(self, source: Torification, target: Torification, index_map, matrices):
        if len(index_map) != len(source):
            raise ShapeMismatch("index_map must cover every source torus")
        if len(matrices) != len(source):
            raise ShapeMismatch("one matrix per source torus")
        target_ranks = tuple(target.ranks())
        for i, (j, want_cols, m) in enumerate(zip(index_map, source.ranks(), matrices)):
            if not 0 <= j < len(target_ranks):
                raise ShapeMismatch(f"target index {j} out of range")
            rows, cols = len(m), len(m[0]) if m else 0
            want_rows = target_ranks[j]
            if rows != want_rows or (rows and cols != want_cols):
                raise ShapeMismatch(
                    f"matrix {i} is {rows}x{cols}, expected {want_rows}x{want_cols}"
                )
        self._set(source, target, index_map, matrices)


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


def induced_map(f: TorifiedMap, group: FiniteAbelianGroup) -> dict:
    """The functor's action on points: {(i, x): (index_map[i], M_i x)}.

    The map is listed point by point, so a source with more points than the
    enumeration budget is refused with BudgetExceeded.
    """
    pts = cc_points(f.source, group)
    check_budget(pts.total, "elements")
    out = {}
    for i in range(len(f.source)):
        for x in pts.points(i):
            out[(i, x)] = apply_map_to_point(f, group, i, x)
    return out


# ---------------------------------------------------------------------------
# Monoid-side functor: cyclic group with absorbing zero


class CyclicMonoidWithZero(Value):
    """{0} adjoined to a cyclic group of order m; elements are -1 (the zero)
    and exponents 0..m-1 (the identity being exponent 0)."""

    __slots__ = ("m",)

    ZERO = -1

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("the cyclic part must have order >= 1")
        self._set(m)

    def elements(self) -> tuple[int, ...]:
        return (self.ZERO,) + tuple(range(self.m))

    @property
    def order(self) -> int:
        return self.m + 1

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


class MonoidHom(Value):
    """A semigroup map determined by generator values (-1 encodes zero).

    ``support_face`` is the smallest face of the source cone on whose monoid
    the map extends; the nonzero generators are exactly those orthogonal to it.
    """

    __slots__ = ("monoid", "target", "values", "support_face")

    def __init__(self, monoid: AffineMonoid, target, values: tuple[int, ...], support_face: Cone):
        self._set(monoid, target, values, support_face)


def _supports(
    monoid: AffineMonoid, target: CyclicMonoidWithZero
) -> Iterator[tuple[list[int], list[Vector], Cone]]:
    """Per face τ of the source cone, (S_τ, relations, τ): the indices of the
    generators orthogonal to τ, those whose values on τ's rays are all 0 (the
    values are taken once, on the source cone's rays), and a lattice basis
    of the integer relations among them, with no kernel taken when S_τ of a
    cone's own monoid, which spans τ^⊥, has n - dim τ elements.  The (m+1)^g
    assignments bound the number of maps from above, and the budget applies
    to them first."""
    if monoid.source_cone is None:
        raise MissingSourceCone("hom enumeration tracks support faces of a source cone")
    gens = monoid.all_generators()
    check_budget(target.order ** len(gens), "assignments")
    n, rays = monoid.ambient_rank, monoid.source_cone.rays
    values = _ray_values(gens, rays)
    try:  # a hand-built monoid is compared with its cone's, which may be over budget
        spanning = monoid == monoid_of_cone(monoid.source_cone)
    except BudgetExceeded:
        spanning = False
    for face in faces(monoid.source_cone):
        on = set(face.rays)
        at = [k for k, ray in enumerate(rays) if ray in on]
        support = [i for i, v in enumerate(values) if not any([v[k] for k in at])]
        relations = [] if spanning and len(support) == n - face.dim else kernel_basis(
            [tuple(gens[i][k] for i in support) for k in range(n)], len(support))
        yield support, relations, face


def _unit_characters(
    monoid: AffineMonoid, target: CyclicMonoidWithZero
) -> Iterator[tuple[list[int], tuple[int, ...], Cone]]:
    """The semigroup maps into the target as (S_τ, values on S_τ, τ).

    A map's nonzero generators are those orthogonal to its support face τ
    (primes of the monoid correspond to faces of the source cone), and on
    them it is a group hom into mu_m.  So per face τ, with S_τ the generators
    orthogonal to τ, the maps are the values v in mu_m^S_τ with <rel, v> = 0
    mod m for each rel of a lattice basis of the integer relations among
    S_τ (:func:`_supports`), extended by zero.
    """
    m = target.m
    for support, relations, face in _supports(monoid, target):
        for vals in iproduct(range(m), repeat=len(support)):
            if not relations or all(not sum(map(mul, rel, vals)) % m for rel in relations):
                yield support, vals, face


def enumerate_monoid_homs(
    monoid: AffineMonoid, target: CyclicMonoidWithZero
) -> tuple[MonoidHom, ...]:
    """All semigroup maps into the target, sorted by values; maps with one
    support face share the face object.  ``soule --elements`` lists these."""
    zeros = [target.ZERO] * len(monoid.all_generators())
    homs = []
    for support, vals, face in _unit_characters(monoid, target):
        values = zeros.copy()
        for i, v in zip(support, vals):
            values[i] = v
        homs.append(MonoidHom(monoid, target, tuple(values), face))
    homs.sort(key=lambda h: h.values)
    return tuple(homs)


def count_monoid_homs(monoid: AffineMonoid, target: CyclicMonoidWithZero) -> int:
    """``len(enumerate_monoid_homs(monoid, target))``, under the same budget,
    counted by residues without listing a map.

    Per face τ the maps are the v in (Z/m)^S_τ with <rel, v> = 0 mod m for
    each relation (:func:`_unit_characters`).  One pass over the coordinates
    carries, per vector of the relations' residues so far, the number of
    partial v reaching it; the count is that of the zero vector at the end,
    and m^|S_τ| when there is no relation.
    """
    m = target.m
    total = 0
    for support, relations, _ in _supports(monoid, target):
        if not relations:
            total += m ** len(support)
            continue
        counts = {(0,) * len(relations): 1}
        for column in zip(*relations):
            steps = [tuple([a * x % m for a in column]) for x in range(m)]
            reached: dict[tuple[int, ...], int] = {}
            for residues, c in counts.items():
                for step in steps:
                    key = tuple([(a + b) % m for a, b in zip(residues, step)])
                    reached[key] = reached.get(key, 0) + c
            counts = reached
        total += counts.get((0,) * len(relations), 0)
    return total


def _orthogonal(gens: tuple[Vector, ...], face: Cone) -> list[int]:
    """Indices of the generators orthogonal to the face: those that stay
    invertible on its monoid."""
    return [i for i, g in enumerate(gens) if all(dot(g, r) == 0 for r in face.rays)]


def hom_restrict(hom: MonoidHom) -> tuple[Cone, dict[int, int]]:
    """Restriction to the support face: the face plus the values of the
    generators that stay invertible there (the unit character)."""
    face = hom.support_face
    gens = hom.monoid.all_generators()
    return face, {i: hom.values[i] for i in _orthogonal(gens, face)}


def hom_extend(
    monoid: AffineMonoid,
    target: CyclicMonoidWithZero,
    face: Cone,
    unit_values: dict[int, int],
) -> MonoidHom:
    """Extension by zero: generators orthogonal to the face keep their unit
    value, everything else is sent to zero."""
    gens = monoid.all_generators()
    values = [CyclicMonoidWithZero.ZERO] * len(gens)
    for i in _orthogonal(gens, face):
        values[i] = unit_values[i]
    return MonoidHom(monoid, target, tuple(values), face)


def toric_fq_points_via_homs(fan: Fan, q: int) -> int:
    """F_q points of the fan's variety from local hom counts.

    Per cone the full hom count (enumerated when affordable, else the face
    formula) is peeled down to the orbit contribution by subtracting the
    orbits of the proper faces; orbit sums over the fan avoid any
    inclusion-exclusion between overlapping charts.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    require_valid(fan)
    m = q - 1
    target = CyclicMonoidWithZero(m)
    orbit: list[int] = []
    # canonical order is by dimension, so a cone's proper faces come first
    for i, cone in enumerate(fan.cones):
        monoid = monoid_of_cone(cone)
        try:
            full = count_monoid_homs(monoid, target)
        except BudgetExceeded:
            full = soule_count_by_faces(monoid, m)
        orbit.append(full - sum(orbit[j] for j in fan.face_indices[i] if j != i))
    return sum(orbit)

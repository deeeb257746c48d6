"""Affine monoids of cones, their unit groups, prime spectra, and D-schemes.

For a cone t in Z^n the attached monoid lives in the dual lattice: all dual
lattice points pairing nonnegatively with t.  Its unit group is the lattice
of dual vectors vanishing on t (rank r = n - dim t), with a Hermite basis B,
and the pointed remainder is presented by the Hilbert basis of its image in
the quotient lattice, lifted back along a fixed lattice section, so that the
monoid splits as units ⊕ pointed part on the nose.  The Hermite transform U
of the saturated B^T has U B^T = (I_r; 0), so the rows of U[r:] are a basis
of t's span in Z^n, and the transform of U[r:]^T gives the chart C, with
C U[r:]^T = I, which reads g in t's span as C g (:func:`_unit_transform`,
twice).  A dual vector g lifts to g - B^T (U[:r] g), the one vector of
g + span(B) that U[:r] maps to 0, and z in the quotient to the lift of C^T z:
these are S (U[r:] g) and S z for U^-1 = [B^T | S], with no inverse
computed.  A lone :func:`monoid_of_cone` has one construction: a cone of
dimension d < n is read in these coordinates, where it is full-dimensional,
and every cone's monoid is the Hilbert basis of its dual (for a simplicial
cone the simplex of its rays gives the dual, and the dual's own simplex its
parallelepiped; a pointed cone's rays are its dual's facet normals, so the
dual's triangulation takes no second dual), lifted by S.  So no dual is
taken in Z^n unless t is full-dimensional.  A triangulation's budget counts
in these coordinates: its count follows them, and another chart of t's
span can change it.

A fan's monoid scheme reads each cone's monoid from that of a maximal cone
s containing it, as a localization (Fulton, *Introduction to Toric
Varieties*, ch. 1): for a face t = s ∩ u^⊥ with u in s^∨ ∩ M, t^∨ ∩ M =
s^∨ ∩ M + Z≥0 (-u).  So the units of t are generated by the generators of
s that vanish on t (they generate the dual face s^∨ ∩ t^⊥, which spans
t^⊥), and the images of the others generate the pointed quotient, whose
Hilbert basis is its irreducible images, graded by their values on t's rays:
one table per maximal cone (:func:`_value_table`, kept by its monoid) holds
each generator's values on s's rays and the mask of the rays it vanishes on,
and t reads its units by mask and its values by one ``itemgetter``.  An irreducible g lifts
to g - B^T (U[:r] g), so a proper face takes no dual, Hilbert basis or
chart.  Two exact shortcuts are read off the face itself.  If every unit
vector e_i of Z^k, for t's k rays, is a value vector, the values reach all
of Z^k, so t is unimodular, its pointed quotient is N^k, and the Hilbert
basis is the generators with those values, with no irreducible reduction.
If every pivot of B is 1, U[:r] is the selection of the pivot coordinates
p_j (each is the first nonzero of its column, an entry 1 that no earlier
step touched), so the lift is g - sum_j g[p_j] B_j, the remainder of g's
Hermite reduction by B, with no transform of B.  The zero face is all
units and reads no table.  A fan's specialisation order is
:attr:`torified.lattice.Fan.face_indices`.  ``spec`` builds no fan
(:func:`_cone_dscheme`): its cone's faces, listed once by
:func:`torified.lattice.faces` in the order a fan keeps them, are masks
over the positions of the cone's value table, and a face's faces are its
submasks if it is simplicial and the face masks within its own otherwise.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter, mul, sub

from .budget import check_budget
from .errors import BudgetExceeded, MissingSourceCone, Value
from .intlinalg import Vector, _hermite_reduce, _identity, _unit_transform, hnf_rows, kernel_basis
from .intlinalg import mat_vec
from .lattice import (
    Cone,
    Fan,
    _dual_pair,
    _basis,
    _irreducibles,
    _trusted,
    faces,
    require_valid,
)


class AffineMonoid(Value):
    """A finitely generated submonoid of Z^n, split into units and pointed part.

    ``generators`` is the Hilbert basis of the pointed part, ``unit_basis`` a
    lattice basis of the unit group; together they generate the monoid as a
    direct sum.  ``source_cone`` records the cone it came from, when any.
    The monoid keeps its :func:`_value_table`, in ``_table``, from its first use.
    """

    __slots__ = ("ambient_rank", "generators", "unit_basis", "source_cone", "_table")

    def __init__(self, ambient_rank: int, generators, unit_basis, source_cone: Cone | None = None):
        self._set(ambient_rank, generators, unit_basis, source_cone, None)

    @property
    def unit_rank(self) -> int:
        return len(self.unit_basis)

    def all_generators(self) -> tuple[Vector, ...]:
        """Pointed generators plus both signs of the unit basis."""
        negs = tuple(tuple(-x for x in u) for u in self.unit_basis)
        return self.generators + self.unit_basis + negs

    def __repr__(self) -> str:
        return (
            f"AffineMonoid(rank {self.ambient_rank}, "
            f"{len(self.generators)} generators, units Z^{self.unit_rank})"
        )


@lru_cache(maxsize=None)
def monoid_of_cone(cone: Cone) -> AffineMonoid:
    """The monoid of dual lattice points nonnegative on the cone."""
    n, d = cone.ambient_dim, cone.dim
    generators, units = cone.generators(), ()
    if d < n:  # read the cone in Z^d, in the coordinates of its span
        units = tuple(kernel_basis(generators, n))
        columns, left, rest = _unit_transform(units, n)
        chart = _unit_transform(rest, n)[1]  # chart @ rest^T = I
        lift = tuple(zip(*(_face_lift(c, columns, left) for c in chart)))  # S: its columns lift C's rows
        generators = tuple(mat_vec(chart, g) for g in generators)
    rays, _ = _dual_pair(generators, d)
    # the generators span Z^d, so the dual is pointed, of dimension d less
    # that of the cone's lineality; a pointed cone's dual has the cone's rays,
    # in these coordinates, as its facet normals
    normals = tuple(sorted(generators)) if cone.is_pointed else None
    basis = _monoid_basis(_trusted(d, rays, dim=d - len(cone.lineality)), cone, normals)
    if d < n:
        basis = (mat_vec(lift, z) for z in basis)
    return AffineMonoid(n, tuple(sorted(basis)), units, cone)


def _monoid_basis(pointed: Cone, cone: Cone, normals=None) -> tuple[Vector, ...]:
    """The Hilbert basis of ``pointed``, the dual of ``cone`` (with its known
    facet ``normals``) or its quotient by the units; a budget error names the
    monoid of ``cone``."""
    try:
        return _basis(pointed, normals)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"Hilbert basis of the monoid of {cone}: {exc}", exc.size) from None


def _value_table(monoid: AffineMonoid) -> tuple[dict[Vector, int], list[tuple[Vector, Vector, int]]]:
    """The position k of each ray of the source cone, and per generator g of
    :meth:`AffineMonoid.all_generators` (g, its values on the rays, the mask
    of the rays where it is 0, bit k for ray k), taken on first use."""
    if monoid._table is not None:
        return monoid._table
    if monoid.source_cone is None:
        raise MissingSourceCone("face operations read the generators' values on a source cone's rays")
    rays = monoid.source_cone.rays
    values = [(g, tuple([sum(map(mul, g, ray)) for ray in rays])) for g in monoid.all_generators()]
    rows = [(g, v, sum([1 << k for k, x in enumerate(v) if not x])) for g, v in values]
    object.__setattr__(monoid, "_table", ({ray: k for k, ray in enumerate(rays)}, rows))
    return monoid._table


def _localization(monoid: AffineMonoid, table, face: Cone) -> AffineMonoid:
    """The monoid of a face of the monoid's source cone, read from the
    monoid's :func:`_value_table`; the result is :func:`monoid_of_cone` of
    the face.

    The generators zero on the face's rays generate its units, and a Hermite
    basis B of them is the unit basis.  Another generator's values on the
    face's rays fix its image in the quotient by the units, and the
    quotient's Hilbert basis is the irreducible images, graded by those
    values (one generator per value vector).  An irreducible g lifts to
    g - B^T (U[:r] g) (the module docstring): only U[:r] of U is kept.

    Two shortcuts skip a step exactly when the face decides it.  When the
    unit vectors of Z^k are all value vectors, the face is unimodular and
    the quotient is N^k, whose Hilbert basis is those k generators.  When
    every pivot of B is 1, U[:r] picks the pivot coordinates, and the lift
    is the remainder of the reduction by B (:func:`_hermite_reduce`).
    """
    n = monoid.ambient_rank
    if face == monoid.source_cone:
        return monoid
    if not face.rays:  # the zero face: every generator is a unit
        return AffineMonoid(n, (), _identity(n), face)
    positions, rows = table
    at = [positions[ray] for ray in face.rays]
    mask = sum([1 << k for k in at])
    pick = itemgetter(*at) if len(at) > 1 else lambda values: (values[at[0]],)
    units, candidates = [], {}
    for g, values, zeros in rows:
        if zeros & mask == mask:
            units.append(g)
        else:
            candidates.setdefault(pick(values), g)
    units = hnf_rows(units, n)
    unit_vectors = _identity(len(at))
    if all(e in candidates for e in unit_vectors):  # the values reach Z^k: the pointed part is N^k
        irreducibles = [candidates[e] for e in unit_vectors]
    else:
        irreducibles = _irreducibles([(sum(v), g, v) for v, g in candidates.items()])
    if all(next(filter(None, b)) == 1 for b in units):  # U[:r] picks the pivot coordinates
        lifts = (tuple(_hermite_reduce(units, g)[1]) for g in irreducibles)
    else:
        columns, left, _ = _unit_transform(units, n)
        lifts = (_face_lift(g, columns, left) for g in irreducibles)
    return AffineMonoid(n, tuple(sorted(lifts)), units, face)


def _face_lift(g: Vector, columns: list, left: list) -> Vector:
    """g - B^T (U[:r] g), for ``columns`` = B^T and ``left`` = U[:r] from
    :func:`_unit_transform`: the one vector of g + span(B) that U[:r] maps to
    0, so it depends on g's class modulo the units alone."""
    return tuple(map(sub, g, mat_vec(columns, mat_vec(left, g))))


def unit_group(monoid: AffineMonoid) -> tuple[int, tuple[Vector, ...]]:
    """Rank and lattice basis of the monoid's group of invertible elements."""
    return monoid.unit_rank, monoid.unit_basis


class MonoidPrime(Value):
    """A prime of the monoid, indexed by a face of the source cone.

    Faces of the source cone correspond one-to-one (order-reversingly) to
    faces of the dual cone and hence to primes; ``complement_rank`` is the
    unit rank of the localization at the prime, n - dim(face).  The maximal
    ideal is the prime of the face equal to the source cone itself.
    """

    __slots__ = ("face_index", "face", "complement_rank")

    def __init__(self, face_index: int, face: Cone, complement_rank: int):
        self._set(face_index, face, complement_rank)


def spec(monoid: AffineMonoid) -> tuple[MonoidPrime, ...]:
    """All primes of a cone-sourced monoid, one per face of the source cone."""
    if monoid.source_cone is None:
        raise MissingSourceCone(
            "prime enumeration is implemented through the face lattice of a source cone"
        )
    cone = monoid.source_cone
    n = monoid.ambient_rank
    return tuple(
        MonoidPrime(i, f, n - f.dim) for i, f in enumerate(faces(cone))
    )


class DSchemePoint(Value):
    __slots__ = ("index", "cone", "rank", "local_monoid")

    def __init__(self, index: int, cone: Cone, rank: int, local_monoid: AffineMonoid):
        self._set(index, cone, rank, local_monoid)


class DScheme(Value):
    """The finite point set of a fan's monoid scheme.

    ``specialization`` holds pairs (i, j) with cone_i contained in cone_j,
    meaning point j lies in the closure of point i.  Always connected (every
    cone contains the zero cone) and integral (local monoids embed in Z^n).
    """

    __slots__ = ("ambient_dim", "points", "specialization")

    def __init__(self, ambient_dim: int, points: tuple[DSchemePoint, ...], specialization=()):
        self._set(ambient_dim, points, specialization)

    def generic_points(self) -> tuple[DSchemePoint, ...]:
        return tuple(p for p in self.points if p.rank == self.ambient_dim)

    def __repr__(self) -> str:
        return f"DScheme({len(self.points)} points, dim {self.ambient_dim})"


def dscheme_of_fan(fan: Fan) -> DScheme:
    """Points in bijection with the fan's cones, ordered by cone inclusion.

    Each cone is read from the last maximal cone holding it as a face (the
    fan's maximal pass), whose monoid and value table are taken once.  The
    specialization pairs are counted from that pass, and refused past the
    budget, before the full relation is built: a simplicial cone of the
    valid fan has 2^rays - 1 proper faces, and any other cone at most the
    row of its maximal cone less one, exactly that if it is maximal.
    """
    require_valid(fan)
    n, tops = fan.ambient_dim, fan._maximal()
    check_budget(sum((1 << len(c.rays)) - 1 if c.is_simplicial else len(tops.rows[tops.owner[i]]) - 1
                     for i, c in enumerate(fan.cones)), "specialization pairs")
    tables: dict[int, tuple[AffineMonoid, tuple]] = {}
    points = []
    for i, c in enumerate(fan.cones):
        j = tops.owner[i]
        if j not in tables:
            monoid = monoid_of_cone(fan.cones[j])
            tables[j] = monoid, _value_table(monoid)
        points.append(DSchemePoint(i, c, n - c.dim, _localization(*tables[j], c)))
    pairs = sorted(
        (i, j) for j, face_ids in enumerate(fan.face_indices) for i in face_ids if i != j
    )
    return DScheme(n, tuple(points), tuple(pairs))


def _cone_dscheme(cone: Cone) -> DScheme:
    """:func:`dscheme_of_fan` of the fan of a pointed cone's faces, ``spec``'s,
    with no fan built: every point is read from the cone's monoid and
    :func:`_value_table`, and each face is a mask over the table's ray
    positions.  :func:`torified.lattice.faces` lists the faces in the
    order a fan keeps, so the indices are the fan's.  The specialisations
    follow :attr:`torified.lattice.Fan.face_indices` for a held cone: a
    simplicial face's faces are its submasks, and any other face's are the
    face masks within its own (a face of a face is a face), all of lower
    dim and so listed before it.  The cone is walked once, by ``faces``.
    """
    n = cone.ambient_dim
    monoid = monoid_of_cone(cone)
    table = _value_table(monoid)
    positions = table[0]
    cone_faces = faces(cone)
    masks = [sum([1 << positions[r] for r in f.rays]) for f in cone_faces]
    index = {mask: i for i, mask in enumerate(masks)}
    points, pairs = [], []
    for j, (f, mask) in enumerate(zip(cone_faces, masks)):
        points.append(DSchemePoint(j, f, n - f.dim, _localization(monoid, table, f)))
        if f.is_simplicial:  # its proper submasks, from mask - 1 down to 0
            part = mask
            while part:
                part = (part - 1) & mask
                pairs.append((index[part], j))
        else:
            pairs.extend([(i, j) for i, m in enumerate(masks[:j]) if m & mask == m])
    pairs.sort()
    return DScheme(n, tuple(points), tuple(pairs))

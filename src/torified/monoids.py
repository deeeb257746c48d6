"""Affine monoids of cones, their unit groups, prime spectra, and D-schemes.

For a cone t in Z^n the attached monoid lives in the dual lattice: all dual
lattice points pairing nonnegatively with t.  Its unit group is the lattice
of dual vectors vanishing on t (rank r = n - dim t), and the pointed
remainder is presented by the Hilbert basis of its image in the quotient
lattice, lifted back along a fixed lattice section so that generators stay
in Z^n and the monoid splits as units ⊕ pointed part on the nose.  The
units are the generators' integer kernel, in Hermite form.  The section is
the recipe :mod:`torified.lattice` uses for sublattice coordinates: the
Hermite transform U of the units carries U^-1 through its one reduction,
and z in the quotient lifts to U^-1 (0, z).  The quotient cone is the dual
of the generators' section coordinates in Z^(dim t), so no dual is taken
in Z^n unless t is full-dimensional, and a simplicial t costs one
elimination of size dim t.  The specialisation order of a fan's monoid
scheme is read from :attr:`torified.lattice.Fan.face_indices`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import MissingSourceCone, Value
from .intlinalg import Vector, kernel_basis, mat_vec, row_hermite_transform
from .lattice import Cone, Fan, _dual_pair, _hilbert_basis, _trusted, faces, require_valid


class AffineMonoid(Value):
    """A finitely generated submonoid of Z^n, split into units and pointed part.

    ``generators`` is the Hilbert basis of the pointed part, ``unit_basis`` a
    lattice basis of the unit group; together they generate the monoid as a
    direct sum.  ``source_cone`` records the cone it came from, when any.
    """

    __slots__ = ("ambient_rank", "generators", "unit_basis", "source_cone")

    def __init__(self, ambient_rank: int, generators, unit_basis, source_cone: Cone | None = None):
        self._set(ambient_rank, generators, unit_basis, source_cone)

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
    n = cone.ambient_dim
    generators = cone.generators()
    units = () if cone.dim == n else tuple(kernel_basis(generators, n))
    # The Hermite transform u of the units (as columns) maps their saturated
    # lattice onto Z^r x 0: the first r columns of u^-1 are the units and the
    # others a section.  A dual vector u^-1 (0, z) pairs with a generator g
    # as c_g . z, c_g being g's section coordinates, so the quotient cone is
    # the dual of the c_g in Z^(n-r), and its Hilbert basis lifts through
    # z -> u^-1 (0, z).
    r = len(units)
    h, _, u_inv = row_hermite_transform([[v[i] for v in units] for i in range(n)])
    assert all(h[i][i] == 1 for i in range(r)), "unit basis must be saturated"
    section = list(zip(*u_inv))[r:]
    rays, _ = _dual_pair(tuple(mat_vec(section, g) for g in generators), n - r)
    inner = _hilbert_basis(_trusted(n - r, rays), f"the monoid of {cone}")
    gens = tuple(sorted(mat_vec(u_inv, (0,) * r + z) for z in inner))
    return AffineMonoid(n, gens, units, cone)


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

    @property
    def connected(self) -> bool:
        return True

    @property
    def integral(self) -> bool:
        return True

    def generic_points(self) -> tuple[DSchemePoint, ...]:
        return tuple(p for p in self.points if p.rank == self.ambient_dim)

    def __repr__(self) -> str:
        return f"DScheme({len(self.points)} points, dim {self.ambient_dim})"


def dscheme_of_fan(fan: Fan) -> DScheme:
    """Points in bijection with the fan's cones, ordered by cone inclusion."""
    require_valid(fan)
    n = fan.ambient_dim
    points = tuple(
        DSchemePoint(i, c, n - c.dim, monoid_of_cone(c))
        for i, c in enumerate(fan.cones)
    )
    pairs = sorted(
        (i, j) for j, face_ids in enumerate(fan.face_indices) for i in face_ids if i != j
    )
    return DScheme(n, points, tuple(pairs))

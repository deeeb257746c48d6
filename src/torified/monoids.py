"""Affine monoids of cones, their unit groups, prime spectra, and D-schemes.

For a cone t in Z^n the attached monoid lives in the dual lattice: all dual
lattice points pairing nonnegatively with t.  Its unit group is the lattice
of dual vectors vanishing on t (rank n - dim t), and the pointed remainder is
presented by the Hilbert basis of its image in the quotient lattice, lifted
back along a fixed lattice section so that generators stay in Z^n and the
monoid splits as units ⊕ pointed part on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import MissingSourceCone
from .intlinalg import (
    Vector,
    invert_unimodular,
    mat_vec,
    primitive,
    row_hermite_transform,
)
from .lattice import Cone, Fan, dual_cone, faces, hilbert_basis, require_valid


@dataclass(frozen=True)
class AffineMonoid:
    """A finitely generated submonoid of Z^n, split into units and pointed part.

    ``generators`` is the Hilbert basis of the pointed part, ``unit_basis`` a
    lattice basis of the unit group; together they generate the monoid as a
    direct sum.  ``source_cone`` records the cone it came from, when any.
    """

    ambient_rank: int
    generators: tuple[Vector, ...]
    unit_basis: tuple[Vector, ...]
    source_cone: Cone | None = None

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
    dual = dual_cone(cone)
    units = dual.lineality
    if not dual.rays:
        gens: tuple[Vector, ...] = ()
    elif not units:
        gens = hilbert_basis(dual)
    else:
        # Quotient by the unit lattice via a Hermite transform, solve the
        # Hilbert basis there, and lift through the section it defines.
        r = len(units)
        columns = [[units[j][i] for j in range(r)] for i in range(n)]
        h, u = row_hermite_transform(columns)
        top = [row[:r] for row in h[:r]]
        piv_prod = 1
        for i in range(r):
            piv_prod *= top[i][i]
        assert abs(piv_prod) == 1, "unit basis must be saturated"
        u_inv = invert_unimodular(u)

        def project(x: Vector) -> Vector:
            return tuple(mat_vec(u, x)[r:])

        def section(z: Vector) -> Vector:
            y = (0,) * r + tuple(z)
            return mat_vec(u_inv, y)

        images = tuple(sorted({primitive(project(ray)) for ray in dual.rays}))
        inner = hilbert_basis(Cone(n - r, images))
        gens = tuple(sorted(section(h) for h in inner))
    return AffineMonoid(n, gens, units, cone)


def unit_group(monoid: AffineMonoid) -> tuple[int, tuple[Vector, ...]]:
    """Rank and lattice basis of the monoid's group of invertible elements."""
    return monoid.unit_rank, monoid.unit_basis


@dataclass(frozen=True)
class MonoidPrime:
    """A prime of the monoid, indexed by a face of the source cone.

    Faces of the source cone correspond one-to-one (order-reversingly) to
    faces of the dual cone and hence to primes; ``complement_rank`` is the
    unit rank of the localization at the prime, n - dim(face).  The maximal
    ideal is the prime of the face equal to the source cone itself.
    """

    face_index: int
    face: Cone
    complement_rank: int


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


@dataclass(frozen=True)
class DSchemePoint:
    index: int
    cone: Cone
    rank: int
    local_monoid: AffineMonoid


@dataclass(frozen=True)
class DScheme:
    """The finite point set of a fan's monoid scheme.

    ``specialization`` holds pairs (i, j) with cone_i contained in cone_j,
    meaning point j lies in the closure of point i.  Always connected (every
    cone contains the zero cone) and integral (local monoids embed in Z^n).
    """

    ambient_dim: int
    points: tuple[DSchemePoint, ...]
    specialization: tuple[tuple[int, int], ...] = field(default_factory=tuple)

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
    face_sets = [set(faces(c)) for c in fan.cones]
    pairs = tuple(
        (i, j)
        for j, c in enumerate(fan.cones)
        for i, f in enumerate(fan.cones)
        if i != j and f in face_sets[j]
    )
    return DScheme(n, points, tuple(sorted(pairs)))

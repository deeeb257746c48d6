"""Rational polyhedral cones and fans over the standard lattice Z^n.

All geometry is exact.  A :class:`Cone` is stored by its primitive extremal
rays; duals of non-full-dimensional cones additionally carry a lineality
lattice basis (rays are kept orthogonal to it, which makes the description
canonical).  Operations that need pointedness refuse lineality.

The documented limit: duals and Hilbert bases of *non-simplicial* cones are
supported only in ambient dimension <= 4.  Simplicial cones work in any
(desk-scale) dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import (
    DimensionMismatch,
    InvalidCone,
    InvalidFan,
    NotPointed,
    UnsupportedDimension,
    ValidationReport,
)
from .intlinalg import (
    Vector,
    det,
    dot,
    hnf_rows,
    kernel_basis,
    kernel_vector,
    mat_rank,
    minors_gcd,
    primitive,
    saturation_basis,
    solve_columns,
    solve_columns_int,
    vec_gcd,
    vec_neg,
    vec_sub,
)

_FACE_ENUM_LIMIT = 4  # ambient dim beyond which non-simplicial cones are refused


def _check_vectors(ambient_dim: int, vectors, what: str) -> None:
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(
                f"{what} {v} has length {len(v)}, ambient dimension is {ambient_dim}"
            )
        if not any(v):
            raise InvalidCone(f"{what} must be nonzero")
        if vec_gcd(v) != 1:
            raise InvalidCone(f"{what} {v} is not primitive")


@dataclass(frozen=True)
class Cone:
    """A strictly convex rational cone, plus optional lineality for duals.

    ``rays`` are primitive, pairwise distinct, extremal, and sorted; redundant
    (non-extremal) generators are dropped on construction, so equal cones
    compare equal.  ``lineality`` is a canonical (Hermite) lattice basis of the
    contained linear subspace, and rays are orthogonal to it; a cone occurring
    in a fan always has ``lineality == ()``.
    """

    ambient_dim: int
    rays: tuple[Vector, ...] = ()
    lineality: tuple[Vector, ...] = ()

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise InvalidCone("ambient dimension must be nonnegative")
        rays = tuple(tuple(int(x) for x in r) for r in self.rays)
        lineality = tuple(tuple(int(x) for x in l) for l in self.lineality)
        _check_vectors(self.ambient_dim, rays, "ray")
        _check_vectors(self.ambient_dim, lineality, "lineality vector")
        lineality = hnf_rows(lineality, self.ambient_dim)
        if len(lineality) != len(self.lineality):
            raise InvalidCone("lineality vectors must be linearly independent")
        for r in rays:
            for l in lineality:
                if dot(r, l) != 0:
                    raise InvalidCone(
                        "rays must be orthogonal to the lineality basis (canonical form)"
                    )
        rays = tuple(sorted(set(rays)))
        # rays independent of each other and of the lineality are extremal
        # and contain no line
        if mat_rank(rays + lineality) < len(rays) + len(lineality):
            rays = _drop_non_extremal(rays, lineality, self.ambient_dim)
            if _contains_line(rays, lineality, self.ambient_dim):
                raise InvalidCone(f"cone on {rays} is not strictly convex")
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "lineality", lineality)

    @property
    def dim(self) -> int:
        return mat_rank(self.rays + self.lineality) if (self.rays or self.lineality) else 0

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def is_simplicial(self) -> bool:
        return self.is_pointed and len(self.rays) == self.dim

    def generators(self) -> tuple[Vector, ...]:
        """Rays plus both signs of the lineality basis."""
        return self.rays + self.lineality + tuple(vec_neg(l) for l in self.lineality)

    def contains(self, v) -> bool:
        v = tuple(int(x) for x in v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"vector {v} vs ambient dimension {self.ambient_dim}")
        normals, perp = _dual_pair(self.generators(), self.ambient_dim)
        return all(dot(u, v) >= 0 for u in normals) and all(dot(k, v) == 0 for k in perp)

    def __repr__(self) -> str:
        lin = f", lineality={list(self.lineality)}" if self.lineality else ""
        return f"Cone(dim {self.ambient_dim}, rays={list(self.rays)}{lin})"


def zero_cone(ambient_dim: int) -> Cone:
    return Cone(ambient_dim, ())


def _contains_line(rays, lineality, n) -> bool:
    # Strict convexity applies to the ray part (the declared lineality is the
    # cone's exact linear subspace, rays being orthogonal to it): cone(rays)
    # is pointed iff its dual spans R^n.
    if not rays:
        return False
    ray_normals, ray_perp = _dual_pair(tuple(rays), n)
    return mat_rank(tuple(ray_normals) + tuple(ray_perp)) < n


def _drop_non_extremal(rays, lineality, n):
    if len(rays) <= 1:
        return rays
    keep = []
    for i, r in enumerate(rays):
        others = tuple(rays[:i] + rays[i + 1 :]) + tuple(lineality) + tuple(
            vec_neg(l) for l in lineality
        )
        if not _generators_contain(others, r, n):
            keep.append(r)
    return tuple(keep)


def _generators_contain(gens, v, n) -> bool:
    normals, perp = _dual_pair(tuple(gens), n)
    return all(dot(u, v) >= 0 for u in normals) and all(dot(k, v) == 0 for k in perp)


@lru_cache(maxsize=None)
def _dual_pair(generators: tuple[Vector, ...], n: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Dual of the cone generated by arbitrary vectors in Z^n.

    Returns (rays, lineality): the dual's lineality is generators^perp, and the
    pointed part is taken inside span(generators), making it orthogonal to the
    lineality.  Works whether or not the generated cone is pointed.

    Inside the span, of dimension d, every extremal ray of the dual is tight
    on d-1 linearly independent generators, so the kernel lines of each
    (d-1)-subset together with the lineality, filtered by feasibility, are
    exactly the extremal rays.
    """
    gens = [g for g in generators if any(g)]
    perp = kernel_basis(gens, n)
    lineality = hnf_rows(perp, n)
    if not gens:
        return (), lineality
    rays = set()
    for subset in combinations(gens, n - len(perp) - 1):
        u = kernel_vector(list(subset) + perp, n)
        if u is None:
            continue
        for cand in (u, vec_neg(u)):
            if all(dot(cand, g) >= 0 for g in gens):
                rays.add(cand)
    return tuple(sorted(rays)), lineality


def _guard_enumeration(cone: Cone, op: str) -> None:
    pointed_rank = mat_rank(cone.rays) if cone.rays else 0
    if len(cone.rays) > pointed_rank and cone.ambient_dim > _FACE_ENUM_LIMIT:
        raise UnsupportedDimension(
            f"{op} of a non-simplicial cone is only supported in ambient dimension "
            f"<= {_FACE_ENUM_LIMIT} (got {cone.ambient_dim})"
        )


@lru_cache(maxsize=None)
def dual_cone(cone: Cone) -> Cone:
    """The dual cone {u : <u, v> >= 0 for all v in the cone}.

    For a full-dimensional pointed cone the result is pointed.  Otherwise the
    result carries a lineality basis (the orthogonal complement lattice of the
    cone's span) and its rays describe the canonical pointed part inside the
    cone's span.
    """
    _guard_enumeration(cone, "dual_cone")
    rays, lineality = _dual_pair(cone.generators(), cone.ambient_dim)
    return Cone(cone.ambient_dim, rays, lineality)


@lru_cache(maxsize=None)
def facet_normals(cone: Cone) -> tuple[Vector, ...]:
    """Inward normals of the facets (within the cone's span); pointed cones only."""
    if not cone.is_pointed:
        raise NotPointed("facet enumeration requires a pointed cone")
    return dual_cone(cone).rays


@lru_cache(maxsize=None)
def faces(cone: Cone) -> tuple[Cone, ...]:
    """All faces of a pointed cone, from the zero cone up to the cone itself.

    The faces of a simplicial cone are the cones on the subsets of its rays.
    Otherwise every face is the tight set of a subset of facet normals;
    subsets of the (few) normals are enumerated and deduplicated by their ray
    sets.
    """
    if not cone.is_pointed:
        raise NotPointed("face enumeration requires a pointed cone")
    if cone.is_simplicial:
        # rays are sorted, so this is already the (dim, rays) order
        return tuple(
            Cone(cone.ambient_dim, subset)
            for k in range(len(cone.rays) + 1)
            for subset in combinations(cone.rays, k)
        )
    normals = facet_normals(cone)
    seen: dict[tuple[Vector, ...], Cone] = {}
    for k in range(len(normals) + 1):
        for subset in combinations(normals, k):
            face_rays = tuple(
                r for r in cone.rays if all(dot(u, r) == 0 for u in subset)
            )
            if face_rays not in seen:
                seen[face_rays] = Cone(cone.ambient_dim, face_rays)
    return tuple(sorted(seen.values(), key=lambda c: (c.dim, c.rays)))


def facets(cone: Cone) -> tuple[Cone, ...]:
    d = cone.dim
    return tuple(f for f in faces(cone) if f.dim == d - 1)


def is_face(face: Cone, cone: Cone) -> bool:
    return face in faces(cone)


def is_smooth(cone: Cone) -> bool:
    """True iff the rays extend to a lattice basis of Z^n."""
    if not cone.is_pointed:
        raise NotPointed("smoothness is defined for pointed cones")
    if not cone.rays:
        return True
    k = len(cone.rays)
    if mat_rank(cone.rays) != k:
        return False
    return minors_gcd(cone.rays, k) == 1


def _triangulate(rays: tuple[Vector, ...], n: int) -> list[tuple[Vector, ...]]:
    """Split a pointed cone into simplicial subcones on subsets of its rays.

    Stellar recursion by canonical ray order: cone off the first ray over the
    triangulated facets not containing it.  The pieces cover the cone and meet
    in common faces, which is all the Hilbert basis candidates need.
    """
    if len(rays) == mat_rank(rays):
        return [rays]
    normals, _ = _dual_pair(rays, n)
    apex = rays[0]
    pieces = []
    for u in normals:
        if dot(u, apex) == 0:
            continue
        facet_rays = tuple(r for r in rays if dot(u, r) == 0)
        for sub in _triangulate(facet_rays, n):
            pieces.append(sub + (apex,))
    return pieces


def _parallelepiped_points(gens: tuple[Vector, ...]) -> set[Vector]:
    """Lattice points of the half-open parallelepiped spanned by independent gens."""
    d = len(gens)
    assert d == len(gens[0]), "parallelepiped enumeration expects full-dimensional pieces"
    vertices = []
    for k in range(d + 1):
        for subset in combinations(range(d), k):
            vertices.append(tuple(sum(gens[i][j] for i in subset) for j in range(d)))
    lo = [min(v[j] for v in vertices) for j in range(d)]
    hi = [max(v[j] for v in vertices) for j in range(d)]
    points: set[Vector] = set()

    def scan(prefix: list[int], j: int) -> None:
        if j == d:
            x = tuple(prefix)
            lam = solve_columns(gens, x)
            if lam is not None and all(0 <= l < 1 for l in lam):
                points.add(x)
            return
        for val in range(lo[j], hi[j] + 1):
            scan(prefix + [val], j + 1)

    scan([], 0)
    volume = abs(det([[g[i] for g in gens] for i in range(d)]))
    assert len(points) == volume, "parallelepiped enumeration lost points"
    return points


@lru_cache(maxsize=None)
def hilbert_basis(cone: Cone) -> tuple[Vector, ...]:
    """The unique minimal generating set of cone ∩ Z^n, for a pointed cone.

    Candidates are the rays plus the fundamental-parallelepiped points of each
    simplicial piece of a triangulation; the basis keeps exactly the elements
    h with no candidate c != h such that h - c stays in the cone (those h are
    the irreducibles, and irreducibles always appear among the candidates).
    """
    if not cone.is_pointed:
        raise NotPointed("Hilbert bases require lineality to be split off first")
    if not cone.rays:
        return ()
    _guard_enumeration(cone, "hilbert_basis")
    if is_smooth(cone):
        return cone.rays
    n = cone.ambient_dim
    d = cone.dim
    if d < n:
        basis = saturation_basis(cone.rays, n)
        coords = []
        for r in cone.rays:
            c = solve_columns_int(basis, r)
            assert c is not None
            coords.append(primitive(c))
        inner = hilbert_basis(Cone(d, tuple(coords)))
        lifted = [
            tuple(sum(basis[j][i] * h[j] for j in range(d)) for i in range(n))
            for h in inner
        ]
        return tuple(sorted(lifted))
    normals = facet_normals(cone)
    candidates: set[Vector] = set(cone.rays)
    for piece in _triangulate(cone.rays, n):
        candidates |= _parallelepiped_points(piece)
    candidates.discard((0,) * n)

    def in_cone(x: Vector) -> bool:
        return all(dot(u, x) >= 0 for u in normals)

    basis_out = []
    for h in sorted(candidates):
        reducible = any(
            c != h and any(vec_sub(h, c)) and in_cone(vec_sub(h, c))
            for c in candidates
        )
        if not reducible:
            basis_out.append(h)
    return tuple(basis_out)


@dataclass(frozen=True)
class Fan:
    """A finite collection of pointed cones, stored in canonical order.

    Construction does not validate the fan axioms; run :func:`validate_fan`
    (operations that need a valid fan do so and raise :class:`InvalidFan`).
    """

    ambient_dim: int
    cones: tuple[Cone, ...] = ()

    def __post_init__(self):
        for c in self.cones:
            if c.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"cone of ambient dimension {c.ambient_dim} in a fan of dimension {self.ambient_dim}"
                )
            if not c.is_pointed:
                raise InvalidCone("fans contain only strictly convex cones")
        ordered = tuple(sorted(set(self.cones), key=lambda c: (c.dim, c.rays)))
        object.__setattr__(self, "cones", ordered)

    def __len__(self) -> int:
        return len(self.cones)

    def index_of(self, cone: Cone) -> int:
        return self.cones.index(cone)

    def __repr__(self) -> str:
        return f"Fan(dim {self.ambient_dim}, {len(self.cones)} cones)"


@lru_cache(maxsize=None)
def maximal_cones(fan: Fan) -> tuple[int, ...]:
    """Indices of cones not properly contained in another cone of the fan."""
    face_sets = [set(faces(c)) for c in fan.cones]
    out = []
    for i, c in enumerate(fan.cones):
        if not any(i != j and c in face_sets[j] for j in range(len(fan.cones))):
            out.append(i)
    return tuple(out)


def _separating_faces(a: Cone, b: Cone) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Tight faces of a and b for a generic functional in a^v ∩ (-b)^v.

    The pair intersects in a common face iff both tight faces coincide with
    the intersection; this avoids computing cone intersections outright.
    """
    gens = a.rays + tuple(vec_neg(r) for r in b.rays)
    normals, _ = _dual_pair(gens, a.ambient_dim)
    u_star = tuple(sum(u[i] for u in normals) for i in range(a.ambient_dim))
    tight_a = tuple(r for r in a.rays if dot(u_star, r) == 0)
    tight_b = tuple(r for r in b.rays if dot(u_star, r) == 0)
    return tight_a, tight_b


@lru_cache(maxsize=None)
def validate_fan(fan: Fan) -> ValidationReport:
    """Check face closure, and that any two maximal cones meet in a common face.

    Pairs of maximal cones suffice once faces are closed: if A and B meet in
    a common face F, then for faces a of A and b of B, a ∩ F and b ∩ F are
    faces of F, so a ∩ b is a face of both a and b.
    """
    violations: list[str] = []
    cone_set = set(fan.cones)
    if zero_cone(fan.ambient_dim) not in cone_set:
        violations.append("fan does not contain the zero cone")
    for c in fan.cones:
        for f in faces(c):
            if f not in cone_set:
                violations.append(f"face {list(f.rays)} of cone {list(c.rays)} is missing")
    tops = [fan.cones[i] for i in maximal_cones(fan)]
    for a, b in combinations(tops, 2):
        tight_a, tight_b = _separating_faces(a, b)
        if tight_a != tight_b:
            violations.append(
                f"cones {list(a.rays)} and {list(b.rays)} do not meet in a common face"
            )
            continue
        common = Cone(fan.ambient_dim, tight_a)
        if not (is_face(common, a) and is_face(common, b)):
            violations.append(
                f"intersection of {list(a.rays)} and {list(b.rays)} is not a face of both"
            )
    return ValidationReport(tuple(sorted(set(violations))))


def require_valid(fan: Fan) -> None:
    report = validate_fan(fan)
    if not report.ok:
        raise InvalidFan(report)


def standard_fan(kind: str, n: int) -> Fan:
    """Built-in fans: ``affine_space``, ``projective_space``, ``torus`` on Z^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    e = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if kind == "torus":
        return Fan(n, (zero_cone(n),))
    if kind == "affine_space":
        top = Cone(n, tuple(e))
        return Fan(n, faces(top))
    if kind == "projective_space":
        if n == 0:
            return Fan(0, (zero_cone(0),))
        rays = e + [tuple(-1 for _ in range(n))]
        cones: set[Cone] = set()
        for subset in combinations(range(n + 1), n):
            top = Cone(n, tuple(rays[i] for i in subset))
            cones.update(faces(top))
        return Fan(n, tuple(cones))
    raise ValueError(f"unknown standard fan kind: {kind!r}")


def fan_from_dict(data: dict, on_warning=None) -> Fan:
    """Build a fan from the JSON interchange form.

    ``{"dim": n, "rays": [[int, ...], ...], "cones": [[ray-index, ...], ...],
    "close_faces": bool}``.  Non-primitive rays are normalized (reported via
    ``on_warning``); with ``close_faces`` every missing face is added.
    """
    try:
        n = int(data["dim"])
        raw_rays = data["rays"]
        raw_cones = data["cones"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"fan data must have dim/rays/cones fields: {exc}") from exc
    close = bool(data.get("close_faces", False))
    rays = []
    for r in raw_rays:
        v = tuple(int(x) for x in r)
        if len(v) != n:
            raise ValueError(f"ray {r} does not have length {n}")
        if not any(v):
            raise ValueError("zero vector is not a valid ray")
        p = primitive(v)
        if p != v:
            if on_warning is not None:
                on_warning(f"normalized non-primitive ray {list(v)} to {list(p)}")
            v = p
        rays.append(v)
    cones = []
    for indices in raw_cones:
        try:
            members = tuple(rays[int(i)] for i in indices)
        except IndexError as exc:
            raise ValueError(f"cone {indices} references a missing ray") from exc
        cones.append(Cone(n, members))
    if close:
        closed: set[Cone] = set()
        for c in cones:
            closed.update(faces(c))
        cones = sorted(closed, key=lambda c: (c.dim, c.rays))
    return Fan(n, tuple(cones))


def fan_to_dict(fan: Fan) -> dict:
    ray_index: dict[Vector, int] = {}
    rays: list[list[int]] = []
    for c in fan.cones:
        for r in c.rays:
            if r not in ray_index:
                ray_index[r] = len(rays)
                rays.append(list(r))
    return {
        "dim": fan.ambient_dim,
        "rays": rays,
        "cones": [[ray_index[r] for r in c.rays] for c in fan.cones],
        "close_faces": False,
    }

"""Rational polyhedral cones and fans over the standard lattice Z^n.

All geometry is exact.  A :class:`Cone` is stored by its primitive extremal
rays; duals of non-full-dimensional cones additionally carry a lineality
lattice basis (rays are kept orthogonal to it, which makes the description
canonical).  Operations that need pointedness refuse lineality.

One dual routine, :func:`_dual_pair`, a double description, serves
construction (strict convexity and extremality), duals, faces and
triangulations; faces are the closure of the cone under intersection with
its facets, so neither enumerates subsets, and each face carries its
dimension from the closure.  n independent generators in Z^n skip the
double description: they cost one elimination, which :func:`_simplex` keeps
for the dual's parallelepiped (:func:`_dual_simplex`).  A cone on at least
n rays and without lineality reads its dimension from that cached dual, so
a maximal cone is eliminated once, for its rank and its facets.  The lattice
work beneath is the one Bareiss elimination and the one Hermite reduction
of :mod:`torified.intlinalg`; a dual's lineality is the generators' kernel,
which that reduction returns in Hermite form.  Coordinates on a sublattice
come from one Hermite reduction: with U the transform of the spanning
vectors as columns, U maps span ∩ Z^n onto Z^r x 0, and U^-1, carried
through the same row operations, lifts back (lower-dimensional Hilbert
bases here, the quotient by the units in :mod:`torified.monoids`).
A Hilbert basis of dimension 2 comes from the Hirzebruch-Jung continued
fraction, at one step per run of elements, and is refused with
:class:`BudgetExceeded` when it has more elements than the enumeration
budget.  In dimension 3 and up it comes from the parallelepipeds of a
triangulation, refused when they hold more lattice points than the budget;
a full-dimensional simplicial cone is its own triangulation, and one
elimination of its rays gives its volume (smooth at 1), its facet normals
and each parallelepiped point's values on them, so beyond it only the
Hermite basis of the rays runs, to index the points.

A fan's face relation, :attr:`Fan.face_indices`, is computed once per fan
and read by its maximal cones, its monoid scheme's specialisations, the
charts and stars of its torification and the orbit sums of its point counts.
It is read from ray bitmasks: the faces in the fan of a simplicial cone are
the submasks of its ray mask that index a cone, so only non-simplicial cones
list their faces, and :func:`fan_from_dict` closes a simplicial cone's
faces by its distinct ray subsets.  Face closure is then a count per cone.
Cones and fans keep their hashes.  Fan validation settles pairs of maximal
cones by sign masks over the rays, from one dual
per maximal cone (the cached :func:`facet_normals`); a double description of
the pair decides only the pairs the masks leave open, and every violating
pair is among those.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache, reduce
from itertools import combinations
from itertools import product as iproduct
from operator import mul

from .budget import check_budget
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidCone,
    InvalidFan,
    NotPointed,
    ValidationReport,
    Value,
)
from .intlinalg import (
    Vector,
    _eliminate,
    _identity,
    _with_identity,
    dot,
    hnf_rows,
    kernel_basis,
    mat_rank,
    mat_vec,
    primitive,
    row_hermite_transform,
    vec_gcd,
    vec_neg,
)


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


class Cone(Value):
    """A strictly convex rational cone, plus optional lineality for duals.

    ``rays`` are primitive, pairwise distinct, extremal, and sorted; redundant
    (non-extremal) generators are dropped on construction, so equal cones
    compare equal, and generators whose cone contains a line beyond the
    lineality raise InvalidCone.  ``lineality`` is a canonical (Hermite) lattice basis of the
    contained linear subspace, and rays are orthogonal to it; a cone occurring
    in a fan always has ``lineality == ()``.  ``dim`` is the rank of the
    generators, which the constructor computes anyway; it is not a field, and
    neither is ``_hash``, the hash of the field tuple, kept from its first use
    because cones key the caches of this module and the sets of fans.
    """

    __slots__ = ("ambient_dim", "rays", "lineality", "_dim", "_hash")
    __hash__ = Value._kept_hash

    def __init__(self, ambient_dim: int, rays=(), lineality=()):
        self.__post_init__(ambient_dim, rays, lineality)

    def __post_init__(self, ambient_dim, rays, lineality):
        """The constructor's checks and canonical form, under the method name
        that ``perfbench/tracer.py`` wraps to count cone construction."""
        if ambient_dim < 0:
            raise InvalidCone("ambient dimension must be nonnegative")
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        lineality = tuple(tuple(int(x) for x in l) for l in lineality)
        given = len(lineality)
        _check_vectors(ambient_dim, rays, "ray")
        _check_vectors(ambient_dim, lineality, "lineality vector")
        if lineality:
            lineality = hnf_rows(lineality, ambient_dim)
            if len(lineality) != given:
                raise InvalidCone("lineality vectors must be linearly independent")
        for r in rays:
            for l in lineality:
                if dot(r, l) != 0:
                    raise InvalidCone(
                        "rays must be orthogonal to the lineality basis (canonical form)"
                    )
        rays = tuple(sorted(set(rays)))
        # rays independent of each other and of the lineality are extremal
        # and contain no line; pruning the others keeps their span, so the
        # rank is the cone's dimension either way.  On at least n rays it is
        # n less the rank of the dual's perp: the cached dual that the facets,
        # the faces, the extremal rays and a full-dimensional monoid read
        if not lineality and len(rays) >= ambient_dim:
            rank = ambient_dim - len(_dual_pair(rays, ambient_dim)[1])
        else:
            rank = mat_rank(rays + lineality)
        if rank < len(rays) + len(lineality):
            rays = _extremal_rays(rays, lineality, ambient_dim)
        self._set(ambient_dim, rays, lineality, rank, None)

    @property
    def dim(self) -> int:
        """Dimension of the span; computed on first read for a cone made by
        :func:`_trusted` without it."""
        if self._dim is None:
            object.__setattr__(self, "_dim", mat_rank(self.rays + self.lineality))
        return self._dim

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
    if ambient_dim < 0:
        raise InvalidCone("ambient dimension must be nonnegative")
    return _trusted(ambient_dim, (), (), 0)


def _extremal_rays(rays, lineality, n) -> tuple[Vector, ...]:
    """The extremal ones of the sorted ``rays``; InvalidCone unless
    cone(rays) + span(lineality) contains no line beyond that span.

    With (normals, perp) the dual of the generators, the cone contains no
    other line iff its dual has full dimension n - len(lineality), that is
    iff normals and perp have that rank.  A ray is then extremal iff the
    normals tight on it, together with perp, have rank one less: they span
    the dual face of the smallest face containing the ray.
    """
    normals, perp = _dual_pair(rays + lineality + tuple(vec_neg(l) for l in lineality), n)
    rank = n - len(lineality)
    if mat_rank(normals + perp) < rank:
        raise InvalidCone(f"cone on {rays} is not strictly convex")
    return tuple(
        r
        for r in rays
        if mat_rank(tuple(u for u in normals if dot(u, r) == 0) + perp) == rank - 1
    )


@lru_cache(maxsize=None)
def _dual_pair(generators: tuple[Vector, ...], n: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Dual of the cone generated by arbitrary vectors in Z^n.

    Returns (rays, lineality): the dual's lineality is generators^perp, in
    Hermite form, and the pointed part is taken inside span(generators),
    making it orthogonal to the lineality.  Works whether or not the
    generated cone is pointed.  The rays do not depend on the basis of perp.

    Double description (Fukuda-Prodon): the dual of a basis B among the
    generators is cut by each other generator g in turn.  Rays nonnegative
    on g stay; a pair with <g,p> > 0 > <g,q> gives a new ray iff the
    processed generators vanishing on it (g and those of both p and q, kept
    as bit masks) have rank n - 1 together with perp.

    n independent generators in Z^n are their own basis B, cut nothing and
    have perp 0, so they are tried first: when the elimination of [B | I]
    (:func:`_simplex`) finds n pivots, no kernel or pivot search is run.
    """
    gens = [g for g in generators if any(g)]
    # [M | I] reduces to [s I | s M^-1]; s times column j of s M^-1 pairs to
    # s^2 with the j-th basis vector and to 0 with the others and with perp
    simplex = _simplex(tuple(gens)) if len(gens) == n else None
    pivots, perp = range(n), []
    if simplex is None:
        perp = kernel_basis(gens, n)
        if not gens:
            return (), tuple(perp)
        pivots, _, _ = _eliminate([list(col) for col in zip(*gens)], len(gens))
        simplex = _simplex((*[gens[j] for j in pivots], *perp))
    s, inverse = simplex
    processed = [gens[j] for j in pivots]
    d = len(processed)
    rays = [(primitive([s * row[j] for row in inverse]), (1 << d) - 1 - (1 << j)) for j in range(d)]
    for g in (g for j, g in enumerate(gens) if j not in pivots):  # B cuts nothing
        values = [sum(map(mul, g, r)) for r, _ in rays]  # dot, without its length check
        if all(v >= 0 for v in values):
            continue
        bit = 1 << len(processed)
        processed.append(g)
        kept = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, values) if v >= 0]
        for (p, zp), vp in zip(rays, values):
            if vp <= 0:
                continue
            for (q, zq), vq in zip(rays, values):
                z = zp & zq
                if vq >= 0 or z.bit_count() < d - 2:
                    continue
                # perp, orthogonal to the generators, adds n - d to their rank
                if mat_rank([h for i, h in enumerate(processed) if z >> i & 1] + [g]) == d - 1:
                    kept.append((primitive([vp * y - vq * x for x, y in zip(p, q)]), z | bit))
        rays = kept
    return tuple(sorted(r for r, _ in rays)), tuple(perp)


@lru_cache(maxsize=None)
def dual_cone(cone: Cone) -> Cone:
    """The dual cone {u : <u, v> >= 0 for all v in the cone}.

    For a full-dimensional pointed cone the result is pointed.  Otherwise the
    result carries a lineality basis (the orthogonal complement lattice of the
    cone's span) and its rays describe the canonical pointed part inside the
    cone's span.
    """
    return _trusted(cone.ambient_dim, *_dual_pair(cone.generators(), cone.ambient_dim))


@lru_cache(maxsize=None)
def facet_normals(cone: Cone) -> tuple[Vector, ...]:
    """Inward normals of the facets (within the cone's span); pointed cones only."""
    if not cone.is_pointed:
        raise NotPointed("facet enumeration requires a pointed cone")
    return dual_cone(cone).rays


def _trusted(
    ambient_dim: int,
    rays: tuple[Vector, ...],
    lineality: tuple[Vector, ...] = (),
    dim: int | None = None,
) -> Cone:
    """A cone from fields that are already what ``Cone`` would store.

    The faces of a cone, from its extremal rays that lie in them, and the
    output of :func:`_dual_pair` (sorted primitive extremal rays, a Hermite
    lineality basis orthogonal to them) are such fields; the cone is built
    without running the constructor's checks again.  A known ``dim`` is
    stored where :attr:`Cone.dim` caches it, so no rank is computed for it.
    """
    cone = object.__new__(Cone)
    cone._set(ambient_dim, rays, lineality, dim, None)
    return cone


@lru_cache(maxsize=None)
def faces(cone: Cone) -> tuple[Cone, ...]:
    """All faces of a pointed cone, from the zero cone up to the cone itself.

    The faces of a simplicial cone are the cones on the subsets of its rays.
    Otherwise every face is an intersection of facets, and the ray sets of
    the faces are the closure of the cone's own under intersection with the
    facets' (Kaibel-Pfetsch); the work follows the number of faces.
    """
    if not cone.is_pointed:
        raise NotPointed("face enumeration requires a pointed cone")
    n = cone.ambient_dim
    if cone.is_simplicial:
        # rays are sorted, so this is already the (dim, rays) order; the rays
        # of a simplicial cone are independent, so a face's dim is its size
        return tuple(
            _trusted(n, subset, dim=k)
            for k in range(len(cone.rays) + 1)
            for subset in combinations(cone.rays, k)
        )
    facets = [{r for r in cone.rays if dot(u, r) == 0} for u in facet_normals(cone)]
    # each face is built with its dim: the facets, the first intersections,
    # have dim(cone) - 1, and a face on k <= 3 rays has dim k, as a pointed
    # cone of dim 1 or 2 has that many rays; only larger faces take a rank
    frontier = {tuple(r for r in cone.rays if r in facet) for facet in facets}
    dims = {cone.rays: cone.dim} | dict.fromkeys(frontier, cone.dim - 1)
    while frontier:
        frontier = {tuple(r for r in f if r in facet) for f in frontier for facet in facets}
        frontier.difference_update(dims)
        dims.update((rays, len(rays) if len(rays) <= 3 else mat_rank(rays)) for rays in frontier)
    order = sorted(dims.items(), key=lambda item: (item[1], item[0]))
    return tuple(_trusted(n, rays, dim=k) for rays, k in order)


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


@lru_cache(maxsize=8)  # the last few: a cone's dual is soon followed by its monoid
def _simplex(rows: tuple[Vector, ...]) -> tuple[int, list[list[int]]] | None:
    """(s, s G^-1) for the d x d matrix G with the given rows, s = +-det G,
    from one elimination of [G | I], which reduces it to [s I | s G^-1]; None
    if G is singular."""
    d = len(rows)
    m = _with_identity(rows)
    pivots, s, _ = _eliminate(m, d)
    return (s, [row[d:] for row in m]) if len(pivots) == d else None


def _dual_simplex(rays: tuple[Vector, ...], dual: tuple[Vector, ...]) -> tuple[int, list[list[int]]]:
    """:func:`_simplex` of G, the ``dual`` rays of n independent ``rays`` in Z^n as
    columns, up to sign, from that of the rays: a dual ray g is p > 0 on one ray
    r and 0 on the others, so r / p is its row of G^-1, and |det G| = prod p / |det R|."""
    pairs = [next((r, p) for r in rays if (p := dot(r, g))) for g in dual]
    volume = reduce(mul, (p for _, p in pairs), 1) // abs(_simplex(rays)[0])
    return volume, [[volume // p * x for x in r] for r, p in pairs]


def _cosets(gens: Sequence[Vector], inverse: list[list[int]], volume: int) -> list[Vector]:
    """(M a) mod D for one a per coset of Z^d / L, L being the lattice the
    independent gens span, D = |det G| = ``volume`` and ``inverse`` = s G^-1
    = +-M = +-D G^-1 (from :func:`_simplex`).

    The Hermite basis of L is triangular, so the box prod_i [0, h_ii) over
    its diagonal holds one a per coset, the first being 0.  With -M, a stands
    for the coset of -a, which only permutes the cosets.
    """
    diagonal = [h[i] for i, h in enumerate(hnf_rows(gens, len(gens)))]
    box = iproduct(*map(range, diagonal))
    return [tuple([dot(row, a) % volume for row in inverse]) for a in box]


def _parallelepiped_points(gens: tuple[Vector, ...]) -> set[Vector]:
    """Lattice points of the half-open parallelepiped spanned by independent gens.

    There is one per coset of Z^d / L, L being the lattice the gens span: the
    coset of a has its point at G frac(G^-1 a), G having the gens as columns,
    and with D = |det G| and M = D G^-1 that is G f / D, f = (M a) mod D
    (:func:`_cosets`).
    """
    assert len(gens) == len(gens[0]), "parallelepiped enumeration expects full-dimensional pieces"
    simplex = _simplex(rows := tuple(zip(*gens)))
    assert simplex is not None, "parallelepiped generators must be independent"
    volume = abs(simplex[0])
    points = {tuple(dot(row, f) // volume for row in rows) for f in _cosets(gens, simplex[1], volume)}
    assert len(points) == volume, "parallelepiped enumeration lost points"
    return points


@lru_cache(maxsize=None)
def hilbert_basis(cone: Cone) -> tuple[Vector, ...]:
    """The unique minimal generating set of cone ∩ Z^n, for a pointed cone.

    A cone of dimension 2 takes its basis from the Hirzebruch-Jung continued
    fraction (:func:`_plane_basis`), at one step per run of basis elements;
    the budget counts the basis elements.  In dimension 3 and up the
    candidates are the rays plus the fundamental-parallelepiped points of a
    triangulation (:func:`_triangulated_basis`), and the budget counts those
    points.  Either way BudgetExceeded is raised before anything is listed.
    A cone of dimension d < n is mapped onto Z^d first.
    """
    try:
        return _basis(cone)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"Hilbert basis of {cone}: {exc}") from None


def _basis(cone: Cone, simplex: tuple[int, list[list[int]]] | None = None) -> tuple[Vector, ...]:
    if not cone.is_pointed:
        raise NotPointed("Hilbert bases require lineality to be split off first")
    if not cone.rays:
        return ()
    n = cone.ambient_dim
    if n == 2 == len(cone.rays):  # two rays of a pointed cone in Z^2 span it
        return _plane_basis(*cone.rays)
    if len(cone.rays) == n:
        simplex = simplex or _simplex(tuple(zip(*cone.rays)))
        if simplex is not None:
            return _simplicial_basis(cone.rays, *simplex)
    d = cone.dim
    if d < n:
        # the Hermite transform u of the rays maps span ∩ Z^n onto Z^d x 0;
        # its images of the rays are primitive, distinct and extremal
        _, u, u_inv = row_hermite_transform(list(zip(*cone.rays)))
        coords = tuple(sorted(mat_vec(u, r)[:d] for r in cone.rays))
        inner = _basis(_trusted(d, coords))
        return tuple(sorted(mat_vec(u_inv, h + (0,) * (n - d)) for h in inner))
    return _triangulated_basis(cone)


def _plane_basis(a: Vector, b: Vector) -> tuple[Vector, ...]:
    """Hilbert basis of the cone on independent primitive a, b in Z^2, by the
    Hirzebruch-Jung continued fraction (Fulton, *Introduction to Toric
    Varieties* §2.6; Oda, *Convex Bodies and Algebraic Geometry* §1.6).

    With a, b ordered so that D = det(a, b) > 0, let u be the lattice point
    with det(a, u) = 1 and 0 <= det(u, b) < D.  The basis is w_0 = a,
    w_1 = u, ..., b, where w_{i+1} = c_i w_i - w_{i-1} with c_i the ceiling
    of r_{i-1} / r_i, r_i = det(w_i, b): consecutive elements span Z^2, and
    r falls strictly to 0 at w = b.  While c_i = 2 both w and r are
    arithmetic progressions, so such a run is taken in one step; the runs
    number O(log D), and the budget counts the elements before any is listed.
    """
    size = a[0] * b[1] - a[1] * b[0]
    if size < 0:
        a, b, size = b, a, -size
    p, q = _bezout(*a)  # p a_0 + q a_1 = 1
    # v = (-q, p) has det(a, v) = 1, and so has u = v - t a, with
    # det(u, b) = det(v, b) - t D: the remainder r of det(v, b) by D
    t, r = divmod(-p * b[0] - q * b[1], size)
    u = (-q - t * a[0], p - t * a[1])
    prev, cur, r_prev = a, u, size
    runs = []  # (w, step, m): the elements w + j step for 1 <= j <= m
    while r:
        c = -(-r_prev // r)
        step = ((c - 1) * cur[0] - prev[0], (c - 1) * cur[1] - prev[1])
        drop = r_prev - (c - 1) * r  # r_i - r_{i+1}, constant along a run of c = 2
        m = r // drop if c == 2 else 1
        runs.append((cur, step, m))
        prev = (cur[0] + (m - 1) * step[0], cur[1] + (m - 1) * step[1])
        cur = (cur[0] + m * step[0], cur[1] + m * step[1])
        r_prev, r = r - (m - 1) * drop, r - m * drop
    check_budget(2 + sum(m for _, _, m in runs), "elements")
    basis = [a, u]
    for (x, y), (dx, dy), m in runs:
        basis.extend((x + j * dx, y + j * dy) for j in range(1, m + 1))
    return tuple(sorted(basis))


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(p, q) with p x + q y = gcd(x, y), by the extended Euclid algorithm."""
    p0, q0, r0, p1, q1, r1 = 1, 0, x, 0, 1, y
    while r1:
        t = r0 // r1
        p0, q0, r0, p1, q1, r1 = p1, q1, r1, p0 - t * p1, q0 - t * q1, r0 - t * r1
    return (p0, q0) if r0 >= 0 else (-p0, -q0)


def _simplicial_basis(
    rays: tuple[Vector, ...], s: int, inverse: list[list[int]]
) -> tuple[Vector, ...]:
    """Hilbert basis of the cone on n independent ``rays`` in Z^n, from
    (s, s G^-1) = :func:`_simplex` of G, which has them as columns.

    D = |s| = 1 means the rays are a lattice basis.  Otherwise the candidates
    are the rays and the nonzero points G f / D of the parallelepiped, and
    the budget counts its D points.  A point G f / D has the coordinates
    f / D on the rays, ray i being G (D e_i) / D, and the facet normal
    opposite ray i is a positive multiple of row i of s G^-1 = +-M, so f
    serves as the values on the normals and needs no products; only the
    irreducibles are mapped back to Z^n.
    """
    volume = abs(s)
    if volume == 1:
        return rays
    check_budget(volume, "parallelepiped points")
    scaled_rays = [tuple(volume * x for x in e) for e in _identity(len(rays))]
    graded = [(sum(f), f, f) for f in scaled_rays + _cosets(rays, inverse, volume)[1:]]
    rows = tuple(zip(*rays))
    basis = (tuple(dot(row, f) // volume for row in rows) for f in _irreducibles(graded))
    return tuple(sorted(basis))


def _triangulated_basis(cone: Cone) -> tuple[Vector, ...]:
    """Hilbert basis of a full-dimensional pointed cone from a triangulation.

    Candidates are the rays plus the fundamental-parallelepiped points of
    each simplicial piece; the irreducibles always appear among them.  A
    piece's parallelepiped holds |det| points, and BudgetExceeded is raised
    before any is listed when their sum exceeds the enumeration budget.  The
    candidates are graded by their values on the facet normals.
    """
    n = cone.ambient_dim
    pieces = _triangulate(cone.rays, n)
    # one candidate per lattice point of each piece's parallelepiped
    check_budget(sum(abs(_simplex(tuple(zip(*piece)))[0]) for piece in pieces), "parallelepiped points")
    normals = facet_normals(cone)
    candidates: set[Vector] = set(cone.rays)
    for piece in pieces:
        candidates |= _parallelepiped_points(piece)
    candidates.discard((0,) * n)
    graded = []
    for h in candidates:
        values = tuple(dot(u, h) for u in normals)
        graded.append((sum(values), h, values))
    return tuple(sorted(_irreducibles(graded)))


def _irreducibles(graded: list[tuple[int, Vector, tuple[int, ...]]]) -> list[Vector]:
    """The irreducible candidates, from (degree, candidate, values) triples:
    a candidate's values on the facet normals of the cone, each scaled by a
    positive constant, and their sum, its degree.  h - c lies in the cone iff
    h's values dominate c's.

    The reduction is graded (Bruns-Ichim, Normaliz): the degree is linear
    and positive on the nonzero points of the cone, candidates are
    visited by degree, and each is tested only against the irreducibles
    already accepted of at most half its degree.  If h = a + b, one summand
    has at most half the degree of h, and an irreducible dividing that
    summand was accepted before h.
    """
    graded.sort()
    accepted: list[tuple[int, tuple[int, ...]]] = []  # irreducibles, by degree

    def reducible(degree: int, values: tuple[int, ...]) -> bool:
        for c_degree, c_values in accepted:
            if 2 * c_degree > degree:
                return False
            if all(x >= y for x, y in zip(values, c_values)):
                return True
        return False

    out = []
    for degree, h, values in graded:
        if not reducible(degree, values):
            accepted.append((degree, values))
            out.append(h)
    return out


class Fan(Value):
    """A finite collection of pointed cones, stored in canonical order.

    Construction does not validate the fan axioms; run :func:`validate_fan`
    (operations that need a valid fan do so and raise :class:`InvalidFan`).
    Like a cone, a fan keeps its hash, in ``_hash``, from its first use.
    """

    __slots__ = ("ambient_dim", "cones", "_face_indices", "_hash")
    __hash__ = Value._kept_hash

    def __init__(self, ambient_dim: int, cones: tuple[Cone, ...] = ()):
        self.__post_init__(ambient_dim, cones)

    def __post_init__(self, ambient_dim, cones):
        """The constructor's checks and canonical order, under the method
        name that ``perfbench/tracer.py`` wraps to count fan construction."""
        for c in cones:
            if c.ambient_dim != ambient_dim:
                raise DimensionMismatch(
                    f"cone of ambient dimension {c.ambient_dim} in a fan of dimension {ambient_dim}"
                )
            if not c.is_pointed:
                raise InvalidCone("fans contain only strictly convex cones")
        self._set(ambient_dim, tuple(sorted(set(cones), key=lambda c: (c.dim, c.rays))), None, None)

    def __len__(self) -> int:
        return len(self.cones)

    @property
    def face_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per cone, the ascending indices of its faces that are cones of the
        fan (the cone's own index included): the fan's face relation,
        computed on first read.

        Each ray gets a bit and each cone is indexed by its ray mask.  The
        faces of a simplicial cone are the cones on the subsets of its rays,
        so those in the fan are the submasks of its mask in the index; only
        other cones list their faces.
        """
        if self._face_indices is not None:
            return self._face_indices
        bits, masks = _ray_masks(self.cones)
        index = {mask: i for i, mask in enumerate(masks)}
        relation = []
        for c, mask in zip(self.cones, masks):
            if c.is_simplicial:
                subs, sub = [0], mask
                while sub:  # the nonzero submasks, from mask down
                    subs.append(sub)
                    sub = (sub - 1) & mask
            else:
                _, subs = _ray_masks(faces(c), bits)
            relation.append(tuple(sorted(index[m] for m in subs if m in index)))
        object.__setattr__(self, "_face_indices", tuple(relation))
        return self._face_indices

    def __repr__(self) -> str:
        return f"Fan(dim {self.ambient_dim}, {len(self.cones)} cones)"


@lru_cache(maxsize=None)
def maximal_cones(fan: Fan) -> tuple[int, ...]:
    """Indices of cones that are not a proper face of another cone of the fan."""
    proper = {i for j, face_ids in enumerate(fan.face_indices) for i in face_ids if i != j}
    return tuple(i for i in range(len(fan.cones)) if i not in proper)


def _separating_faces(a: Cone, b: Cone) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Tight faces of a and b for a generic functional in a^v ∩ (-b)^v.

    The pair intersects in a common face iff both tight faces coincide with
    the intersection; this avoids computing cone intersections outright.
    u* is nonnegative on a and nonpositive on b, so each tight set is the ray
    set of a face, and equal tight sets are a common face.
    """
    gens = a.rays + tuple(vec_neg(r) for r in b.rays)
    normals, _ = _dual_pair(gens, a.ambient_dim)
    u_star = tuple(sum(u[i] for u in normals) for i in range(a.ambient_dim))
    tight_a = tuple(r for r in a.rays if dot(u_star, r) == 0)
    tight_b = tuple(r for r in b.rays if dot(u_star, r) == 0)
    return tight_a, tight_b


def _ray_masks(
    cones: Sequence[Cone], bits: dict[Vector, int] | None = None
) -> tuple[dict[Vector, int], list[int]]:
    """The bits, one per ray of ``cones`` unless ``bits`` is given, and per
    cone the mask of its rays."""
    if bits is None:
        bits = {r: 1 << i for i, r in enumerate({r for c in cones for r in c.rays})}
    return bits, [sum(bits[r] for r in c.rays) for c in cones]


def _open_pairs(tops: list[Cone]) -> Iterator[tuple[Cone, Cone]]:
    """The pairs of ``tops`` that sign masks do not show to meet in a common face.

    Each ray gets a bit.  Per cone, its ray mask, and per facet normal u the
    masks of the rays where u > 0 and where u = 0: one dual per cone.  For
    a pair (a, b), the normals of a positive on no ray of b and the negated
    normals of b positive on no ray of a are >= 0 on a and <= 0 on b; their
    sum u* vanishes on a ray of either cone iff each of them does, that is
    on the rays in Z, the AND of their zero masks.  a ∩ b lies in u*^⊥, so
    when Z holds the same rays of a as of b, a ∩ b is the face they span.
    The test is sound, not complete: some valid pairs stay open, and every
    violating pair does.
    """
    if len(tops) < 2:  # no pair, so no dual: a cone's face fan pays nothing
        return
    bits, masks = _ray_masks(tops)
    signs = []
    for c, mask in zip(tops, masks):
        normals = []
        for u in facet_normals(c):
            positive = zero = 0
            for r, bit in bits.items():
                value = sum(map(mul, u, r))  # dot, without its length check
                if value > 0:
                    positive |= bit
                elif value == 0:
                    zero |= bit
            normals.append((positive, zero))
        signs.append((mask, normals))
    for (a, (mask_a, normals_a)), (b, (mask_b, normals_b)) in combinations(zip(tops, signs), 2):
        z = -1  # all bits
        for positive, zero in normals_a:
            if not positive & mask_b:
                z &= zero
        for positive, zero in normals_b:
            if not positive & mask_a:
                z &= zero
        if z & mask_a != z & mask_b:
            yield a, b


@lru_cache(maxsize=None)
def validate_fan(fan: Fan) -> ValidationReport:
    """Check face closure, and that any two maximal cones meet in a common face.

    A cone's faces are closed iff its face relation holds all of them: 2^k
    for a simplicial cone on k rays.  Only a cone short of that count has
    its faces scanned, to name the missing ones.

    Pairs of maximal cones suffice once faces are closed: if A and B meet in
    a common face F, then for faces a of A and b of B, a ∩ F and b ∩ F are
    faces of F, so a ∩ b is a face of both a and b.  Sign masks from one
    dual per maximal cone settle most pairs (:func:`_open_pairs`); a double
    description of the pair (:func:`_separating_faces`) decides the rest.
    """
    violations: list[str] = []
    cone_set = set(fan.cones)
    if zero_cone(fan.ambient_dim) not in cone_set:
        violations.append("fan does not contain the zero cone")
    for c, face_ids in zip(fan.cones, fan.face_indices):
        if len(face_ids) == (1 << len(c.rays) if c.is_simplicial else len(faces(c))):
            continue
        for f in faces(c):
            if f not in cone_set:
                violations.append(f"face {list(f.rays)} of cone {list(c.rays)} is missing")
    tops = [fan.cones[i] for i in maximal_cones(fan)]
    for a, b in _open_pairs(tops):
        tight_a, tight_b = _separating_faces(a, b)
        if tight_a != tight_b:
            violations.append(
                f"cones {list(a.rays)} and {list(b.rays)} do not meet in a common face"
            )
    return ValidationReport(tuple(sorted(set(violations))))


def require_valid(fan: Fan) -> None:
    report = validate_fan(fan)
    if not report.ok:
        raise InvalidFan(report)


def standard_fan(kind: str, n: int) -> Fan:
    """Built-in fans: ``affine_space``, ``projective_space``, ``torus`` on Z^n.

    A^n has 2^n cones and P^n 2^(n+1) - 1; more than the enumeration budget
    raise :class:`BudgetExceeded` before any is built.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    e = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if kind == "torus":
        return Fan(n, (zero_cone(n),))
    if kind == "affine_space":
        check_budget(1 << n, "cones")
        top = Cone(n, tuple(e))
        return Fan(n, faces(top))
    if kind == "projective_space":
        check_budget((1 << (n + 1)) - 1, "cones")
        if n == 0:
            return Fan(0, (zero_cone(0),))
        rays = e + [tuple(-1 for _ in range(n))]
        cones: set[Cone] = set()
        for subset in combinations(range(n + 1), n):
            top = Cone(n, tuple(rays[i] for i in subset))
            cones.update(faces(top))
        return Fan(n, tuple(cones))
    raise ValueError(f"unknown standard fan kind: {kind!r}")


def _int_list(value, what: str) -> list:
    """``value`` itself if it is a list of integers; ValueError otherwise."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return value


def fan_from_dict(data: dict, on_warning=None) -> Fan:
    """Build a fan from the JSON interchange form.

    ``{"dim": n, "rays": [[int, ...], ...], "cones": [[ray-index, ...], ...],
    "close_faces": bool}``.  Non-primitive rays are normalized (reported via
    ``on_warning``); with ``close_faces`` every missing face is added.  Any
    other shape, and a ray index outside [0, len(rays)), raise ValueError.

    Each listed cone is built once, and a maximal one of full dimension is
    eliminated once, for the dual its facets are later read from.  Closing
    builds each face once, by its ray set: a simplicial cone's faces are the
    cones on the subsets of its rays, so only a non-simplicial cone lists
    its :func:`faces`.
    """
    try:
        n, raw_rays, raw_cones = data["dim"], data["rays"], data["cones"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"fan data must have dim/rays/cones fields: {exc}") from exc
    if type(n) is not int or n < 0:
        raise ValueError(f"dim must be a nonnegative integer, got {n!r}")
    for name, value in (("rays", raw_rays), ("cones", raw_cones)):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
    close = data.get("close_faces", False)
    if type(close) is not bool:
        raise ValueError(f"close_faces must be true or false, got {close!r}")
    rays = []
    for r in raw_rays:
        v = tuple(_int_list(r, "a ray"))
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
        if not all(0 <= i < len(rays) for i in _int_list(indices, "a cone")):
            raise ValueError(f"cone {indices} references a missing ray")
        cones.append(Cone(n, tuple(rays[i] for i in indices)))
    if close:
        cones = _closure(n, cones)
    return Fan(n, tuple(cones))


def _closure(n: int, cones: Sequence[Cone]) -> list[Cone]:
    """The faces of ``cones`` in Z^n, each once: the cones on the subsets of
    a simplicial cone's rays, built once per distinct subset, and the
    :func:`faces` of the other cones."""
    closed: dict[tuple[Vector, ...], Cone] = {}
    for c in cones:
        if c.is_simplicial:
            for k in range(len(c.rays) + 1):
                for subset in combinations(c.rays, k):
                    if subset not in closed:
                        closed[subset] = _trusted(n, subset, dim=k)
        else:
            for f in faces(c):
                closed.setdefault(f.rays, f)
    return list(closed.values())


"""Rational polyhedral cones and fans over the standard lattice Z^n.

All geometry is exact.  A :class:`Cone` is stored by its primitive extremal
rays; duals of non-full-dimensional cones additionally carry a lineality
lattice basis (rays are kept orthogonal to it, which makes the description
canonical).  Operations that need pointedness refuse lineality.

One dual routine, :func:`_dual_pair`, a double description, serves
construction (strict convexity and extremality), duals, faces and
triangulations.  Which rays lie on which faces is decided by bit masks, in
the one face walk, :func:`faces`'s (each face with its dimension), the
dual's adjacency test and the extremal rays' test: no rank of a tight set.
n independent generators in Z^n skip the double description: the dual's
rays are the columns of adj G, where :func:`_simplex` gives (det G, adj G)
by cofactors up to 3 x 3 and by one signed Bareiss elimination above.  A
cone on at least n rays and without lineality reads its dimension from that
cached dual, so a maximal cone takes one simplex, for its rank and its facets.
A fan file's rays are checked once, by :func:`fan_from_dict`, so its cones,
like those of :func:`standard_fan`, are only made canonical
(``Cone._canonicalize``).
The lattice work beneath is the one Bareiss elimination and the one
Hermite reduction of :mod:`torified.intlinalg`; a dual's lineality is the
generators' kernel, which that reduction returns in Hermite form.
A lower-dimensional cone is read in the lattice points of its span: with U
the Hermite transform of the perp's basis B (U B^T = (I; 0)), the rows of
U[r:] are a basis of that lattice, the transform of their transpose gives
the chart C with C U[r:]^T = I, and a point h of Z^d lifts to U[r:]^T h;
:mod:`torified.monoids` reads the quotient by the units through the same
two transforms.  A Hilbert basis of dimension 2 comes from the
Hirzebruch-Jung continued fraction, at one step per run of elements, and is
refused with :class:`BudgetExceeded` when it has more elements than the
enumeration budget.  In dimension 3 and up it comes from the parallelepipeds
of a triangulation, refused when they hold more lattice points than the budget;
a full-dimensional simplicial cone is its own triangulation, and the one
simplex of its rays gives its volume (smooth at 1), its facet normals
and each parallelepiped point's values on them, so beyond it only the
Hermite basis of the rays runs, to index the points.  Any other cone keeps
each candidate as its values on the facet normals, read from its piece's
rays' values and its coset vector, and only the irreducibles are read back
to Z^n, by one elimination of the normals.

A fan reads its maximal cones first, in one pass over its ray bitmasks
(``Fan._maximal``): by descending dim, a cone that no maximal cone found so
far holds is maximal, and takes its submasks as face masks if simplicial and
those of its :func:`faces` otherwise.  The pass gives the maximal cones, a
torification's charts, the cone each local monoid of a D-scheme is read
from and, by mask, the faces each cone misses.  The full relation,
:attr:`Fan.face_indices`, is built from its rows only for the readers of
every pair: the D-scheme's specialisations, counted from the pass against
the budget first, the stars of a regular torification and the orbit sums of
point counts (``spec`` reads the same rule off the masks of its cone's
:func:`faces`).  ``faces`` caches its walk, so a cone is walked once per
process.  Cones and fans keep their hashes.  Fan validation settles pairs
of maximal cones by sign masks over the pass's ray bits, from the dual each
cone cached on construction; a double description of the pair decides only
the pairs the masks leave open, and every violating pair is among those.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
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
    _unit_transform,
    _with_identity,
    dot,
    hnf_rows,
    kernel_basis,
    mat_rank,
    mat_vec,
    primitive,
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
    generators, which the constructor computes anyway and :func:`_trusted`
    is given; it is not a field, and neither is ``_hash``, the hash of the
    field tuple, kept from its first use because cones key the caches of
    this module and the sets of fans.

    The constructor checks its input (``__post_init__``), then makes it
    canonical (``_canonicalize``); :func:`fan_from_dict` and
    :func:`standard_fan`, which check their rays, run the second step alone.
    """

    __slots__ = ("ambient_dim", "rays", "lineality", "_dim", "_hash")
    __hash__ = Value._kept_hash

    def __init__(self, ambient_dim: int, rays=(), lineality=()):
        self.__post_init__(ambient_dim, rays, lineality)

    def __post_init__(self, ambient_dim, rays, lineality):
        """The constructor's input checks, under the method name that
        ``perfbench/tracer.py`` wraps to count cone construction; the
        canonical form is :meth:`_canonicalize`'s."""
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
        self._canonicalize(ambient_dim, rays, lineality)

    def _canonicalize(self, ambient_dim, rays, lineality=()) -> Cone:
        """Set the slots from generators that passed the input checks (int
        tuples of length ``ambient_dim``, primitive nonzero rays, a Hermite
        lineality basis orthogonal to them); returns the cone."""
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
        return self

    @property
    def dim(self) -> int:
        """Dimension of the span."""
        return self._dim

    @property
    def is_pointed(self) -> bool:
        return not self.lineality

    @property
    def is_simplicial(self) -> bool:
        return not self.lineality and len(self.rays) == self._dim

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


# the slot setters, in ``__slots__`` order, that :func:`_trusted` calls
_set_ambient_dim, _set_rays, _set_lineality, _set_dim, _set_hash = Cone._setters


def zero_cone(ambient_dim: int) -> Cone:
    if ambient_dim < 0:
        raise InvalidCone("ambient dimension must be nonnegative")
    return _trusted(ambient_dim, (), dim=0)


def _extremal_rays(rays, lineality, n) -> tuple[Vector, ...]:
    """The extremal ones of the sorted ``rays``; InvalidCone unless
    cone(rays) + span(lineality) contains no line beyond that span.

    With (normals, perp) the dual of the generators, the cone contains no
    other line iff its dual has full dimension n - len(lineality), that is
    iff normals and perp have that rank.  The mask of the normals tight on a
    ray names the smallest face that contains it, and the rays in that face
    are those whose masks hold it.  A face larger than a ray (modulo the
    lineality) has two extremal rays among the rays, so a ray is extremal
    iff no other ray's mask holds its own.
    """
    normals, perp = _dual_pair(rays + lineality + tuple(vec_neg(l) for l in lineality), n)
    if mat_rank(normals + perp) < n - len(lineality):
        raise InvalidCone(f"cone on {rays} is not strictly convex")
    masks = [sum(1 << i for i, u in enumerate(normals) if dot(u, r) == 0) for r in rays]
    return tuple(r for r, m in zip(rays, masks) if sum(m & t == m for t in masks) == 1)


@lru_cache(maxsize=None)
def _dual_pair(generators: tuple[Vector, ...], n: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Dual of the cone generated by arbitrary vectors in Z^n.

    Returns (rays, lineality): the dual's lineality is generators^perp, in
    Hermite form, and the pointed part is taken inside span(generators),
    making it orthogonal to the lineality.  Works whether or not the
    generated cone is pointed.  The rays do not depend on the basis of perp.

    Double description (Fukuda-Prodon): the dual of a basis B among the
    generators is cut by each other generator g in turn.  Rays nonnegative
    on g stay; a pair with <g,p> > 0 > <g,q> gives a new ray iff p and q are
    adjacent.  Each ray keeps the bit mask of the processed generators
    vanishing on it, and the cone cut so far is pointed within
    span(generators), so its rays are extremal and p, q are adjacent iff no
    third ray's mask holds the AND of theirs: no rank is taken.

    n independent generators in Z^n are their own basis B, cut nothing and
    have perp 0, so they are tried first: when :func:`_simplex` of B is not
    None, the dual's rays are the columns of adj B, and no kernel, pivot
    search or cut is run.
    """
    gens = [g for g in generators if any(g)]
    # with (s, adj M) = _simplex(M), s = det M, s times column j of adj M is
    # s^2 M^-1 e_j: it pairs to s^2 with the j-th row of M and to 0 with the
    # others, and, when perp fills M's last rows, with perp
    simplex = _simplex(tuple(gens)) if len(gens) == n else None
    if simplex is not None:
        s, adj = simplex
        return tuple(sorted(primitive([s * row[j] for row in adj]) for j in range(n))), ()
    perp = kernel_basis(gens, n)
    if not gens:
        return (), tuple(perp)
    pivots, _, _ = _eliminate([list(col) for col in zip(*gens)], len(gens))
    s, adj = _simplex((*[gens[j] for j in pivots], *perp))
    d = len(pivots)
    rays = [(primitive([s * row[j] for row in adj]), (1 << d) - 1 - (1 << j)) for j in range(d)]
    bit = 1 << d  # the next processed generator's
    for g in (g for j, g in enumerate(gens) if j not in pivots):  # B cuts nothing
        values = [sum(map(mul, g, r)) for r, _ in rays]  # dot, without its length check
        if all(v >= 0 for v in values):
            continue
        kept = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, values) if v >= 0]
        masks = [z for _, z in rays]
        for (p, zp), vp in zip(rays, values):
            if vp <= 0:
                continue
            for (q, zq), vq in zip(rays, values):
                z = zp & zq
                # an edge lies on d - 2 independent processed generators
                if vq >= 0 or z.bit_count() < d - 2:
                    continue
                # distinct extremal rays have distinct masks
                if not any(z & t == z for t in masks if t != zp and t != zq):
                    kept.append((primitive([vp * y - vq * x for x, y in zip(p, q)]), z | bit))
        rays, bit = kept, bit << 1
    return tuple(sorted(r for r, _ in rays)), tuple(perp)


@lru_cache(maxsize=None)
def dual_cone(cone: Cone) -> Cone:
    """The dual cone {u : <u, v> >= 0 for all v in the cone}.

    For a full-dimensional pointed cone the result is pointed.  Otherwise the
    result carries a lineality basis (the orthogonal complement lattice of the
    cone's span) and its rays describe the canonical pointed part inside the
    cone's span.
    """
    n = cone.ambient_dim
    return _trusted(n, *_dual_pair(cone.generators(), n), dim=n - len(cone.lineality))


@lru_cache(maxsize=None)
def facet_normals(cone: Cone) -> tuple[Vector, ...]:
    """Inward normals of the facets (within the cone's span); pointed cones only."""
    if not cone.is_pointed:
        raise NotPointed("facet enumeration requires a pointed cone")
    return dual_cone(cone).rays


def _trusted(
    ambient_dim: int, rays: tuple[Vector, ...], lineality: tuple[Vector, ...] = (), *, dim: int
) -> Cone:
    """A cone from fields that are already what ``Cone`` would store.

    The faces of a cone, from its extremal rays that lie in them, and the
    output of :func:`_dual_pair` (sorted primitive extremal rays, a Hermite
    lineality basis orthogonal to them) are such fields; the cone is built
    without running the constructor's checks or canonical form again, and
    its five slots are set by their own setters.  Every caller knows the
    cone's ``dim``, so no rank is computed for it.
    """
    cone = object.__new__(Cone)
    _set_ambient_dim(cone, ambient_dim)
    _set_rays(cone, rays)
    _set_lineality(cone, lineality)
    _set_dim(cone, dim)
    _set_hash(cone, None)
    return cone


@lru_cache(maxsize=None)
def faces(cone: Cone) -> tuple[Cone, ...]:
    """All faces of a pointed cone, from the zero cone up to the cone itself,
    in (dim, rays) order, each built with its dim: a simplicial cone's are
    the cones on its ray subsets.  Any other cone is walked down one dim at
    a time, bit i standing for ray i: a face's facets are its maximal proper
    intersections with the cone's facets."""
    if not cone.is_pointed:
        raise NotPointed("face enumeration requires a pointed cone")
    n, rays = cone.ambient_dim, cone.rays
    if cone.is_simplicial:  # combinations come in (dim, rays) order
        subsets = (sub for k in range(len(rays) + 1) for sub in combinations(rays, k))
        return tuple(_trusted(n, sub, dim=len(sub)) for sub in subsets)
    facets = [sum(1 << i for i, r in enumerate(rays) if dot(u, r) == 0) for u in facet_normals(cone)]
    found, level, k = [], {(1 << len(rays)) - 1}, cone.dim
    while level:  # the faces of dim k
        found += [_trusted(n, tuple([r for i, r in enumerate(rays) if m >> i & 1]), dim=k) for m in level]
        level, k = {cut for face in level for cut in _maximal_cuts(face, facets)}, k - 1
    return tuple(sorted(found, key=lambda f: (f._dim, f.rays)))


def _maximal_cuts(face: int, facets: list[int]) -> list[int]:
    """The maximal proper intersections of a face's mask with the facets'
    masks: the masks of the face's facets."""
    maximal = []  # larger cuts first: a cut held by none of these is maximal
    for cut in sorted({face & g for g in facets} - {face}, key=int.bit_count, reverse=True):
        if all(cut & m != cut for m in maximal):
            maximal.append(cut)
    return maximal


def _triangulate(rays: tuple[Vector, ...], n: int, normals=None) -> list[tuple[Vector, ...]]:
    """Split a pointed cone into simplicial subcones on subsets of its rays.

    Stellar recursion by canonical ray order: cone off the first ray over the
    triangulated facets not containing it.  The pieces cover the cone and meet
    in common faces, which is all the Hilbert basis candidates need.  The
    facet normals are read from the dual unless given.
    """
    if len(rays) == mat_rank(rays):
        return [rays]
    if normals is None:
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


def _simplex(rows: tuple[Vector, ...]) -> tuple[int, list[list[int]]] | None:
    """(det G, adj G) = (s, s G^-1) for the d x d matrix G with the given
    rows, s = det G; None if G is singular.

    For d <= 3 both come from the cofactor formulas.  Otherwise one
    elimination of [G | I] reduces it to [p I | p G^-1] with p = +-det G,
    and the row-permutation sign it returns fixes the sign of both.  It is
    not cached: a cone's dual is kept by :func:`_dual_pair` and its Hilbert
    basis by :func:`hilbert_basis` or its monoid, so each takes it once.
    """
    d = len(rows)
    if d == 3:
        (a, b, c), (e, f, g), (h, i, j) = rows
        adj = [[f * j - g * i, c * i - b * j, b * g - c * f],
               [g * h - e * j, a * j - c * h, c * e - a * g],
               [e * i - f * h, b * h - a * i, a * f - b * e]]
        s = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    elif d == 2:
        (a, b), (c, e) = rows
        s, adj = a * e - b * c, [[e, -b], [-c, a]]
    elif d < 2:
        s, adj = (rows[0][0], [[1]]) if d else (1, [])
    else:
        m = _with_identity(rows)
        pivots, p, sign = _eliminate(m, d)
        if len(pivots) < d:
            return None
        s, adj = sign * p, [row[d:] if sign > 0 else [-x for x in row[d:]] for row in m]
    return (s, adj) if s else None


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
        raise BudgetExceeded(f"Hilbert basis of {cone}: {exc}", exc.size) from None


def _basis(cone: Cone, normals=None) -> tuple[Vector, ...]:
    """:func:`hilbert_basis` of ``cone``, given, when known, its sorted facet
    normals; a cone on n independent rays in Z^n takes the :func:`_simplex`
    of the matrix with its rays as columns."""
    if not cone.is_pointed:
        raise NotPointed("Hilbert bases require lineality to be split off first")
    if not cone.rays:
        return ()
    n = cone.ambient_dim
    if n == 2 == len(cone.rays):  # two rays of a pointed cone in Z^2 span it
        return _plane_basis(*cone.rays)
    if len(cone.rays) == n and (simplex := _simplex(tuple(zip(*cone.rays)))) is not None:
        return _simplicial_basis(cone.rays, *simplex)
    d = cone.dim
    if d < n:
        # rest, a basis of span ∩ Z^n, maps Z^d onto it, and chart, with
        # chart @ rest^T = I, reads it back; the rays' images are primitive,
        # distinct and extremal
        rest = _unit_transform(kernel_basis(cone.rays, n), n)[2]
        chart = _unit_transform(rest, n)[1]
        inner = _basis(_trusted(d, tuple(sorted(mat_vec(chart, r) for r in cone.rays)), dim=d))
        lift = tuple(zip(*rest))
        return tuple(sorted(mat_vec(lift, h) for h in inner))
    return _triangulated_basis(cone, normals)


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


def _triangulated_basis(cone: Cone, normals: tuple[Vector, ...] | None = None) -> tuple[Vector, ...]:
    """Hilbert basis of a full-dimensional pointed cone from a triangulation.

    Candidates are the rays plus the fundamental-parallelepiped points of
    each simplicial piece; the irreducibles always appear among them.  A
    piece's parallelepiped holds |det| points, and BudgetExceeded is raised
    before any is listed when their sum exceeds the enumeration budget.

    Each candidate h is kept as its values N h on the facet normals, the
    given ``normals`` or :func:`facet_normals`, which grade it: they span,
    so h -> N h is injective.  A point G f / D of a piece G (f from
    :func:`_cosets`) has the values W f / D, where the columns of W = N G
    are the values of the piece's rays, and the division is exact.  Only
    the irreducibles are read back to Z^n, by one elimination of [N | I]:
    it leaves n pivot rows [d e_k | T_k], so T_k N = d e_k and h_k is
    T_k (N h) / d.
    """
    n = cone.ambient_dim
    normals = normals or facet_normals(cone)
    pieces = _triangulate(cone.rays, n, normals)
    simplices = [_simplex(tuple(zip(*piece))) for piece in pieces]
    # one candidate per lattice point of each piece's parallelepiped
    check_budget(sum(abs(s) for s, _ in simplices), "parallelepiped points")
    values = {r: tuple([sum(map(mul, u, r)) for u in normals]) for r in cone.rays}
    candidates = set(values.values())
    for piece, (s, inverse) in zip(pieces, simplices):
        volume = abs(s)
        weights = list(zip(*map(values.__getitem__, piece)))
        candidates.update(
            tuple([sum(map(mul, w, f)) // volume for w in weights])
            for f in _cosets(piece, inverse, volume)[1:]  # the first is 0
        )
    irreducibles = _irreducibles([(sum(v), v, v) for v in candidates])
    m = _with_identity(normals)
    d = _eliminate(m, n)[1]
    back = [row[n:] for row in m[:n]]
    return tuple(sorted(tuple([sum(map(mul, t, v)) // d for t in back]) for v in irreducibles))


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
    Like a cone, a fan keeps its hash, in ``_hash``, from its first use, and
    its face records, each built on first read: :meth:`_maximal`'s pass, and
    the full relation, :attr:`face_indices`, which only pair readers build.
    """

    __slots__ = ("ambient_dim", "cones", "_tops", "_relation", "_hash")
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
        self._set(ambient_dim, tuple(sorted(set(cones), key=lambda c: (c.dim, c.rays))), None, None, None)

    def __len__(self) -> int:
        return len(self.cones)

    @property
    def face_indices(self) -> tuple[tuple[int, ...], ...]:
        """Per cone, the ascending indices of its faces that are cones of the
        fan (the cone's own index included), built on first read from
        :meth:`_maximal` and kept: a maximal cone's row, a held simplicial
        cone's submasks, and else its owner's row within its own mask."""
        if self._relation is None:
            _, masks, index, owner, rows, _ = self._maximal()
            object.__setattr__(self, "_relation", tuple(
                rows[i] if i in rows
                else tuple(sorted(index[m] for m in _submasks(mask) if m in index)) if c.is_simplicial
                else tuple(j for j in rows[owner[i]] if masks[j] & mask == masks[j])
                for i, (c, mask) in enumerate(zip(self.cones, masks))))
        return self._relation

    def _maximal(self) -> _Tops:
        """The fan's one pass over its ray masks, kept: a bit per ray
        (``bits``), a mask per cone (``masks``, and ``index`` back).  Read by
        descending dim, a cone is maximal when no maximal cone found so far
        holds its mask, and its face masks are its submasks if it is
        simplicial and its :func:`faces`' otherwise: only a maximal cone is
        walked or dualized.  ``rows`` maps the maximal cones, ascending, to
        their faces' ascending indices, ``owner`` each cone to the last
        maximal cone that holds it (itself if maximal), and ``missing`` a
        cone that misses faces to their masks, a held cone's being its
        owner's within its own mask."""
        if self._tops is not None:
            return self._tops
        cones = self.cones
        bits = {r: 1 << i for i, r in enumerate({r for c in cones for r in c.rays})}
        masks = [sum(map(bits.__getitem__, c.rays)) for c in cones]
        index = {mask: i for i, mask in enumerate(masks)}
        held: dict[int, int] = {}  # each face mask of a maximal cone: the last such cone
        owner, rows, missing = [0] * len(cones), {}, {}
        for i in reversed(range(len(cones))):
            mask = masks[i]
            j = owner[i] = held.get(mask, i)
            if j != i:  # held: its missing faces are its owner's within its mask
                if j in missing and (lost := [m for m in missing[j] if m & mask == m]):
                    missing[i] = lost
                continue
            c = cones[i]
            own = _submasks(mask) if c.is_simplicial else [sum(map(bits.__getitem__, f.rays)) for f in faces(c)]
            for m in own:
                held.setdefault(m, i)
            ids = [index[m] for m in own if m in index]
            rows[i] = tuple(sorted(ids))
            if len(ids) < len(own):
                missing[i] = [m for m in own if m not in index]
        object.__setattr__(self, "_tops", _Tops(bits, masks, index, owner, dict(reversed(rows.items())), missing))
        return self._tops

    def __repr__(self) -> str:
        return f"Fan(dim {self.ambient_dim}, {len(self.cones)} cones)"


_Tops = namedtuple("_Tops", "bits masks index owner rows missing")


@lru_cache(maxsize=None)
def maximal_cones(fan: Fan) -> tuple[int, ...]:
    """Indices of cones that are not a proper face of another cone of the fan."""
    return tuple(fan._maximal().rows)


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


def _submasks(mask: int) -> dict[int, int]:
    """The submasks of ``mask``, 0 then the nonzero ones from ``mask`` down,
    each mapped to its number of bits."""
    subs, sub = {0: 0}, mask
    while sub:
        subs[sub] = sub.bit_count()
        sub = (sub - 1) & mask
    return subs


def _open_pairs(fan: Fan) -> Iterator[tuple[Cone, Cone]]:
    """The pairs of the fan's maximal cones that sign masks do not show to
    meet in a common face.

    The bits and masks are the fan's pass's (:meth:`Fan._maximal`); per
    facet normal u of a maximal cone, from the dual its construction cached
    (:func:`_dual_pair`), the masks of the rays where u > 0 and u = 0, which
    give those of -u, a neighbour's normal.  For a pair (a, b), the normals
    of a positive on no ray of b and the negated normals of b positive on no
    ray of a are >= 0 on a and <= 0 on b; their sum u* vanishes on a ray of
    either cone iff each of them does, that is on the rays in Z, the AND of
    their zero masks.  a ∩ b lies in u*^⊥, so when Z holds the same rays of
    a as of b, a ∩ b is the face they span.  The test is sound, not
    complete: some valid pairs stay open, and every violating pair does.
    """
    tops = fan._maximal()
    if len(tops.rows) < 2:  # no pair, so no dual is taken
        return
    signs, known, every = [], {}, (1 << len(tops.bits)) - 1
    for i in tops.rows:
        c, normals = fan.cones[i], []
        for u in _dual_pair(c.rays, fan.ambient_dim)[0]:
            if u not in known:
                positive = zero = 0
                for r, bit in tops.bits.items():
                    value = sum(map(mul, u, r))  # dot, without its length check
                    if value > 0:
                        positive |= bit
                    elif value == 0:
                        zero |= bit
                known[u], known[tuple([-x for x in u])] = (positive, zero), (every ^ positive ^ zero, zero)
            normals.append(known[u])
        signs.append((c, tops.masks[i], normals))
    for (a, mask_a, normals_a), (b, mask_b, normals_b) in combinations(signs, 2):
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

    The missing faces are named from their masks in the fan's maximal pass
    (:meth:`Fan._maximal`): no cone is walked again, no full relation built.

    Pairs of maximal cones suffice once faces are closed: if A and B meet in
    a common face F, then for faces a of A and b of B, a ∩ F and b ∩ F are
    faces of F, so a ∩ b is a face of both a and b.  Sign masks from one
    dual per maximal cone settle most pairs (:func:`_open_pairs`); a double
    description of the pair (:func:`_separating_faces`) decides the rest.
    """
    tops = fan._maximal()
    violations = [] if 0 in tops.index else ["fan does not contain the zero cone"]
    for i, lost in tops.missing.items():
        rays = fan.cones[i].rays
        violations += (f"face {[r for r in rays if tops.bits[r] & m]} of cone {list(rays)} is missing"
                       for m in lost)
    for a, b in _open_pairs(fan):
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
    raise :class:`BudgetExceeded` before any is built.  The maximal cones are
    closed by :func:`_closure`, as a fan file's are with ``close_faces``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if kind == "torus":
        return Fan(n, (zero_cone(n),))
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if kind == "affine_space":
        check_budget(1 << n, "cones")
        tops = [rays]
    elif kind == "projective_space":
        check_budget((1 << (n + 1)) - 1, "cones")
        tops = combinations(rays + [(-1,) * n], n)
    else:
        raise ValueError(f"unknown standard fan kind: {kind!r}")
    return Fan(n, tuple(_closure(n, [object.__new__(Cone)._canonicalize(n, top) for top in tops])))


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

    The rays are checked here, once: each listed cone is only made canonical
    (``Cone._canonicalize``), without the constructor's checks, and a
    maximal one of full dimension takes one :func:`_simplex`, for the dual
    its facets are later read from.  Closing builds each face once, from its
    ray mask (:func:`_closure`).
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
        cones.append(object.__new__(Cone)._canonicalize(n, [rays[i] for i in indices]))
    if close:
        cones = _closure(n, cones)
    return Fan(n, tuple(cones))


def _closure(n: int, cones: Sequence[Cone]) -> list[Cone]:
    """The faces of ``cones`` in Z^n, each kept once by its ray mask (a bit per
    ray, as met): a simplicial cone's from its submasks, others' :func:`faces`."""
    bits: dict[Vector, int] = {}
    closed: dict[int, Cone] = {}
    for c in cones:
        ray_bits = [(r, bits.setdefault(r, 1 << len(bits))) for r in c.rays]
        if not c.is_simplicial:
            closed.update((sum(map(bits.__getitem__, f.rays)), f) for f in faces(c))
            continue
        for mask, k in _submasks(sum(b for _, b in ray_bits)).items():
            if mask not in closed:
                closed[mask] = _trusted(n, tuple([r for r, b in ray_bits if b & mask]), dim=k)
    return list(closed.values())

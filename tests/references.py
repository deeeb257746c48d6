"""Test-only references: earlier library routines, kept as oracles, and
former library helpers that only the tests call.

Each oracle computed in the library what a shorter routine computes now, and
the tests compare the two.  They use the library's primitives, but none of
the code paths they stand in for.  The determinant and the helpers at the
end (the envelope writer's text joined, a fan's JSON form, disjoint unions,
the Schubert order, identity and composed torified maps) left the library
because no command, demo or library routine used them.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from torified.intlinalg import (
    _eliminate,
    _with_identity,
    dot,
    hnf_rows,
    kernel_basis,
    mat_rank,
    mat_vec,
    primitive,
    row_hermite_transform,
    vec_neg,
)
from torified.cli import _write_json
from torified.errors import ShapeMismatch, ValidationReport
from torified.gadgets import TorifiedMap
from torified.lattice import (
    Cone,
    _extremal_rays,
    _separating_faces,
    _trusted,
    dual_cone,
    faces,
    facet_normals,
    hilbert_basis,
    maximal_cones,
    zero_cone,
)
from torified.monoids import AffineMonoid, _monoid_basis
from torified.torify import Torification, Torus
from torified.lattice import Fan


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


# --- rational and integral solves ----------------------------------------------


def _solve_scaled(cols, target):
    """(y, d) with x = y / d solving sum_i x_i * cols[i] = target, free
    variables set to 0; None if the system is inconsistent."""
    k = len(cols)
    m = [[col[i] for col in cols] + [t] for i, t in enumerate(target)]
    pivots, d, _ = _eliminate(m, k)
    if any(row[k] for row in m[len(pivots):]):
        return None
    y = [0] * k
    for row, c in zip(m, pivots):
        y[c] = row[k]
    return y, d


def solve_columns(cols, target):
    """Solve sum_i x_i * cols[i] = target over Q; None if inconsistent.

    The solution is unique when the columns are linearly independent;
    otherwise each column dependent on earlier ones gets the coefficient 0.
    """
    scaled = _solve_scaled(cols, target)
    if scaled is None:
        return None
    y, d = scaled
    return tuple(Fraction(x, d) for x in y)


def solve_columns_int(cols, target):
    """Integer solution of sum_i x_i * cols[i] = target, or None."""
    scaled = _solve_scaled(cols, target)
    if scaled is None:
        return None
    y, d = scaled
    if any(x % d for x in y):
        return None
    return tuple(x // d for x in y)


def saturation_basis(vectors, n):
    """Basis of span(vectors) ∩ Z^n, computed as the double orthogonal kernel."""
    perp = kernel_basis(vectors, n)
    return kernel_basis(perp, n)


# --- the Hermite reduction by one Euclid step at a time --------------------------


def euclid_hermite(m, ncols, inv=None):
    """``intlinalg._hermite`` before unit pivots cleared a column in one pass:
    every step re-scans the column and reduces its second smallest nonzero
    entry by the smallest (by absolute value, then by row)."""
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if m[i][c]]
            if len(nz) <= 1:
                break
            i1, i2 = sorted(nz, key=lambda i: abs(m[i][c]))[:2]
            q = m[i2][c] // m[i1][c]
            m[i2] = [a - q * b for a, b in zip(m[i2], m[i1])]
            if inv is not None:
                inv[i1] = [a + q * b for a, b in zip(inv[i1], inv[i2])]
        if not nz:
            continue
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        if inv is not None:
            inv[r], inv[i] = inv[i], inv[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            if inv is not None:
                inv[r] = [-a for a in inv[r]]
        row = m[r]
        piv = row[c]
        for i in range(r):
            q = m[i][c] // piv
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], row)]
                if inv is not None:
                    inv[r] = [a + q * b for a, b in zip(inv[r], inv[i])]
        r += 1
    return r


def unit_pivot_hermite(m, ncols, inv=None):
    """``intlinalg._hermite`` before each pivot was found in one scan: every
    Euclid step re-lists the column's nonzero rows and takes the smallest
    entry and the next by ``min``; a +-1 pivot clears its column in one pass."""
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            nz = [i for i in range(r, nrows) if m[i][c]]
            if len(nz) <= 1:
                break
            i1 = min(nz, key=lambda i: abs(m[i][c]))
            p = m[i1][c]
            rest = [i for i in nz if i != i1]
            for i2 in rest if abs(p) == 1 else [min(rest, key=lambda i: abs(m[i][c]))]:
                q = m[i2][c] // p
                m[i2] = [a - q * b for a, b in zip(m[i2], m[i1])]
                if inv is not None:
                    inv[i1] = [a + q * b for a, b in zip(inv[i1], inv[i2])]
        if not nz:
            continue
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        if inv is not None:
            inv[r], inv[i] = inv[i], inv[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            if inv is not None:
                inv[r] = [-a for a in inv[r]]
        row = m[r]
        piv = row[c]
        for i in range(r):
            q = m[i][c] // piv
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], row)]
                if inv is not None:
                    inv[r] = [a + q * b for a, b in zip(inv[r], inv[i])]
        r += 1
    return r


# --- determinants and unimodular inverses ----------------------------------------


def det(rows):
    """Determinant of a square integer matrix, by one Bareiss elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    pivots, d, sign = _eliminate(m, n)
    return sign * d if len(pivots) == n else 0


def invert_unimodular(rows):
    """Inverse of a unimodular integer matrix (integral by definition), by
    one Bareiss elimination of [A | I]."""
    n = len(rows)
    m = _with_identity(rows)
    pivots, d, _ = _eliminate(m, n)
    if len(pivots) != n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    # [A | I] is reduced to [d I | d A^-1], and d = 1/d as d is 1 or -1
    return tuple(tuple(d * x for x in row[n:]) for row in m)


# --- duals and faces by subset enumeration --------------------------------------


def all_subsets_dual_pair(generators, n):
    """Dual of cone(generators) by the kernel line of every (d-1)-subset of
    the nonzero generators, d being the dimension of their span, kept when
    it or its negative is nonnegative on all of them."""
    gens = [g for g in generators if any(g)]
    perp = kernel_basis(gens, n)
    lineality = hnf_rows(perp, n)
    if not gens:
        return (), lineality
    rays = set()
    for subset in combinations(gens, n - len(perp) - 1):
        kernel = kernel_basis(list(subset) + perp, n)
        if len(kernel) != 1:
            continue
        for cand in (kernel[0], vec_neg(kernel[0])):
            if all(dot(cand, g) >= 0 for g in gens):
                rays.add(cand)
    return tuple(sorted(rays)), lineality


def facet_subsets_faces(cone):
    """Faces of a pointed cone as the tight sets of all 2^k subsets of its k
    facet normals, deduplicated, in (dim, rays) order."""
    normals = facet_normals(cone)
    seen = {}
    for k in range(len(normals) + 1):
        for subset in combinations(normals, k):
            rays = tuple(r for r in cone.rays if all(dot(u, r) == 0 for u in subset))
            if rays not in seen:
                seen[rays] = Cone(cone.ambient_dim, rays)
    return tuple(sorted(seen.values(), key=lambda c: (c.dim, c.rays)))


def faces_closure(cones):
    """The faces of ``cones``, each once: the union of their :func:`faces`,
    which is how ``fan_from_dict`` closed a fan before it built the faces of
    simplicial cones by ray subsets."""
    return {f for c in cones for f in faces(c)}


def rank_first_cone(n, rays):
    """The rays and dim that ``Cone(n, rays)`` stores, with the rank of the
    rays taken by ``mat_rank``, as the constructor takes it for fewer than n
    rays; InvalidCone where the constructor raises it (primitive rays only)."""
    rays = tuple(sorted(set(rays)))
    rank = mat_rank(rays)
    if rank < len(rays):
        rays = _extremal_rays(rays, (), n)
    return rays, rank


# --- fan validation by a double description per pair -----------------------------


def all_maximal_pairs_validate_fan(fan):
    """The fan's ValidationReport with every pair of maximal cones decided
    by its own double description (:func:`_separating_faces`)."""
    violations = []
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
    return ValidationReport(tuple(sorted(set(violations))))


# --- binomial relations among a monoid's generators ---------------------------
# (no library code reads them; the tests check hom enumeration against them)


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


def discover_relations(monoid: AffineMonoid) -> list[BinomialRelation]:
    """Generating relations among all generators (pointed ones plus both signs
    of the units): the canonical (Hermite) basis of the full integer kernel of
    the matrix whose columns are the generators."""
    gens = monoid.all_generators()
    if not gens:
        return []
    rows = [tuple(g[i] for g in gens) for i in range(monoid.ambient_rank)]
    basis = hnf_rows(kernel_basis(rows, len(gens)), len(gens))
    return [BinomialRelation(b) for b in basis]


# --- arithmetic of mu_m with zero ----------------------------------------------
# (elements -1 for the zero and exponents 0..m-1, as CyclicMonoidWithZero lists them)


def mu_zero_mul(m, a, b):
    """Product in mu_m with zero: exponents add mod m, and the zero absorbs."""
    if a == -1 or b == -1:
        return -1
    return (a + b) % m


def mu_zero_power(m, a, k):
    """a^k in mu_m with zero; a^0 is the identity, exponent 0."""
    if k == 0:
        return 0
    if a == -1:
        return -1
    return (a * k) % m


# --- smoothness by minors ------------------------------------------------------


def minors_gcd(rows, k):
    """gcd of all k x k minors of an integer matrix."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nrows), k):
        for ci in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det(sub)))
            if g == 1:
                return 1
    return g


def minors_is_smooth(rays):
    """True iff the rays extend to a lattice basis: they are independent and
    the gcd of their maximal minors is 1."""
    k = len(rays)
    if not k:
        return True
    return mat_rank(rays) == k and minors_gcd(rays, k) == 1


# --- the monoid of a cone in three branches --------------------------------------


def three_branch_monoid_of_cone(cone):
    """The monoid of dual lattice points nonnegative on the cone: no rays,
    no units, or a quotient by the units through a validated ``Cone``."""
    n = cone.ambient_dim
    dual = dual_cone(cone)
    units = dual.lineality
    if not dual.rays:
        gens = ()
    elif not units:
        gens = hilbert_basis(dual)
    else:
        r = len(units)
        columns = [[units[j][i] for j in range(r)] for i in range(n)]
        h, u, _ = row_hermite_transform(columns)
        piv_prod = 1
        for i in range(r):
            piv_prod *= h[i][i]
        assert abs(piv_prod) == 1, "unit basis must be saturated"
        u_inv = invert_unimodular(u)
        images = tuple(sorted({primitive(tuple(mat_vec(u, ray)[r:])) for ray in dual.rays}))
        inner = hilbert_basis(Cone(n - r, images))
        gens = tuple(sorted(mat_vec(u_inv, (0,) * r + tuple(z)) for z in inner))
    return AffineMonoid(n, gens, units, cone)


def monoid_via_dual(cone):
    """The monoid of dual lattice points nonnegative on the cone, from the
    dual cone in Z^n: its pointed part's Hilbert basis when it has no
    lineality, else the Hilbert basis of its rays' primitive images modulo
    the units, lifted through the section of their Hermite transform."""
    n = cone.ambient_dim
    dual = dual_cone(cone)
    units = dual.lineality
    if not units:
        gens = _monoid_basis(dual, cone)
    else:
        r = len(units)
        h, u, _ = row_hermite_transform(list(zip(*units)))
        assert all(h[i][i] == 1 for i in range(r)), "unit basis must be saturated"
        images = tuple(sorted(primitive(mat_vec(u, ray)[r:]) for ray in dual.rays))
        inner = _monoid_basis(_trusted(n - r, images), cone)
        u_inv = invert_unimodular(u)
        gens = tuple(sorted(mat_vec(u_inv, (0,) * r + z) for z in inner))
    return AffineMonoid(n, gens, units, cone)


# --- the face relation of a fan by scans -----------------------------------------


def scanned_face_relation(fan):
    """(i, j) for every pair of cones with cone i a face of cone j, i != j,
    by testing each cone against the face set of every other."""
    face_sets = [set(faces(c)) for c in fan.cones]
    return sorted(
        (i, j)
        for j in range(len(fan.cones))
        for i, f in enumerate(fan.cones)
        if i != j and f in face_sets[j]
    )


def scanned_maximal_cones(fan):
    face_sets = [set(faces(c)) for c in fan.cones]
    return tuple(
        i
        for i, c in enumerate(fan.cones)
        if not any(i != j and c in face_sets[j] for j in range(len(fan.cones)))
    )


def scanned_charts(fan):
    index = {c: i for i, c in enumerate(fan.cones)}
    return tuple(
        tuple(sorted(index[f] for f in faces(fan.cones[m])))
        for m in scanned_maximal_cones(fan)
    )


def scanned_regularity(fan):
    """(regular, stars) of the toric torification by the scans."""
    face_sets = [set(faces(c)) for c in fan.cones]
    stars = []
    regular = True
    for c in fan.cones:
        star = tuple(j for j in range(len(fan.cones)) if c in face_sets[j])
        for j in star:
            for k in range(len(fan.cones)):
                if fan.cones[j] in face_sets[k] and k not in star:
                    regular = False
        stars.append(star)
    return regular, tuple(stars)


def binomial_to_delta_basis(mono):
    """to_delta_basis as the binomial sums delta_k = sum_{l>=k} C(l,k) mono_l."""
    d = len(mono) - 1
    return tuple(sum(comb(l, k) * mono[l] for l in range(k, d + 1)) for k in range(d + 1))


def binomial_to_monomial_basis(delta):
    """to_monomial_basis as the binomial sums
    a_l = sum_{k>=l} (-1)^(k-l) C(k,l) delta_k."""
    d = len(delta) - 1
    return tuple(
        sum((-1) ** (k - l) * comb(k, l) * delta[k] for k in range(l, d + 1))
        for l in range(d + 1)
    )


def q_pascal_gaussian(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q by the q-Pascal
    rule [m choose j]_q = [m-1 choose j-1]_q + q^j [m-1 choose j]_q, one table
    row per m: the library's rule before the product formula."""
    row = [[1]] + [[] for _ in range(k)]  # m = 0; [] is zero
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):  # downwards, so row[j - 1] is still m - 1
            low, high = row[j - 1], [0] * j + row[j] if row[j] else []
            if len(low) < len(high):
                low, high = high, low
            row[j] = [x + (high[i] if i < len(high) else 0) for i, x in enumerate(low)]
    return row[k]


# --- products of torifications, torus by torus -------------------------------------


def flat_product(a, b):
    """Pairwise products of tori, a's major, as one Torus per pair: ranks
    add and labels join as ``s*t``.  Charts survive when both have them."""
    tori = tuple(Torus(s.rank + t.rank, f"{s.label}*{t.label}") for s in a.tori for t in b.tori)
    charts = None
    if a.charts is not None and b.charts is not None:
        nb = len(b.tori)
        charts = tuple(
            tuple(sorted(i * nb + j for i in ca for j in cb)) for ca in a.charts for cb in b.charts
        )
    return Torification(tori, charts)


def affine_cell_runs(m):
    """The run table of the tori of A^m, written from the coordinate subsets:
    for each rank r, the labels ``axes:i,j,...`` of the r-subsets of 1..m,
    sorted as strings (from m = 10 on, ``axes:1,10`` sorts before
    ``axes:1,2``)."""
    return tuple(
        (r, tuple(sorted("axes:" + ",".join(map(str, c)) for c in combinations(range(1, m + 1), r))))
        for r in range(m + 1)
    )


def counts_by_index(t, group):
    """|D|^rank for each torus in order: the points of the group-side
    functor torus by torus, which the library sums by rank from the delta
    vector instead."""
    return tuple(group.order**rank for rank in t.ranks())


# --- helpers that only the tests call ------------------------------------------


def dumps(obj) -> str:
    """The text ``cli._write_json`` writes for ``obj``, joined."""
    pieces: list[str] = []
    _write_json(obj, pieces.append)
    return "".join(pieces)


def fan_to_dict(fan: Fan) -> dict:
    """The JSON interchange form that ``fan_from_dict`` reads."""
    ray_index: dict = {}
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


def disjoint_union(parts) -> Torification:
    """Concatenation of the parts' parts; charts survive only when every
    part carries them."""
    charts: list[tuple[int, ...]] = []
    have_charts = all(p.charts is not None for p in parts)
    offset = 0
    for p in parts:
        if have_charts:
            charts.extend(tuple(sorted(i + offset for i in chart)) for chart in p.charts)
        offset += len(p)
    return Torification.from_parts(
        (part for p in parts for part in p.parts), tuple(charts) if have_charts else None
    )


def schubert_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise partial order on multi-indices."""
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


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

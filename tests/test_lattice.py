"""Cone and fan geometry, checked against independent brute-force oracles.

The oracles here recompute everything by elementary means: 2D duals by
rotating rays a quarter turn, faces by sweeping candidate supporting
functionals over an integer box, cone membership by solving for nonnegative
coordinates directly.
"""

import json
import math
import os
import pickle
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CONE_CORPUS, clear_caches
from references import (
    all_maximal_pairs_validate_fan,
    all_subsets_dual_pair,
    det,
    det_adjugate,
    facet_subsets_faces,
    faces_closure,
    fan_to_dict,
    gale_faces,
    hermite_transform,
    minors_is_smooth,
    parallelepiped_points,
    rank_first_cone,
    saturation_basis,
    scanned_face_relation,
    scanned_maximal_cones,
    solve_columns,
    solve_columns_int,
    vec_sub,
)

from torified import lattice
from torified.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidCone,
    NotPointed,
)
from torified.intlinalg import (
    dot,
    mat_rank,
    mat_vec,
    primitive,
    vec_neg,
)
from torified.lattice import (
    Cone,
    Fan,
    _dual_pair,
    _open_pairs,
    _plane_basis,
    _separating_faces,
    _simplex,
    _triangulate,
    _triangulated_basis,
    dual_cone,
    faces,
    facet_normals,
    fan_from_dict,
    hilbert_basis,
    maximal_cones,
    standard_fan,
    validate_fan,
    zero_cone,
)


# --- independent oracles -----------------------------------------------------


def rot90_dual_2d(cone):
    """Dual of a full-dimensional pointed 2D cone by rotating each ray."""
    assert len(cone.rays) == 2
    out = set()
    for me, other in (cone.rays, cone.rays[::-1]):
        a, b = me
        u = (-b, a)
        if dot(u, other) < 0:
            u = (b, -a)
        out.add(u)
    return tuple(sorted(out))


def member_2d(cone, x):
    """Membership via nonnegative coordinates in the two rays."""
    (a, c), (b, d) = cone.rays
    den = a * d - b * c
    alpha = Fraction(x[0] * d - b * x[1], den)
    beta = Fraction(a * x[1] - x[0] * c, den)
    return alpha >= 0 and beta >= 0


def brute_face_count(cone, box=3):
    """Distinct tight ray-sets of supporting functionals from an integer box."""
    raysets = {cone.rays}
    for u in iproduct(range(-box, box + 1), repeat=cone.ambient_dim):
        if all(dot(u, r) >= 0 for r in cone.rays):
            raysets.add(tuple(r for r in cone.rays if dot(u, r) == 0))
    return len(raysets)


# --- construction and invariants ---------------------------------------------


def test_rejects_non_primitive_ray():
    with pytest.raises(InvalidCone):
        Cone(2, ((3, 0),))
    assert hilbert_basis(Cone(2, ((1, 0),))) == ((1, 0),)


def test_rejects_wrong_length_and_lines():
    with pytest.raises(DimensionMismatch):
        Cone(2, ((1, 0, 0),))
    with pytest.raises(InvalidCone):
        Cone(1, ((1,), (-1,)))
    with pytest.raises(InvalidCone):
        Cone(2, ((1, 0), (-1, 0), (0, 1)))


def test_drops_redundant_generators():
    # (1,1) is inside the first quadrant
    c = Cone(2, ((1, 0), (1, 1), (0, 1)))
    assert c.rays == ((0, 1), (1, 0))
    assert c == Cone(2, ((0, 1), (1, 0)))
    # the same modulo a line: (1,1,0) lies in the quadrant plus the z-axis
    c = Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 0)), ((0, 0, 1),))
    assert c.rays == ((0, 1, 0), (1, 0, 0))
    # the cone over a square plus a line, given its centre and an edge's midpoint
    square = ((1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0))
    c = Cone(4, square + ((2, 1, 1, 0), (2, 1, 0, 0)), ((0, 0, 0, 1),))
    assert c.rays == square


def test_line_is_found_before_redundant_rays_are_dropped():
    # all of R^2: dropping the rays inside the cone on the others first
    # would leave a pointed remainder
    with pytest.raises(InvalidCone, match=r"\(-1, 0\), \(0, -1\), \(0, 1\), \(1, 0\), \(1, 1\)"):
        Cone(2, ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)))
    # (1,-1) + (-1,1) = 0: a line, though (1,2) is the only extremal candidate
    with pytest.raises(InvalidCone):
        Cone(2, ((-2, -1), (-1, -2), (1, 2), (1, -1), (-1, 1), (-1, 0), (-1, -3)))


def generators_contain(gens, v, n):
    normals, perp = _dual_pair(tuple(gens), n)
    return all(dot(u, v) >= 0 for u in normals) and all(dot(k, v) == 0 for k in perp)


def drop_non_extremal(rays, n):
    """The rays not in the cone on the others (reference: one dual per ray;
    exact for pointed cones)."""
    if len(rays) <= 1:
        return rays
    return tuple(
        r for i, r in enumerate(rays) if not generators_contain(rays[:i] + rays[i + 1 :], r, n)
    )


@st.composite
def rays_with_planted_functional(draw, min_dim=1, max_dim=5):
    """Up to n+3 primitive rays in Z^n (min_dim <= n <= max_dim), all
    positive on a drawn functional w: the cone on them contains no line."""
    n = draw(st.integers(min_dim, max_dim))
    w = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    ray = (
        st.tuples(*[st.integers(-3, 3)] * n)
        .filter(lambda v: dot(w, v) > 0)
        .map(primitive)
    )
    return n, tuple(draw(st.lists(ray, min_size=1, max_size=n + 3)))


@st.composite
def rays_with_planted_relation(draw):
    """Primitive rays in Z^n (n <= 5) with a positive relation: the drawn
    rays and the primitive direction of minus a positive combination of them.
    The cone on them contains the line through each of them."""
    n = draw(st.integers(1, 5))
    ray = st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(primitive)
    rays = draw(st.lists(ray, min_size=1, max_size=n + 2))
    coeffs = draw(st.lists(st.integers(1, 3), min_size=len(rays), max_size=len(rays)))
    closing = tuple(-sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(n))
    assume(any(closing))
    return n, tuple(draw(st.permutations(rays + [primitive(closing)])))


@settings(max_examples=150)
@given(rays_with_planted_functional())
@example((2, ((1, 0), (1, 1), (0, 1))))
@example((3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2))))
def test_cone_keeps_the_extremal_rays_of_a_pointed_cone(case):
    n, rays = case
    assert Cone(n, rays).rays == drop_non_extremal(tuple(sorted(set(rays))), n)


@settings(max_examples=150)
@given(rays_with_planted_relation())
def test_cone_refuses_rays_with_a_positive_relation(case):
    n, rays = case
    with pytest.raises(InvalidCone, match="not strictly convex"):
        Cone(n, rays)


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_dim_is_rank_of_generators_computed_once(cone, monkeypatch):
    calls = []
    monkeypatch.setattr(lattice, "mat_rank", lambda rows: calls.append(rows) or mat_rank(rows))
    for c in (cone, dual_cone(cone)):  # the duals of lower-dim cones carry lineality
        fresh = Cone(c.ambient_dim, c.rays, c.lineality)
        trusted = lattice._trusted(c.ambient_dim, c.rays, c.lineality, dim=c.dim)
        calls.clear()
        # the constructor keeps the rank it computed, and a cone made without
        # the constructor is given it: no read computes a rank
        assert fresh.dim == fresh.dim == mat_rank(c.rays + c.lineality)
        assert trusted.dim == trusted.dim == fresh.dim
        assert calls == []
        # the dim is not a field: equality and hashing ignore it
        assert fresh == trusted == Cone(c.ambient_dim, c.rays, c.lineality)
        assert hash(fresh) == hash(trusted) == hash(Cone(c.ambient_dim, c.rays, c.lineality))


@st.composite
def at_least_n_rays(draw):
    """n to n + 3 distinct primitive rays in Z^n (1 <= n <= 5), moved by a
    drawn unimodular map: positive on a planted functional, or in a
    hyperplane (dependent, so pruned or refused), or closed by a positive
    relation (not pointed)."""
    kind = draw(st.sampled_from(["pointed", "hyperplane", "line"]))
    n = draw(st.integers(2 if kind == "hyperplane" else 1, 5))
    d = n - 1 if kind == "hyperplane" else n
    w = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    vector = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    if kind != "line":
        vector = vector.filter(lambda v: dot(w, v) > 0)
    rays = draw(st.lists(vector.map(primitive), min_size=n, max_size=n + 3, unique=True))
    if kind == "line":
        coeffs = draw(st.lists(st.integers(1, 3), min_size=len(rays), max_size=len(rays)))
        closing = tuple(-sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(n))
        assume(any(closing) and primitive(closing) not in rays)
        rays.append(primitive(closing))
    a = draw(unimodular(n))
    return n, tuple(mat_vec(a, r + (0,) * (n - d)) for r in rays)


@settings(max_examples=200)
@given(at_least_n_rays())
@example((3, ((1, 0, 0), (0, 1, 0), (1, 1, 0))))  # dependent: (1, 1, 0) is pruned
@example((3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0))))  # a plane: not strictly convex
@example((2, ((1, 0), (-1, 0))))  # a line and no more
@example((1, ((1,), (-1,))))
def test_the_rank_from_the_dual_is_the_rank_of_the_rays(case):
    # with at least n rays and no lineality the constructor reads the rank
    # from the dual; by mat_rank it keeps the same rays and dim, and both
    # refuse the same ray sets
    n, rays = case
    assert len(set(rays)) >= n
    try:
        expected = rank_first_cone(n, rays)
    except InvalidCone:
        with pytest.raises(InvalidCone, match="not strictly convex"):
            Cone(n, rays)
        return
    cone = Cone(n, rays)
    assert (cone.rays, cone.dim) == expected
    # the hash, kept from its first use, is that of the field tuple, for a
    # cone from each constructor
    made = [cone, lattice._trusted(n, cone.rays, dim=cone.dim), dual_cone(cone)]
    made += [*faces(cone), pickle.loads(pickle.dumps(cone))]
    for c in made:
        assert hash(c) == hash(c) == c._hash == hash((c.ambient_dim, c.rays, c.lineality))
    assert lattice._trusted(n, cone.rays, dim=cone.dim)._hash is None


@pytest.mark.parametrize("cone", [c for c in CONE_CORPUS if len(c.rays) < c.ambient_dim], ids=str)
def test_a_cone_on_fewer_than_n_rays_takes_its_rank_without_a_dual(cone, monkeypatch):
    # its dual would cost a kernel that nothing reads
    def refuse(*args):
        raise AssertionError("the constructor took a dual")

    monkeypatch.setattr(lattice, "_dual_pair", refuse)
    assert Cone(cone.ambient_dim, cone.rays).dim == len(cone.rays)


def test_zero_cone_properties():
    z = zero_cone(2)
    assert z.dim == 0 and z.is_pointed
    assert faces(z) == (z,)
    assert minors_is_smooth(z.rays)
    d = dual_cone(z)
    assert d.rays == () and d.lineality == ((1, 0), (0, 1))


# --- dual cones ----------------------------------------------------------------


def test_dual_examples_from_rotation_oracle():
    c = Cone(2, ((1, 0), (1, 2)))
    assert dual_cone(c).rays == ((0, 1), (2, -1))
    assert dual_cone(c).rays == rot90_dual_2d(c)
    first_orthant = Cone(2, ((1, 0), (0, 1)))
    assert dual_cone(first_orthant).rays == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "cone",
    [c for c in CONE_CORPUS if c.ambient_dim == 2 and len(c.rays) == 2],
    ids=str,
)
def test_dual_2d_against_rotation_and_grid(cone):
    d = dual_cone(cone)
    assert d.lineality == ()
    assert d.rays == rot90_dual_2d(cone)
    # grid sweep: the dual inequalities carve out exactly the cone
    for x in iproduct(range(-4, 5), repeat=2):
        by_dual = all(dot(u, x) >= 0 for u in d.rays)
        assert by_dual == member_2d(cone, x), x


def test_dual_of_non_full_dimensional_cone_has_lineality():
    d = dual_cone(Cone(2, ((1, 1),)))
    assert d.rays == ((1, 1),)
    assert d.lineality == ((1, -1),)
    # the described set is the halfplane x1 + x2 >= 0: membership in
    # cone(rays) + span(lineality) solved by hand
    for x in iproduct(range(-3, 4), repeat=2):
        a = Fraction(x[0] + x[1], 2)  # coefficient of (1, 1)
        assert (a >= 0) == (x[0] + x[1] >= 0)


@pytest.mark.parametrize(
    "cone",
    [c for c in CONE_CORPUS if c.dim == c.ambient_dim],
    ids=str,
)
def test_double_dual_identity(cone):
    double = dual_cone(dual_cone(cone))
    assert double == cone
    # and literally by double inclusion of the ray sets
    assert all(cone.contains(r) for r in double.rays)
    assert all(double.contains(r) for r in cone.rays)


def assert_constructor_agrees(cone):
    """``cone`` holds what ``Cone`` stores for its own fields."""
    again = Cone(cone.ambient_dim, cone.rays, cone.lineality)
    assert (cone.ambient_dim, cone.rays, cone.lineality, cone.dim) == (
        again.ambient_dim, again.rays, again.lineality, again.dim
    )
    assert cone == again and hash(cone) == hash(again)


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_dual_is_what_the_constructor_would_store(cone):
    assert_constructor_agrees(dual_cone(cone))


@settings(max_examples=100)
@given(rays_with_planted_functional())
def test_dual_of_random_cone_is_what_the_constructor_would_store(case):
    n, rays = case
    assert_constructor_agrees(dual_cone(Cone(n, rays)))


@settings(max_examples=100)
@given(rays_with_planted_functional())
@example((3, ((1, 0, 0),)))  # a ray: its dual is a half-space, with a plane of lineality
@example((4, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0))))
def test_a_dual_is_built_with_its_dim(case):
    # a pointed cone's dual is full-dimensional, and the dual of that dual,
    # whose lineality is the cone's perp, has the cone's dim: each is given
    # its dim, n less the rank of the lineality it is the dual of
    cone = Cone(*case)
    for dual in (dual_cone(cone), dual_cone(dual_cone(cone))):
        assert dual._dim == mat_rank(dual.rays + dual.lineality)
    assert dual_cone(dual_cone(cone))._dim == cone.dim


@st.composite
def generators_with_pairs(draw):
    """Up to eight vectors in Z^n (n <= 6), some of them with their negatives."""
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    gens = draw(st.lists(vector, min_size=1, max_size=8))
    paired = draw(st.lists(st.sampled_from(gens), max_size=3))
    gens += [vec_neg(g) for g in paired]
    return tuple(draw(st.permutations(gens)))


@settings(max_examples=200)
@given(generators_with_pairs())
@example(())  # the empty set
@example(((1, 0), (-1, 0)))  # a line
@example(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))  # a plane
@example(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 1)))  # a half-space
@example(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, 0)))
@example(tuple((1, i, i * i, i**3, i**4) for i in range(7)))  # a cyclic 4-polytope
@example(((1, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0),
          (0, 1, 0, 0, 1, 0), (0, 1, 1, 1, 1, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, -1)))
@example(((1, 2, 0), (0, 1, 0), (3, 1, 1)))  # a unimodular basis
@example(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (2, -3, 5, 7)))  # a basis of determinant 7
@example(((1, 2, 0, -1), (0, 3, 1, 1)))  # two independent vectors in Z^4
@example(((1, 0, 1), (0, 1, 1), (1, -1, 0)))  # n vectors of rank n - 1
# moment curves, where many cuts test many pairs for adjacency
@example(tuple((1, t, t * t, t**3, t**4) for t in range(-6, 6)))  # 12 points in Z^5
@example(tuple((1, t, t * t, t**3) for t in range(-10, 10)))  # 20 points in Z^4
def test_dual_pair_agrees_with_all_subsets(gens):
    n = len(gens[0]) if gens else 3
    assert _dual_pair(gens, n) == all_subsets_dual_pair(gens, n)


# --- faces ---------------------------------------------------------------------


def test_faces_examples():
    quad = Cone(2, ((1, 0), (0, 1)))
    fs = faces(quad)
    assert len(fs) == 4
    assert {f.rays for f in fs} == {(), ((1, 0),), ((0, 1),), ((0, 1), (1, 0))}
    assert faces(zero_cone(2)) == (zero_cone(2),)
    oct3 = Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(faces(oct3)) == 8
    assert brute_face_count(oct3) == 8


@settings(max_examples=200)
@given(rays_with_planted_functional(2, 6))
@example((3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))))
@example((6, tuple((1, i, i * i, i**3, i**4, 0) for i in range(7))))  # lower-dimensional
def test_faces_of_random_pointed_cones(case):
    cone = Cone(*case)
    fs = faces(cone)
    # the subset reference is 2^k in the k facets: compare where it runs
    if len(facet_normals(cone)) <= 12:
        assert fs == facet_subsets_faces(cone)
    assert fs[0] == zero_cone(cone.ambient_dim) and fs[-1] == cone
    # Euler: sum over the faces of (-1)^dim vanishes for a pointed cone of dim >= 1
    assert sum((-1) ** f.dim for f in fs) == 0
    assert dual_cone(dual_cone(cone)) == cone


@contextmanager
def time_limit(seconds):
    """Fail the block with TimeoutError once it has run ``seconds`` seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (3, 18, 2 * 18 + 2),  # the cone over an 18-gon: k rays, k 2-faces
        (4, 12, 6 * 12 - 8),  # the cone over a cyclic 3-polytope: k, 3k-6, 2k-4
        # over cyclic 4- and 5-polytopes: f = (k, C(k, 2), k(k-3), k(k-3)/2)
        # and (k, C(k, 2), 1252, 1500, 600) at k = 28
        (5, 24, 2 + 24 + math.comb(24, 2) + 3 * 24 * 21 // 2),
        (6, 28, 2 + 28 + math.comb(28, 2) + 1252 + 1500 + 600),
    ],
)
def test_faces_of_cones_with_many_rays(n, k, expected):
    # rays (1, i, ..., i^(n-1)) on the moment curve: every one is extremal.
    # Each took seconds to a minute when faces and duals enumerated subsets.
    # Face by face, the rays and dim of each are those of Gale's evenness
    # condition
    rays = [tuple(i**e for e in range(n)) for i in range(k)]
    with time_limit(5):
        cone = Cone(n, rays)
        fs = faces(cone)
    assert cone.rays == tuple(rays)
    oracle = gale_faces(n, k)
    assert len(fs) == len(oracle) == expected
    assert [(f.dim, f.rays) for f in fs] == [(d, tuple(rays[i] for i in s)) for d, s in oracle]
    assert sum((-1) ** f.dim for f in fs) == 0


def test_dual_of_a_cone_with_many_rays():
    # the cone over the cyclic 5-polytope on 28 points of the moment curve:
    # 2 C(k-3, 2) facets.  Kernel lines of its 5-subsets took over 7 s.
    k = 28
    with time_limit(5):
        cone = Cone(6, tuple(tuple(i**e for e in range(6)) for i in range(k)))
        normals = facet_normals(cone)
    assert len(cone.rays) == k
    assert len(normals) == 2 * math.comb(k - 3, 2)
    # each facet normal is tight on five rays and positive on the others
    assert all(sum(dot(u, r) == 0 for r in cone.rays) == 5 for u in normals)
    assert all(dot(u, r) >= 0 for u in normals for r in cone.rays)


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_face_counts_against_box_oracle(cone):
    assert len(faces(cone)) == brute_face_count(cone)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplicial_face_count_is_2_to_n(n):
    c = Cone(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    assert len(faces(c)) == 2**n


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_faces_store_what_the_constructor_would(cone):
    for f in faces(cone):
        assert_constructor_agrees(f)


@settings(max_examples=100)
@given(rays_with_planted_functional(2, 6))
@example((3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))))
@example((5, tuple((1, *v) for v in iproduct((0, 1), repeat=4))))  # squares: 4 rays, dim 3
@example((6, tuple((1, i, i * i, i**3, i**4, 0) for i in range(7))))  # lower-dimensional
def test_faces_are_built_with_their_dim(case):
    # a simplicial cone's faces take their size as their dim, any other's
    # the level of the face walk that finds them, with no rank
    # (test_tight_sets_take_no_rank)
    for f in faces(Cone(*case)):
        assert f._dim == mat_rank(f.rays)


def test_faces_require_pointed():
    with pytest.raises(NotPointed):
        faces(dual_cone(Cone(2, ((1, 1),))))


# --- Hilbert bases ---------------------------------------------------------------


def brute_hilbert_2d(cone, box=8):
    """Irreducible monoid elements inside a box, by pairwise subtraction."""
    pts = [
        x
        for x in iproduct(range(-box, box + 1), repeat=2)
        if any(x) and member_2d(cone, x)
    ]
    out = []
    for h in pts:
        diffs = (
            (h[0] - c[0], h[1] - c[1])
            for c in pts
            if c != h
        )
        if not any(any(d) and member_2d(cone, d) for d in diffs):
            out.append(h)
    return tuple(sorted(out))


def test_hilbert_examples():
    assert hilbert_basis(Cone(2, ((0, 1), (2, -1)))) == ((0, 1), (1, 0), (2, -1))
    assert hilbert_basis(Cone(2, ((1, 0), (0, 1)))) == ((0, 1), (1, 0))
    assert hilbert_basis(Cone(1, ((1,),))) == ((1,),)


@pytest.mark.parametrize(
    "cone",
    [c for c in CONE_CORPUS if c.ambient_dim == 2 and len(c.rays) == 2],
    ids=str,
)
def test_hilbert_2d_against_brute_force(cone):
    assert hilbert_basis(cone) == brute_hilbert_2d(cone)


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_hilbert_properties(cone):
    hb = hilbert_basis(cone)
    # every basis element is in the cone and pairs >= 0 with the dual rays
    d = dual_cone(cone)
    for h in hb:
        assert all(dot(u, h) >= 0 for u in d.rays)
        assert cone.contains(h)
    # minimality: no element is the sum of two others (or of one twice)
    hb_set = set(hb)
    for h in hb:
        for a in hb:
            b = tuple(x - y for x, y in zip(h, a))
            if any(b) and b in hb_set:
                raise AssertionError(f"{h} = {a} + {b} is reducible")
    # rays always appear
    assert set(cone.rays) <= hb_set


def test_hilbert_dual_membership_pairing():
    # elements of the dual's Hilbert basis pair nonnegatively with the rays
    for cone in CONE_CORPUS:
        if cone.dim != cone.ambient_dim:
            continue
        for u in hilbert_basis(dual_cone(cone)):
            assert all(dot(u, v) >= 0 for v in cone.rays)


def bounding_box_points(gens):
    """Lattice points of the half-open parallelepiped on independent gens, by
    scanning the bounding box of its vertices with one rational solve each."""
    d = len(gens)
    vertices = [
        tuple(sum(gens[i][j] for i in subset) for j in range(d))
        for k in range(d + 1)
        for subset in combinations(range(d), k)
    ]
    box = [range(min(v[j] for v in vertices), max(v[j] for v in vertices) + 1) for j in range(d)]
    points = set()
    for x in iproduct(*box):
        lam = solve_columns(gens, x)
        if lam is not None and all(0 <= l < 1 for l in lam):
            points.add(x)
    return points


def box_size(gens):
    d = len(gens)
    return math.prod(sum(abs(g[j]) for g in gens) + 1 for j in range(d))


@st.composite
def parallelepiped_generators(draw):
    """d <= 4 independent generators with |det| <= 60: the rows of a triangular
    matrix, moved by elementary row operations (a negated row flips the sign
    of the determinant).  Half of the draws are unimodular."""
    d = draw(st.integers(1, 4))
    unimodular = draw(st.booleans())
    rows, volume = [], 1
    for i in range(d):
        h = 1 if unimodular else draw(st.integers(1, 60 // volume))
        volume *= h
        rows.append([0] * i + [h] + [draw(st.integers(-2, 2)) for _ in range(d - i - 1)])
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            f = draw(st.sampled_from((-1, 1)))
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
    gens = tuple(tuple(r) for r in rows)
    assume(box_size(gens) <= 4000)
    return gens


@settings(max_examples=150)
@given(parallelepiped_generators())
@example(((1,),))
@example(((-3,),))
@example(((0, 1), (1, 0)))  # det -1
@example(((2, 1), (1, -1)))  # det -3
@example(((1, 0, 0), (0, 1, 0), (1, 1, -7)))  # det -7
def test_parallelepiped_points_against_bounding_box(gens):
    points = parallelepiped_points(gens, *_simplex(tuple(zip(*gens))))
    assert points == bounding_box_points(gens)
    assert len(points) == abs(det(gens))


def all_pairs_hilbert_basis(cone):
    """The same candidates, each kept iff no other candidate c leaves h - c in
    the cone (reference: the filter before the graded reduction)."""
    if not cone.rays:
        return ()
    n, d = cone.ambient_dim, cone.dim
    if d < n:
        basis = saturation_basis(cone.rays, n)
        coords = tuple(primitive(solve_columns_int(basis, r)) for r in cone.rays)
        inner = all_pairs_hilbert_basis(Cone(d, coords))
        return tuple(sorted(
            tuple(sum(basis[j][i] * h[j] for j in range(d)) for i in range(n)) for h in inner
        ))
    normals = facet_normals(cone)
    candidates = set(cone.rays)
    for piece in _triangulate(cone.rays, n):
        candidates |= parallelepiped_points(piece, *_simplex(tuple(zip(*piece))))
    candidates.discard((0,) * n)

    def in_cone(x):
        return all(dot(u, x) >= 0 for u in normals)

    return tuple(
        h
        for h in sorted(candidates)
        if not any(c != h and in_cone(vec_sub(h, c)) for c in candidates)
    )


@st.composite
def pointed_cones_of_bounded_volume(draw):
    """Pointed cones in dims 2-4 on up to n+2 rays whose triangulation has
    total volume <= 150."""
    n = draw(st.integers(2, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(primitive)
    rays = draw(st.lists(ray, min_size=1, max_size=n + 2, unique=True))
    try:
        cone = Cone(n, tuple(rays))
    except InvalidCone:
        assume(False)
    if cone.dim == n:
        assume(sum(abs(det(p)) for p in _triangulate(cone.rays, n)) <= 150)
    return cone


@settings(max_examples=120)
@given(pointed_cones_of_bounded_volume())
@example(Cone(2, ((1, 0), (1, 101))))
@example(Cone(2, ((1, 0), (3, 100))))
@example(Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))))
def test_hilbert_basis_agrees_with_all_pairs_filter(cone):
    assert hilbert_basis(cone) == all_pairs_hilbert_basis(cone)


@st.composite
def non_simplicial_full_cones(draw):
    """Full-dimensional cones in Z^3 and Z^4 on more than n extremal rays,
    each ray over a point of [-2, 2]^(n-1) at height 1 or 2, whose
    triangulation has total volume <= 200."""
    n = draw(st.integers(3, 4))
    point = st.tuples(*[st.integers(-2, 2)] * (n - 1), st.integers(1, 2))
    cone = Cone(n, tuple(map(primitive, draw(st.lists(point, min_size=n + 1, max_size=n + 3)))))
    assume(cone.dim == n and not cone.is_simplicial)
    assume(sum(abs(det(p)) for p in _triangulate(cone.rays, n)) <= 200)
    return cone


@settings(max_examples=150, deadline=None)
@given(non_simplicial_full_cones())
@example(Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))))
@example(Cone(4, tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))))
def test_a_triangulated_basis_read_back_from_its_values_agrees_with_all_pairs(cone):
    # the candidates are kept as their values on the facet normals, and the
    # irreducibles read back to Z^n; the budget still counts the pieces'
    # parallelepiped points
    assert hilbert_basis.__wrapped__(cone) == all_pairs_hilbert_basis(cone)
    volume = sum(abs(det(p)) for p in _triangulate(cone.rays, cone.ambient_dim))
    with mock.patch.dict(os.environ, {"TORIFIED_BUDGET": str(volume - 1)}):
        with pytest.raises(BudgetExceeded) as caught:
            hilbert_basis.__wrapped__(cone)
    assert caught.value.size == volume
    with mock.patch.dict(os.environ, {"TORIFIED_BUDGET": str(volume)}):
        assert hilbert_basis.__wrapped__(cone) == all_pairs_hilbert_basis(cone)


@st.composite
def plane_cones(draw):
    """Pointed 2-D cones in Z^2: on two rays with entries in [-30, 30], or thin
    ones, (1,0) and (-k,D) with D <= 10^4, moved by a drawn unimodular map."""
    if draw(st.booleans()):
        ray = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(any).map(primitive)
        a, b = draw(ray), draw(ray)
    else:
        volume = draw(st.integers(1, 10**4))
        k = draw(st.integers(0, volume - 1).filter(lambda k: math.gcd(k, volume) == 1))
        m = draw(unimodular(2))
        a, b = mat_vec(m, (1, 0)), mat_vec(m, (-k, volume))
    assume(det((a, b)) != 0)
    return Cone(2, (a, b))


@settings(max_examples=150)
@given(plane_cones())
@example(Cone(2, ((1, 0), (0, 1))))  # smooth: the basis is the rays
@example(Cone(2, ((1, 0), (1, 5001))))  # one run of 5,000 c_i = 2
@example(Cone(2, ((0, 1), (5001, -1))))  # one c_i = 5001
@example(Cone(2, ((-1, 0), (7, -10**4))))
def test_plane_basis_agrees_with_the_triangulation(cone):
    a, b = cone.rays
    basis = _triangulated_basis(cone)
    assert _plane_basis(a, b) == _plane_basis(b, a) == basis
    assert hilbert_basis(cone) == basis


def hermite_bezout(x, y):
    """The Bezout pair the plane basis took before the extended Euclid
    algorithm: the first row of the transform of the column (x, y)."""
    _, ((p, q), _), _ = hermite_transform([[x], [y]])
    return p, q


@settings(max_examples=150)
@given(plane_cones())
@example(Cone(2, ((1, 0), (0, 1))))
@example(Cone(2, ((0, -1), (1, 0))))  # a_0 = 0: the pair is (0, -1)
@example(Cone(2, ((-7, 3), (2, 5))))
def test_plane_basis_takes_any_bezout_pair(cone):
    # u is fixed by det(a, u) = 1 and 0 <= det(u, b) < D, so the extended
    # Euclid pair gives the basis that the Hermite transform's pair gave
    a, b = cone.rays
    for x, y in (a, b):
        p, q = lattice._bezout(x, y)
        assert p * x + q * y == 1
    basis = _plane_basis(a, b), _plane_basis(b, a)
    with mock.patch.object(lattice, "_bezout", hermite_bezout):
        assert (_plane_basis(a, b), _plane_basis(b, a)) == basis


@settings(max_examples=80)
@given(plane_cones(), st.integers(3, 4), st.data())
def test_plane_basis_of_a_cone_embedded_in_higher_dimension(cone, n, data):
    # the lower-dimensional branch maps the plane onto Z^2 and back
    m = data.draw(unimodular(n))

    def lift(v):
        return mat_vec(m, v + (0,) * (n - 2))

    embedded = Cone(n, tuple(map(lift, cone.rays)))
    assert hilbert_basis(embedded) == tuple(sorted(map(lift, _triangulated_basis(cone))))


@st.composite
def simplicial_cones(draw):
    """Full-dimensional simplicial cones in Z^3 and Z^4: the rows of a
    triangular matrix with determinant <= 300, moved by a drawn unimodular
    map and made primitive (which can only lower the volume)."""
    n = draw(st.integers(3, 4))
    m = draw(unimodular(n))
    rows, volume = [], 1
    for i in range(n):
        h = draw(st.integers(1, 300 // volume))
        volume *= h
        rows.append((0,) * i + (h,) + tuple(draw(st.integers(-3, 3)) for _ in range(n - i - 1)))
    return Cone(n, tuple(primitive(mat_vec(m, r)) for r in rows))


@settings(max_examples=100)
@given(simplicial_cones())
@example(Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))  # smooth: the rays
@example(Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 300))))
@example(Cone(3, ((1, 0, 0), (0, 1, 0), (-1, -1, -300))))  # a negative determinant
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5))))
@example(Cone(4, ((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))))  # Z^4 / L = (Z/2)^2
def test_simplicial_basis_agrees_with_the_triangulation(cone):
    # one elimination of the rays against the parallelepiped and facet
    # normals of the triangulation of a single piece
    assert lattice._basis(cone) == _triangulated_basis(cone)


def test_non_simplicial_cone_in_dimension_5():
    # the square pyramid times a 2-D orthant: 6 rays spanning Z^5
    rays = (
        (0, 0, 1, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    )
    c = Cone(5, rays)
    assert not c.is_simplicial
    assert dual_cone(dual_cone(c)) == c
    assert len(faces(c)) == 40  # (1 + 4 + 4 + 1) faces of the pyramid times 4
    assert hilbert_basis(c) == all_pairs_hilbert_basis(c)
    assert minors_is_smooth(Cone(5, tuple(tuple(int(i == j) for j in range(5)) for i in range(5))).rays)


def test_hilbert_basis_refuses_an_over_budget_volume(monkeypatch):
    # dimension >= 3: the budget counts parallelepiped points, here one piece
    # of volume 2001 (and 2,003 basis elements)
    cone = Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 2001)))
    monkeypatch.setenv("TORIFIED_BUDGET", "2000")
    with pytest.raises(BudgetExceeded, match="2001 parallelepiped points exceed the budget of 2000"):
        hilbert_basis(cone)
    monkeypatch.setenv("TORIFIED_BUDGET", "2001")
    assert hilbert_basis(cone) == ((0, 1, 0), (1, 0, 0)) + tuple((1, 1, k) for k in range(1, 2002))
    # dimension 2: the budget counts basis elements, 1,002 at volume 2001
    cone = Cone(2, ((1, 0), (2, 2001)))
    monkeypatch.setenv("TORIFIED_BUDGET", "1001")
    with pytest.raises(BudgetExceeded, match="1002 elements exceed the budget of 1001"):
        hilbert_basis(cone)
    monkeypatch.setenv("TORIFIED_BUDGET", "1002")
    assert hilbert_basis(cone) == tuple((1, k) for k in range(1001)) + ((2, 2001),)


def test_budget_error_names_the_cone_it_was_called_with(monkeypatch):
    # the lower-dimensional branch computes on the plane's cone (1,0),(1,5001)
    cone = Cone(3, ((1, 0, 0), (1, 5001, 0)))
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    with pytest.raises(BudgetExceeded) as caught:
        hilbert_basis(cone)
    assert str(caught.value) == (
        "Hilbert basis of Cone(dim 3, rays=[(1, 0, 0), (1, 5001, 0)]): "
        "5002 elements exceed the budget of 1000"
    )
    assert caught.value.size == 5002  # the refusal keeps the count it refused


def test_plane_basis_of_a_huge_volume_is_refused_at_once(monkeypatch):
    # 10^9 + 1 elements, counted from O(log) runs: none of them is listed
    cone = Cone(2, ((1, 0), (1, 10**9)))
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    with time_limit(1):
        with pytest.raises(BudgetExceeded) as caught:
            hilbert_basis(cone)
    assert str(caught.value) == (
        f"Hilbert basis of {cone}: 1000000001 elements exceed the budget of 1000"
    )


def test_each_triangulation_piece_is_eliminated_once(monkeypatch):
    # the cone over a 12-gon at height 1 has 10 pieces: the budget's count
    # and the parallelepipeds read one simplex per piece, and the facets
    # come from the dual its construction kept
    polygon = ((4, 0), (3, 2), (2, 3), (0, 4), (-2, 3), (-3, 2),
               (-4, 0), (-3, -2), (-2, -3), (0, -4), (2, -3), (3, -2))
    clear_caches()
    cone = Cone(3, tuple(p + (1,) for p in polygon))
    pieces = _triangulate(cone.rays, 3)
    assert len(pieces) == 10
    simplices = simplex_spy(monkeypatch)
    assert len(hilbert_basis(cone)) == 49
    assert simplices == [tuple(zip(*piece)) for piece in pieces]


@settings(max_examples=300)
@given(
    st.integers(0, 4).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d, max_size=d)
    )
)
@example([(2, 4), (1, 2)])  # singular
@example([(0, 1, 0), (1, 0, 0), (0, 0, 1)])  # det -1
@example([(1, 2, 3), (4, 5, 6), (7, 8, 9)])  # singular
@example([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (2, -3, 5, 7)])  # a row swap, det -7
@example([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)])  # singular
def test_simplex_is_the_determinant_and_adjugate(rows):
    # cofactors for d <= 3 and one signed elimination for d = 4 agree with
    # Laplace expansion; a singular matrix has no simplex
    rows = tuple(rows)
    s, adj = det_adjugate(rows)
    assert _simplex(rows) == ((s, adj) if s else None)


def test_hilbert_basis_of_a_long_thin_cone():
    # 5,002 candidates of one degree: none is compared with another
    basis = hilbert_basis(Cone(2, ((1, 0), (1, 5001))))
    assert len(basis) == 5002
    assert basis == tuple((1, k) for k in range(5002))


def test_hilbert_requires_pointed():
    with pytest.raises(NotPointed):
        hilbert_basis(dual_cone(Cone(2, ((1, 1),))))


# --- fans ------------------------------------------------------------------------


def test_standard_fans():
    p1 = standard_fan("projective_space", 1)
    assert len(p1.cones) == 3 and validate_fan(p1).ok
    a2 = standard_fan("affine_space", 2)
    assert len(a2.cones) == 4 and validate_fan(a2).ok
    p2 = standard_fan("projective_space", 2)
    assert len(p2.cones) == 7 and validate_fan(p2).ok
    t = standard_fan("torus", 3)
    assert len(t.cones) == 1 and validate_fan(t).ok
    assert len(standard_fan("projective_space", 0).cones) == 1
    assert len(standard_fan("affine_space", 0).cones) == 1


@pytest.mark.parametrize("kind", ["affine_space", "projective_space"])
def test_standard_fans_close_like_fan_files(kind):
    # the maximal cones as a fan file lists them, closed on reading; P^0 has
    # no ray -(e_1 + ... + e_n) and one maximal cone, the zero cone
    for n in range(7):
        rays = [[int(i == j) for j in range(n)] for i in range(n)]
        if kind == "affine_space":
            cones = [list(range(n))]
        else:
            rays += [[-1] * n] if n else []
            cones = [list(c) for c in combinations(range(len(rays)), n)]
        fan_file = {"dim": n, "rays": rays, "cones": cones, "close_faces": True}
        clear_caches()
        fan = standard_fan(kind, n)
        assert faces.cache_info().currsize == 0, n
        assert fan == fan_from_dict(fan_file), n


def test_standard_fan_refuses_more_cones_than_the_budget(monkeypatch):
    # P^3 has 2^4 - 1 = 15 cones and A^4 has 2^4 = 16: each passes at its count
    monkeypatch.setenv("TORIFIED_BUDGET", "15")
    assert len(standard_fan("projective_space", 3).cones) == 15
    monkeypatch.setenv("TORIFIED_BUDGET", "16")
    assert len(standard_fan("affine_space", 4).cones) == 16

    def refuse(*args):
        raise AssertionError("built faces over the budget")

    monkeypatch.setattr(lattice, "faces", refuse)
    monkeypatch.setattr(lattice, "_closure", refuse)
    for budget, kind, n, count in (
        (14, "projective_space", 3, 15),
        (15, "affine_space", 4, 16),
        (100, "projective_space", 9, 1023),
        (10**6, "projective_space", 25, 2**26 - 1),
    ):
        monkeypatch.setenv("TORIFIED_BUDGET", str(budget))
        with pytest.raises(BudgetExceeded, match=f"^{count} cones exceed the budget of {budget}$"):
            standard_fan(kind, n)
    assert len(standard_fan("torus", 30).cones) == 1


def test_simplicial_faces_carry_their_dimension(monkeypatch):
    rays = ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 1, 1, 0), (3, 1, 4, 1, 5))
    top = Cone(5, rays)
    assert top.is_simplicial  # the top cone's rank, computed once

    def refuse(*args):
        raise AssertionError("a face's dimension was computed by a rank")

    monkeypatch.setattr(lattice, "mat_rank", refuse)
    fan = Fan(5, faces(top))  # ordering the fan reads every face's dim
    assert len(fan.cones) == 32
    assert [c.dim for c in fan.cones] == sorted(len(c.rays) for c in fan.cones)


SQUARES = tuple((1, *v) for v in iproduct((0, 1), repeat=4))  # over the 4-cube: square faces
CYCLIC = tuple((1, t, t * t, t**3, t**4) for t in range(7))  # over a cyclic 4-polytope


# the readers of a cone's ray-facet incidence, each run with the dual cached
# but for the dual's own double description
TIGHT_SET_READERS = {
    "dual_pair": lambda top: _dual_pair(top.rays, 5),
    "faces": faces,
    "face_indices": lambda top: Fan(5, (top,)).face_indices,
    "closure": lambda top: lattice._closure(5, [top]),
}


def rank_spy(monkeypatch) -> list:
    """The rows of every ``mat_rank`` that ``lattice`` takes from now on."""
    ranks = []
    monkeypatch.setattr(lattice, "mat_rank", lambda rows: ranks.append(rows) or mat_rank(rows))
    return ranks


@pytest.mark.parametrize("reader", TIGHT_SET_READERS)
@pytest.mark.parametrize("rays", [SQUARES, CYCLIC], ids=["squares", "cyclic"])
def test_tight_sets_take_no_rank(monkeypatch, rays, reader):
    # which rays lie on which faces is read from bit masks: the dual's
    # adjacent pairs, the faces, the fan relation and the closure of a cone
    # that is not simplicial take no rank
    top = Cone(5, rays)
    assert not top.is_simplicial
    clear_caches()
    if reader != "dual_pair":
        facet_normals(top)
    ranks = rank_spy(monkeypatch)
    TIGHT_SET_READERS[reader](top)
    assert ranks == []


@pytest.mark.parametrize("rays", [SQUARES, CYCLIC], ids=["squares", "cyclic"])
def test_extremal_rays_take_one_rank(monkeypatch, rays):
    # the strict convexity check; extremality is read from masks
    clear_caches()
    ranks = rank_spy(monkeypatch)
    assert lattice._extremal_rays(tuple(sorted(rays)), (), 5) == tuple(sorted(rays))
    assert len(ranks) == 1


def cut_spy(monkeypatch) -> list:
    """(face, facets) of every ``_maximal_cuts`` that ``lattice`` makes from
    now on.  A walk of :func:`faces` cuts against its own list of facet
    masks, which the record keeps alive, so :func:`walks` counts them."""
    cuts = []
    cut = lattice._maximal_cuts
    monkeypatch.setattr(
        lattice, "_maximal_cuts", lambda face, facets: cuts.append((face, facets)) or cut(face, facets)
    )
    return cuts


def simplex_spy(monkeypatch) -> list:
    """The rows of every ``_simplex`` that ``lattice`` takes from now on: it
    keeps no cache, so each record is one cofactor formula or elimination."""
    simplices = []
    simplex = lattice._simplex
    monkeypatch.setattr(lattice, "_simplex", lambda rows: simplices.append(rows) or simplex(rows))
    return simplices


def walks(cuts: list) -> int:
    """The face walks among :func:`cut_spy`'s records: the misses of
    ``faces`` on cones that are not simplicial."""
    return len({id(facets) for _, facets in cuts})


@pytest.mark.parametrize("rays", [SQUARES, CYCLIC], ids=["squares", "cyclic"])
def test_the_face_walk_cuts_each_face_once(monkeypatch, rays):
    # a face's facets are its maximal proper cuts, one dim lower, so each
    # face is reached at one level of the walk and cut once: the work
    # follows the number of faces.  The walk's bits are the cone's ray order
    top = Cone(5, rays)
    clear_caches()
    cuts = cut_spy(monkeypatch)
    found = faces(top)
    masks = {sum(1 << top.rays.index(r) for r in f.rays) for f in found}
    assert walks(cuts) == 1
    assert len(cuts) == len({face for face, _ in cuts}) == len(found) == len(masks)
    assert {face for face, _ in cuts} == masks


@st.composite
def non_simplicial_fan_files(draw):
    """Fan files in Z^n (3 <= n <= 5) on n + 1 to n + 3 primitive rays (n + 1
    in Z^5, where more give most cones over 10 facets), all positive on a
    drawn functional, listing the cone on all of them, which is drawn not
    simplicial and with at most 10 facets, and up to two cones on drawn
    subsets, with ``close_faces``."""
    n = draw(st.integers(3, 5))
    w = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))

    def positive(v):  # v or -v, or w - v where both are orthogonal to w
        s = dot(w, v)
        return primitive(v if s > 0 else vec_neg(v) if s < 0 else vec_sub(w, v))

    ray = st.tuples(*[st.integers(-3, 3)] * n).map(positive)
    rays = draw(st.lists(ray, min_size=n + 1, max_size=n + 1 if n == 5 else n + 3, unique=True))
    top = Cone(n, rays)
    assume(not top.is_simplicial and len(facet_normals(top)) <= 10)
    subset = st.lists(st.integers(0, len(rays) - 1), min_size=1, unique=True)
    cones = [list(range(len(rays))), *draw(st.lists(subset, max_size=2))]
    return {"dim": n, "rays": [list(r) for r in rays], "cones": cones, "close_faces": True}


@settings(max_examples=60)
@given(non_simplicial_fan_files())
def test_the_face_walk_agrees_with_the_facet_subsets_on_fans(data):
    # the closure and the face relation of a fan with cones that are not
    # simplicial, against the faces of subsets of the facet normals, each
    # built by the constructor
    fan = fan_from_dict(data)
    n, rays = data["dim"], [tuple(r) for r in data["rays"]]
    oracle = Fan(n, tuple(faces_closure([Cone(n, [rays[i] for i in c]) for c in data["cones"]])))
    assert fan == oracle
    assert [c._dim for c in fan.cones] == [c.dim for c in oracle.cones]
    assert all(j in ids for j, ids in enumerate(fan.face_indices))
    pairs = sorted((i, j) for j, ids in enumerate(fan.face_indices) for i in ids if i != j)
    assert pairs == scanned_face_relation(fan)


def test_a_fan_walks_and_dualizes_its_maximal_cones_alone(monkeypatch):
    # the closed fan over the 4-cube's facets: 81 cones, 8 maximal 3-cubes,
    # 24 squares.  Each cone reads its faces from a maximal cone that holds
    # it, so the relation walks and dualizes the 3-cubes alone
    cubes = [[i for i in range(16) if i >> k & 1 == side] for k in range(4) for side in (0, 1)]
    rays = [list(v) for v in iproduct((-1, 1), repeat=4)]
    fan = fan_from_dict({"dim": 4, "rays": rays, "cones": cubes, "close_faces": True})
    tops = [c for c in fan.cones if c.dim == 4]
    assert (len(fan.cones), len(tops)) == (81, 8)
    clear_caches()
    cuts = cut_spy(monkeypatch)
    relation = fan.face_indices
    assert walks(cuts) == faces.cache_info().misses == len(tops)
    assert len(cuts) == 28 * len(tops)  # a 3-cube has 28 faces, the zero cone's among them
    assert _dual_pair.cache_info().misses == len(tops)
    for top in tops:  # the misses were the 3-cubes' walks and duals
        faces(top)
        _dual_pair(top.rays, 4)
    assert faces.cache_info().misses == _dual_pair.cache_info().misses == len(tops)
    pairs = sorted((i, j) for j, ids in enumerate(relation) for i in ids if i != j)
    assert pairs == scanned_face_relation(fan)
    assert maximal_cones(fan) == tuple(fan.cones.index(c) for c in tops)


SQUARE = Cone(3, ((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)))
CUBE_CONE = Cone(4, tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)))
CUBE_SQUARE = Cone(4, ((1, -1, -1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, 1)))


@st.composite
def fans_with_ray_subsets(draw):
    """Fans in Z^n (n = 3 or 4) of a pointed cone that is not simplicial, on
    n + 1 to n + 3 rays all positive on a drawn functional, with up to three
    cones on subsets of its rays, which need not be faces (two opposite rays
    of a square are not), and up to three of its faces: invalid fans, most
    of them, and not closed."""
    n = draw(st.integers(3, 4))
    w = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))

    def positive(v):  # v or -v, or w - v where both are orthogonal to w
        s = dot(w, v)
        return primitive(v if s > 0 else vec_neg(v) if s < 0 else vec_sub(w, v))

    ray = st.tuples(*[st.integers(-2, 2)] * n).filter(any).map(positive)
    top = Cone(n, draw(st.lists(ray, min_size=n + 1, max_size=n + 3, unique=True)))
    assume(not top.is_simplicial)
    subset = st.lists(st.sampled_from(top.rays), min_size=1, unique=True)
    subsets = [Cone(n, rays) for rays in draw(st.lists(subset, max_size=3))]
    true_faces = draw(st.lists(st.sampled_from(faces(top)), max_size=3))
    return Fan(n, (top, *subsets, *true_faces))


@settings(max_examples=80, deadline=None)
@given(fans_with_ray_subsets())
# the diagonal of a square: a cone on its rays, not a face, so maximal
@example(Fan(3, (SQUARE, Cone(3, ((1, 0, 1), (-1, 0, 1))), zero_cone(3))))
# a square of a 3-cube, listed, held by the cube, with its diagonal: no face
# of the square, though its rays are the square's
@example(Fan(4, (CUBE_CONE, CUBE_SQUARE, Cone(4, ((1, -1, -1, 1), (1, 1, 1, 1))), zero_cone(4))))
# the same diagonal in the cube, and a plane through two opposite edges of
# it, a rectangle that is not a face either
@example(Fan(4, (CUBE_CONE, Cone(4, ((1, -1, -1, 1), (1, 1, 1, 1))),
                 Cone(4, ((-1, -1, -1, 1), (-1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, 1))))))
def test_cones_on_ray_subsets_that_are_not_faces(fan):
    # the relation, the maximal cones and the validation of fans whose cones
    # share rays without being faces of one another, against the scans
    relation = fan.face_indices
    assert all(list(ids) == sorted(ids) and j in ids for j, ids in enumerate(relation))
    pairs = sorted((i, j) for j, ids in enumerate(relation) for i in ids if i != j)
    assert pairs == scanned_face_relation(fan)
    assert maximal_cones(fan) == scanned_maximal_cones(fan)
    assert validate_fan(fan) == all_maximal_pairs_validate_fan(fan)


def test_validation_names_the_missing_faces_of_held_cones_from_one_walk(monkeypatch):
    # the cone over the cube in Z^4 with its six squares and four edges
    # listed, not closed: each square is held by the cube, is not
    # simplicial and misses faces, which are named from the masks of the
    # cube's walk, so validation walks the cube alone
    rays = [[a, b, c, 1] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    squares = [[i for i in range(8) if i >> k & 1 == side] for k in range(3) for side in (0, 1)]
    cones = [list(range(8)), *squares, [0, 1], [0, 2], [6, 7], [5, 7]]
    fan = fan_from_dict({"dim": 4, "rays": rays, "cones": cones, "close_faces": False})
    clear_caches()
    cuts = cut_spy(monkeypatch)
    report = validate_fan(fan)
    assert walks(cuts) == 1
    monkeypatch.undo()
    assert report == all_maximal_pairs_validate_fan(fan)
    held = [c for c in fan.cones if c.dim == 3]
    assert len(held) == 6 and all(any(str(list(c.rays)) in v for v in report.violations) for c in held)


def test_validate_fan_missing_faces():
    fan = Fan(2, (Cone(2, ((1, 0), (0, 1))), zero_cone(2)))
    report = validate_fan(fan)
    assert not report.ok
    assert len(report.violations) == 2  # the two missing rays


def test_validate_fan_overlap():
    a = Cone(2, ((1, 0), (1, 1)))
    b = Cone(2, ((2, 1), (0, 1)))
    # interior point of both, by the membership oracle
    assert member_2d(a, (3, 2)) and member_2d(b, (3, 2))
    cones = set(faces(a)) | set(faces(b))
    fan = Fan(2, tuple(cones))
    report = validate_fan(fan)
    assert any("common face" in v or "not a face" in v for v in report.violations)


def all_pairs_valid(fan):
    """Fan axioms checked on every pair of cones, not only maximal ones
    (reference).  The intersection of a and b is computed as the dual of
    a^v + b^v, not by the separating functional validate_fan uses."""
    n = fan.ambient_dim
    cone_set = set(fan.cones)
    if zero_cone(n) not in cone_set:
        return False
    if any(f not in cone_set for c in fan.cones for f in faces(c)):
        return False
    for a, b in combinations(fan.cones, 2):
        rays, lineality = _dual_pair(dual_cone(a).generators() + dual_cone(b).generators(), n)
        assert not lineality  # a and b are pointed, so is their intersection
        common = Cone(n, rays)
        if common not in faces(a) or common not in faces(b):
            return False
    return True


@st.composite
def unimodular(draw, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            f = draw(st.integers(-2, 2))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


def closed(cones, n):
    return Fan(n, tuple({f for c in cones for f in faces(c)}))


def with_overlap(draw, fan, rays):
    """The fan, or the fan plus a drawn full-dimensional cone (with its
    faces) on its rays or new ones, which mostly overlaps the cones there."""
    n = fan.ambient_dim
    if not draw(st.booleans()):
        return fan
    new_ray = st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(primitive)
    extra = draw(st.lists(st.sampled_from(rays) | new_ray, min_size=n, max_size=n, unique=True))
    try:
        cone = Cone(n, tuple(extra))
    except InvalidCone:
        return fan
    if cone.dim < n:
        return fan
    return closed(fan.cones + (cone,), n)


@st.composite
def complete_fans_2d(draw):
    """Complete 2-D fans: the rays of P^2 plus drawn rays, in angular order,
    moved by a drawn unimodular map; sometimes with an added cone."""
    vectors = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=6))
    rays = {(1, 0), (0, 1), (-1, -1)} | {primitive(v) for v in vectors if any(v)}
    a = draw(unimodular(2))
    rays = sorted((mat_vec(a, r) for r in rays), key=lambda r: math.atan2(r[1], r[0]))
    cones = [Cone(2, (r, rays[i - 1])) for i, r in enumerate(rays)]
    return with_overlap(draw, closed(cones, 2), rays)


with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "catalog.json")) as fh:
    CATALOG_FANS_3D = [f for f in json.load(fh)["fans"] if f["dim"] == 3]


@st.composite
def catalog_fans_3d(draw):
    """The 3-D fans of the benchmark catalogue (valid and invalid), moved by a
    drawn unimodular map; sometimes with an added cone."""
    entry = draw(st.sampled_from(CATALOG_FANS_3D))
    a = draw(unimodular(3))
    rays = [mat_vec(a, r) for r in entry["rays"]]
    cones = [Cone(3, tuple(rays[i] for i in c)) for c in entry["cones"]]
    return with_overlap(draw, closed(cones, 3), rays)


@settings(max_examples=60)
@given(complete_fans_2d())
def test_validate_fan_agrees_with_all_pairs_2d(fan):
    assert validate_fan(fan).ok == all_pairs_valid(fan)
    assert validate_fan(fan) == all_maximal_pairs_validate_fan(fan)


@settings(max_examples=25)
@given(catalog_fans_3d())
def test_validate_fan_agrees_with_all_pairs_3d(fan):
    assert validate_fan(fan).ok == all_pairs_valid(fan)
    assert validate_fan(fan) == all_maximal_pairs_validate_fan(fan)


def p1_power_fan(n):
    """(P^1)^n: one maximal cone per choice of signs, on the rays ±e_i."""
    tops = [
        Cone(n, tuple(tuple(s * (j == i) for j in range(n)) for i, s in enumerate(signs)))
        for signs in iproduct((1, -1), repeat=n)
    ]
    return closed(tops, n)


@st.composite
def transformed_fans_4d(draw):
    """P^4 and (P^1)^4 moved by a drawn unimodular map; sometimes with an
    added cone."""
    fan = standard_fan("projective_space", 4) if draw(st.booleans()) else p1_power_fan(4)
    a = draw(unimodular(4))
    tops = [Cone(4, tuple(mat_vec(a, r) for r in fan.cones[i].rays)) for i in maximal_cones(fan)]
    rays = sorted({r for c in tops for r in c.rays})
    return with_overlap(draw, closed(tops, 4), rays)


@settings(max_examples=25, deadline=None)
@given(transformed_fans_4d())
def test_validate_fan_report_equals_the_all_maximal_pairs_reference_4d(fan):
    assert validate_fan(fan) == all_maximal_pairs_validate_fan(fan)


SQUARE_PYRAMID = Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)))


def non_simplicial_cone(draw, n):
    """A drawn pointed cone in Z^n (n >= 3) with more extremal rays than its
    dimension, or None: n + 1 to n + 3 small rays on the side x_n > 0."""
    ray = st.tuples(*[st.integers(-1, 1)] * (n - 1), st.integers(1, 2)).map(primitive)
    cone = Cone(n, tuple(draw(st.lists(ray, min_size=n + 1, max_size=n + 3, unique=True))))
    return None if cone.is_simplicial else cone


@st.composite
def fans_with_defects(draw):
    """What the drawn fans above never hold: a non-simplicial cone, and a
    face missing.  A 2-D or 3-D drawn fan, or the face fan of a drawn
    non-simplicial cone in dims 3-4; sometimes with a non-simplicial cone
    (and its faces) added; sometimes with one cone dropped, as a fan file
    read with ``close_faces`` false leaves it when the file omits a face."""
    kind = draw(st.sampled_from(["2d", "3d", "cone"]))
    if kind == "cone":
        n = draw(st.integers(3, 4))
        cone = non_simplicial_cone(draw, n)
        fan = closed([cone] if cone else [], n)
    else:
        fan = draw(complete_fans_2d() if kind == "2d" else catalog_fans_3d())
        n = fan.ambient_dim
    if n >= 3 and draw(st.booleans()):
        extra = non_simplicial_cone(draw, n)
        if extra is not None:
            fan = closed(fan.cones + (extra,), n)
    if fan.cones and draw(st.booleans()):
        dropped = draw(st.sampled_from(fan.cones))
        fan = Fan(n, tuple(c for c in fan.cones if c != dropped))
    return fan


@settings(max_examples=60, deadline=None)
@given(fans_with_defects())
@example(Fan(2, (zero_cone(2), Cone(2, ((1, 0),)), Cone(2, ((1, 0), (0, 1))))))  # a ray missing
@example(Fan(3, faces(SQUARE_PYRAMID)[1:]))  # no zero cone below a non-simplicial cone
def test_validate_fan_report_equals_the_references_with_defects(fan):
    assert validate_fan(fan).ok == all_pairs_valid(fan)
    assert validate_fan(fan) == all_maximal_pairs_validate_fan(fan)


@st.composite
def full_dimensional_cone_pairs(draw):
    """Pointed full-dimensional cones a, b in dims 2-4.  Often they are
    planted on either side of the last coordinate hyperplane, sharing some
    rays on it, before a drawn unimodular map: then many meet in a common
    face."""
    n = draw(st.integers(2, 4))
    planted = draw(st.booleans())

    def rays(last, min_size, max_size):
        head = [st.integers(-3, 3)] * (n - 1)
        tail = last if planted else st.integers(-3, 3)
        vec = st.tuples(*head, tail).filter(any).map(primitive)
        return draw(st.lists(vec, min_size=min_size, max_size=max_size, unique=True))

    shared = rays(st.just(0), 0, n - 1)
    own = max(1, n - len(shared))  # fewer rays cannot span R^n
    a_rays = shared + rays(st.integers(0, 3), own, own + 1)
    b_rays = shared + rays(st.integers(-3, 0), own, own + 1)
    m = draw(unimodular(n))
    cones = []
    for generators in (a_rays, b_rays):
        try:
            cone = Cone(n, tuple(mat_vec(m, r) for r in generators))
        except InvalidCone:
            assume(False)
        assume(cone.dim == n)
        cones.append(cone)
    return tuple(cones)


@settings(max_examples=150, deadline=None)
@given(full_dimensional_cone_pairs())
def test_sign_masks_accept_only_pairs_that_meet_in_a_common_face(pair):
    a, b = pair
    if not list(_open_pairs(Fan(a.ambient_dim, (a, b)))):  # both maximal, having dim n
        tight_a, tight_b = _separating_faces(a, b)
        assert tight_a == tight_b


def count_separating_faces(monkeypatch):
    calls = []
    separating_faces = lattice._separating_faces

    def counted(a, b):
        calls.append((a, b))
        return separating_faces(a, b)

    monkeypatch.setattr(lattice, "_separating_faces", counted)
    return calls


def test_a_valid_pair_the_masks_leave_open_goes_to_the_double_description(monkeypatch):
    a = Cone(3, ((-1, 2, 2), (0, -2, 1), (2, -3, 0), (3, 2, 1)))
    b = Cone(3, ((-3, 2, -1), (-2, -2, -3), (-1, -3, 3)))
    assert a.dim == b.dim == 3 and len(a.rays) == 4
    calls = count_separating_faces(monkeypatch)
    # the uncached function: an earlier test may have validated this fan
    assert validate_fan.__wrapped__(closed((a, b), 3)).ok
    assert calls == [(b, a)]  # in the fan's (dim, rays) order


@pytest.mark.parametrize(
    "fan", [standard_fan("projective_space", 4), p1_power_fan(3)], ids=["P4", "P1^3"]
)
def test_sign_masks_settle_every_pair_of_a_smooth_complete_fan(fan, monkeypatch):
    calls = count_separating_faces(monkeypatch)
    assert validate_fan.__wrapped__(fan).ok
    assert calls == []


def test_fan_corpus_is_valid(corpus_fan):
    assert validate_fan(corpus_fan).ok


def test_fan_dict_round_trip(corpus_fan):
    data = fan_to_dict(corpus_fan)
    again = fan_from_dict(data)
    assert again == corpus_fan


@pytest.mark.parametrize(
    "data, match",
    [
        # -1 would silently name the last ray
        ({"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, -1]],
          "close_faces": True}, "references a missing ray"),
        ({"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 2]]}, "references a missing ray"),
        ({"dim": 2, "rays": 5, "cones": []}, "rays must be a list"),
        ({"dim": 2, "rays": [[1, 0]], "cones": {"0": [0]}}, "cones must be a list"),
        ({"dim": 2, "rays": [[1, 0]], "cones": [0]}, "a cone must be a list of integers"),
        ({"dim": 2, "rays": [[1, 0]], "cones": [[0.0]]}, "a cone must be a list of integers"),
        ({"dim": 2, "rays": [[1, 0]], "cones": [[True]]}, "a cone must be a list of integers"),
        ({"dim": 2, "rays": [[1, "0"]], "cones": []}, "a ray must be a list of integers"),
        ({"dim": 2, "rays": [7], "cones": []}, "a ray must be a list of integers"),
        ({"dim": "2", "rays": [], "cones": []}, "dim must be a nonnegative integer"),
        ({"dim": -1, "rays": [], "cones": []}, "dim must be a nonnegative integer"),
        # a truthy string once closed the faces of a fan that lacks them
        ({"dim": 2, "rays": [[1, 0]], "cones": [], "close_faces": "false"},
         "close_faces must be true or false"),
        ({"dim": 2, "rays": []}, "dim/rays/cones"),
        ([1, 2], "dim/rays/cones"),
    ],
)
def test_fan_from_dict_rejects_malformed_data(data, match):
    with pytest.raises(ValueError, match=match):
        fan_from_dict(data)


def test_fan_from_dict_close_faces_and_normalization():
    warnings = []
    fan = fan_from_dict(
        {
            "dim": 2,
            "rays": [[2, 0], [0, 1], [-1, -1]],
            "cones": [[0, 1], [1, 2], [2, 0]],
            "close_faces": True,
        },
        on_warning=warnings.append,
    )
    assert len(fan.cones) == 7  # the P2 fan
    assert validate_fan(fan).ok
    assert warnings and "[2, 0]" in warnings[0]


@st.composite
def fan_files(draw):
    """Fan files read with ``close_faces``: P^n or (P^1)^n (1 <= n <= 4), or
    the face fan of the cube (non-simplicial), moved by a drawn unimodular
    map, whose listed cones overlap: faces of listed cones, repeats, and
    cones on drawn rays, which may overlap the others or be non-simplicial."""
    kind = draw(st.sampled_from(["projective", "p1_power", "cube"]))
    if kind == "cube":
        n = 3
        rays = list(iproduct((-1, 1), repeat=3))
        cones = [[i for i, r in enumerate(rays) if r[axis] == side] for axis in range(3) for side in (-1, 1)]
    elif kind == "projective":
        n = draw(st.integers(1, 4))
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
        cones = [[i for i in range(n + 1) if i != k] for k in range(n + 1)]
    else:
        n = draw(st.integers(1, 4))
        rays = [tuple(s * int(i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
        cones = [[2 * i + side for i, side in enumerate(sides)] for sides in iproduct((0, 1), repeat=n)]
    a = draw(unimodular(n))
    rays = [list(mat_vec(a, r)) for r in rays]
    for cone in draw(st.lists(st.sampled_from(cones), max_size=4)):
        cones.append(draw(st.lists(st.sampled_from(cone), unique=True)))  # a face, or a repeat
    for _ in range(draw(st.integers(0, 2))):
        drawn = draw(st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=n + 1, unique=True))
        try:
            Cone(n, tuple(tuple(rays[i]) for i in drawn))
        except InvalidCone:
            continue
        cones.append(drawn)
    order = draw(st.permutations(range(len(cones))))
    return {"dim": n, "rays": rays, "cones": [cones[i] for i in order], "close_faces": True}


@settings(max_examples=100)
@given(fan_files())
def test_closing_a_fan_file_gives_the_faces_of_its_cones(data):
    # the cones on the distinct ray subsets of simplicial cones and the faces
    # of the others: the same cones, in the same order, with the same dims
    # and face relation as the union of the faces of the listed cones
    fan = fan_from_dict(data)
    n, rays = data["dim"], [tuple(r) for r in data["rays"]]
    listed = [Cone(n, tuple(rays[i] for i in c)) for c in data["cones"]]
    oracle = Fan(n, tuple(faces_closure(listed)))
    assert fan.cones == oracle.cones
    assert [c._dim for c in fan.cones] == [mat_rank(c.rays) for c in fan.cones]
    assert fan.face_indices == oracle.face_indices
    assert hash(fan) == hash(fan) == fan._hash == hash((n, fan.cones)) == hash(oracle)


@st.composite
def raw_fan_files(draw):
    """Fan files on one to six drawn rays in Z^n (1 <= n <= 4), some of them
    not primitive, listing up to four cones on drawn indices, repeats
    allowed, with ``close_faces`` drawn: redundant generators,
    lower-dimensional cones and cones that contain a line all occur."""
    n = draw(st.integers(1, 4))
    ray = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    rays = draw(st.lists(ray, min_size=1, max_size=6))
    index = st.integers(0, len(rays) - 1)
    cones = draw(st.lists(st.lists(index, max_size=n + 2), max_size=4))
    return {"dim": n, "rays": rays, "cones": cones, "close_faces": draw(st.booleans())}


@settings(max_examples=300)
@given(raw_fan_files())
@example({"dim": 2, "rays": [[1, 0], [-1, 0], [0, 1]], "cones": [[0, 2], [0, 1, 2]],
          "close_faces": True})  # a half-plane
@example({"dim": 2, "rays": [[2, 0], [0, 1], [1, 1]], "cones": [[0, 1, 2, 0, 2]],
          "close_faces": False})  # a non-primitive ray, a repeat and a redundant generator
@example({"dim": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, 0, 0]],
          "cones": [[0, 1, 2, 3], [1, 4], [4]], "close_faces": True})  # a square, a plane, a ray
@example({"dim": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
          "cones": [[0, 1, 2, 3], [0, 1]], "close_faces": False})  # a face left unclosed
def test_a_fan_file_reads_as_its_cones_built_by_the_constructor(data):
    # fan_from_dict checks the rays itself and canonicalizes each listed cone
    # without the constructor's checks: the fan, its cones' dims and the
    # refusal of a cone that contains a line are those of Cone(...)
    n = data["dim"]
    rays = [primitive(r) for r in data["rays"]]
    warnings = []
    try:
        listed = [Cone(n, [rays[i] for i in c]) for c in data["cones"]]
    except InvalidCone as exc:
        with pytest.raises(InvalidCone) as caught:
            fan_from_dict(data, warnings.append)
        assert str(caught.value) == str(exc)
        return
    fan = fan_from_dict(data, warnings.append)
    oracle = Fan(n, tuple(faces_closure(listed) if data["close_faces"] else listed))
    assert fan == oracle
    assert [c._dim for c in fan.cones] == [c.dim for c in oracle.cones]
    assert len(warnings) == sum(list(p) != r for p, r in zip(rays, data["rays"]))

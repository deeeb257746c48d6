"""Metamorphic checks under GL_n(Z): a change of lattice coordinates g moves
a cone sigma to g sigma and its monoid, in the dual lattice, by g^-T, and
every answer the library gives moves with them.

Cones and fans are drawn in Z^n for n <= 4, full- and lower-dimensional, and
g is a signed permutation times elementary matrices.  Hilbert bases and faces
correspond under g; prime ranks, Soule counts and fan verdicts are the same;
a monoid's unit lattice is moved by g^-T (compared by Hermite basis) and its
generators agree modulo the units, which is their values on the rays.  The
budget's decision is not yet invariant: its count follows the coordinates a
triangulation is taken in (the strict xfail at the end).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clear_caches
from references import invert_unimodular

from torified.errors import BudgetExceeded
from torified.gadgets import CyclicMonoidWithZero, count_monoid_homs, soule_count_by_faces
from torified.intlinalg import dot, hnf_rows, mat_vec, primitive
from torified.lattice import Cone, Fan, faces, hilbert_basis, maximal_cones, validate_fan
from torified.monoids import monoid_of_cone, spec


@st.composite
def gl_n_z(draw, n):
    """A signed permutation matrix times up to five elementary matrices."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    g = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 5)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        f = draw(st.sampled_from((-2, -1, 1, 2)))
        g[i] = [x + f * y for x, y in zip(g[i], g[j])]
    return g


@st.composite
def pointed_rays(draw, n, min_dim=1):
    """1 to d + 3 primitive rays spanning at most a drawn d <= n dimensions
    (d >= ``min_dim``), all positive on a drawn functional, so their cone
    contains no line; a lower-dimensional draw is moved off the coordinate
    subspace by a drawn g."""
    d = draw(st.integers(min_dim, n))
    w = draw(st.tuples(*[st.integers(-2, 2)] * d).filter(any))
    ray = st.tuples(*[st.integers(-2, 2)] * d).filter(lambda v: dot(w, v) > 0).map(primitive)
    rays = draw(st.lists(ray, min_size=1, max_size=d + 3))
    g = draw(gl_n_z(n))
    return [mat_vec(g, (*r, *(0,) * (n - d))) for r in rays]


@st.composite
def cones_and_moves(draw):
    """(sigma, g) with sigma a pointed cone in Z^n, n <= 4, and g in GL_n(Z)."""
    n = draw(st.integers(1, 4))
    return Cone(n, draw(pointed_rays(n))), draw(gl_n_z(n))


def moved(g, cone):
    """g sigma: the cone on the images of sigma's rays."""
    return Cone(cone.ambient_dim, [mat_vec(g, r) for r in cone.rays])


def dual_action(g):
    """g^-T, which moves the dual lattice along with g: <g^-T u, g v> = <u, v>."""
    return [list(row) for row in zip(*invert_unimodular(g))]


@settings(max_examples=80, deadline=None)
@given(cones_and_moves())
@example((Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 5))), [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
@example((Cone(4, ((1, 0, 0, 0), (1, 2, 0, 0), (1, 1, 5, 0))), [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]))
@example((Cone(3, ((0, 1, 0), (7, -1, 0))), [[1, 2, 0], [0, 1, 0], [0, 1, -1]]))
@example((Cone(4, ((1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0))), [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 2, 1]]))  # a square, not simplicial
def test_hilbert_bases_and_faces_move_with_the_lattice(case):
    cone, g = case
    image = moved(g, cone)
    assert image.dim == cone.dim
    assert set(hilbert_basis(image)) == {mat_vec(g, h) for h in hilbert_basis(cone)}
    assert set(faces(image)) == {moved(g, f) for f in faces(cone)}


@settings(max_examples=80, deadline=None)
@given(cones_and_moves())
@example((Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 5))), [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
@example((Cone(4, ((1, 0, 0, 0), (1, 2, 0, 0), (1, 1, 5, 0))), [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]))
@example((Cone(2, ((1, 1),)), [[2, 1], [1, 1]]))
@example((Cone(4, ((1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0))), [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 0, 2, 1]]))  # a square, not simplicial
def test_monoids_move_with_the_dual_lattice(case):
    cone, g = case
    image = moved(g, cone)
    monoid, image_monoid = monoid_of_cone(cone), monoid_of_cone(image)
    # the unit lattice is sigma's perp, moved by g^-T
    h = dual_action(g)
    n = cone.ambient_dim
    assert image_monoid.unit_basis == hnf_rows([mat_vec(h, u) for u in monoid.unit_basis], n)
    # generators modulo the units are their values on the rays, which g keeps
    values = sorted(tuple(dot(u, r) for r in cone.rays) for u in monoid.generators)
    image_values = sorted(tuple(dot(u, mat_vec(g, r)) for r in cone.rays) for u in image_monoid.generators)
    assert image_values == values
    ranks = sorted(p.complement_rank for p in spec(monoid))
    assert sorted(p.complement_rank for p in spec(image_monoid)) == ranks
    for m in (1, 2, 3):
        target = CyclicMonoidWithZero(m)
        assert count_monoid_homs(image_monoid, target) == count_monoid_homs(monoid, target)
        assert soule_count_by_faces(image_monoid, m) == soule_count_by_faces(monoid, m)


@st.composite
def fans_and_moves(draw):
    """(F, g): the faces of one to three pointed cones in Z^n, 2 <= n <= 4, on
    rays drawn from one pool positive on a functional, so that the cones
    often overlap other than in a common face, and g in GL_n(Z)."""
    n = draw(st.integers(2, 4))
    pool = draw(pointed_rays(n, min_dim=n))
    cones = set()
    for rays in draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=n + 1), min_size=1, max_size=3)):
        cones.update(faces(Cone(n, rays)))
    return Fan(n, tuple(cones)), draw(gl_n_z(n))


@settings(max_examples=80, deadline=None)
@given(fans_and_moves())
@example((Fan(2, faces(Cone(2, ((1, 0), (1, 2)))) + faces(Cone(2, ((1, 1), (0, 1))))), [[1, 1], [0, 1]]))
def test_fan_verdicts_move_with_the_lattice(case):
    fan, g = case
    image = Fan(fan.ambient_dim, tuple(moved(g, c) for c in fan.cones))
    assert validate_fan(image).ok == validate_fan(fan).ok
    assert len(maximal_cones(image)) == len(maximal_cones(fan))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "lattice._triangulated_basis refuses on a count that depends on the "
        "coordinates a cone is given in, not on the cone: _triangulate cones off "
        "the first ray in sorted order, so a change of coordinates can pick "
        "another triangulation with another total |det|"
    ),
)
def test_a_budget_decision_does_not_depend_on_coordinates(monkeypatch):
    # swapping the first two coordinates: 37 parallelepiped points become 49,
    # so a budget of 40 accepts the cone and refuses its image
    cone = Cone(3, ((-3, -1, 1), (-1, -3, 1), (0, -2, 1), (0, 3, 4)))
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    monkeypatch.setenv("TORIFIED_BUDGET", "40")
    refused = []
    for c in (cone, moved(swap, cone)):
        clear_caches()
        try:
            hilbert_basis(c)
        except BudgetExceeded as exc:
            refused.append(exc.size)
        else:
            refused.append(None)
    assert refused[0] == refused[1]

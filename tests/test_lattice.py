"""Cone and fan geometry, checked against independent brute-force oracles.

The oracles here recompute everything by elementary means: 2D duals by
rotating rays a quarter turn, faces by sweeping candidate supporting
functionals over an integer box, cone membership by solving for nonnegative
coordinates directly.
"""

import json
import math
import os
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONE_CORPUS

from torified.errors import (
    DimensionMismatch,
    InvalidCone,
    NotPointed,
    UnsupportedDimension,
)
from torified.intlinalg import dot, mat_vec, primitive
from torified.lattice import (
    Cone,
    Fan,
    _dual_pair,
    dual_cone,
    faces,
    fan_from_dict,
    fan_to_dict,
    hilbert_basis,
    is_smooth,
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


def test_zero_cone_properties():
    z = zero_cone(2)
    assert z.dim == 0 and z.is_pointed
    assert faces(z) == (z,)
    assert is_smooth(z)
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


def test_unsupported_dimension_guard():
    rays = (
        (0, 0, 1, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 1, 1, 0, 0),
        (1, 1, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1),
    )
    c = Cone(5, rays)
    with pytest.raises(UnsupportedDimension):
        dual_cone(c)
    with pytest.raises(UnsupportedDimension):
        hilbert_basis(c)
    # simplicial cones are fine in dimension 5
    assert is_smooth(Cone(5, tuple(tuple(int(i == j) for j in range(5)) for i in range(5))))


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


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_face_counts_against_box_oracle(cone):
    assert len(faces(cone)) == brute_face_count(cone)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simplicial_face_count_is_2_to_n(n):
    c = Cone(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    assert len(faces(c)) == 2**n


def test_faces_require_pointed():
    with pytest.raises(NotPointed):
        faces(dual_cone(Cone(2, ((1, 1),))))


# --- smoothness ------------------------------------------------------------------


def test_is_smooth_examples():
    assert is_smooth(Cone(2, ((1, 0), (0, 1))))
    c = Cone(2, ((1, 0), (1, 2)))
    assert not is_smooth(c)
    # determinant oracle
    assert abs(1 * 2 - 0 * 1) == 2
    assert is_smooth(zero_cone(2))
    assert not is_smooth(Cone(3, ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))))
    assert is_smooth(Cone(3, ((1, 0, 0), (0, 1, 0))))
    assert is_smooth(Cone(3, ((1, 1, 0), (0, 1, 2))))  # minor gcd 1
    assert not is_smooth(Cone(3, ((1, 1, 0), (1, -1, 0))))  # index-2 sublattice


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


@settings(max_examples=25)
@given(catalog_fans_3d())
def test_validate_fan_agrees_with_all_pairs_3d(fan):
    assert validate_fan(fan).ok == all_pairs_valid(fan)


def test_fan_corpus_is_valid(corpus_fan):
    assert validate_fan(corpus_fan).ok


def test_fan_dict_round_trip(corpus_fan):
    data = fan_to_dict(corpus_fan)
    again = fan_from_dict(data)
    assert again == corpus_fan


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

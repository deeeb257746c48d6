"""Monoids of cones, spectra, and fan monoid schemes."""

import os
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONE_CORPUS, FAN_CORPUS, SINGULAR_CONE, clear_caches
from references import monoid_via_dual, solve_columns_int, three_branch_monoid_of_cone
from test_lattice import assert_constructor_agrees

from torified import cli, intlinalg, lattice, monoids
from torified.errors import BudgetExceeded, MissingSourceCone, TorifiedError
from torified.intlinalg import dot, kernel_basis, mat_rank, mat_vec, primitive
from torified.lattice import Cone, Fan, faces, standard_fan, zero_cone
from torified.monoids import (
    AffineMonoid,
    dscheme_of_fan,
    monoid_of_cone,
    spec,
    unit_group,
)


def test_monoid_of_ray_is_free():
    m = monoid_of_cone(Cone(1, ((1,),)))
    assert m.generators == ((1,),)
    assert m.unit_basis == ()


def test_monoid_of_zero_cone_is_a_lattice():
    m = monoid_of_cone(zero_cone(2))
    assert m.generators == ()
    assert m.unit_basis == ((1, 0), (0, 1))
    assert unit_group(m) == (2, ((1, 0), (0, 1)))


def test_monoid_of_singular_cone():
    m = monoid_of_cone(SINGULAR_CONE)
    assert m.generators == ((0, 1), (1, 0), (2, -1))
    assert m.unit_basis == ()


def test_unit_group_examples():
    assert unit_group(monoid_of_cone(Cone(2, ((1, 0), (0, 1)))))[0] == 0
    assert unit_group(monoid_of_cone(zero_cone(2)))[0] == 2
    assert unit_group(monoid_of_cone(Cone(2, ((1, 0),))))[0] == 1


@pytest.mark.parametrize("fan_name", sorted(FAN_CORPUS))
def test_unit_rank_is_codimension(fan_name):
    fan = FAN_CORPUS[fan_name]
    for cone in fan.cones:
        m = monoid_of_cone(cone)
        assert m.unit_rank == fan.ambient_dim - cone.dim


def test_monoid_splits_as_direct_sum():
    # every generator must pair nonnegatively with the source cone, and the
    # units-plus-generators matrix must span the dual lattice where expected
    for cone in [SINGULAR_CONE, Cone(2, ((1, 1),)), Cone(3, ((1, 0, 0), (1, 2, 0)))]:
        m = monoid_of_cone(cone)
        for g in m.generators:
            assert all(dot(g, r) >= 0 for r in cone.rays)
            assert any(dot(g, r) > 0 for r in cone.rays)
        for u in m.unit_basis:
            assert all(dot(u, r) == 0 for r in cone.rays)
        # section property: unit_basis + generators are Z-linearly independent
        cols = list(m.unit_basis) + list(m.generators)
        if cols:
            # no generator is an integer combination of units alone
            for g in m.generators:
                assert solve_columns_int(list(m.unit_basis), g) is None or not m.unit_basis


@st.composite
def pointed_cones(draw, min_dim=1):
    """Pointed cones on 1 to n+2 rays in Z^n (min_dim <= n <= 4), all
    positive on a drawn functional; many of them lower-dimensional."""
    n = draw(st.integers(min_dim, 4))
    w = draw(st.tuples(*[st.integers(-1, 1)] * n).filter(any))
    ray = st.tuples(*[st.integers(-2, 2)] * n).filter(lambda v: dot(w, v) > 0).map(primitive)
    return Cone(n, tuple(draw(st.lists(ray, min_size=1, max_size=n + 2))))


def assert_monoid_agrees_with_three_branches(cone):
    """Same generators and units as the three-branch construction; every cone
    whose Hilbert basis it takes (the dual, or the quotient of the dual by
    the units) holds what ``Cone`` would store."""
    with mock.patch.object(monoids, "_monoid_basis", wraps=monoids._monoid_basis) as spy:
        m = monoid_of_cone.__wrapped__(cone)
    ref = three_branch_monoid_of_cone(cone)
    assert (m.generators, m.unit_basis) == (ref.generators, ref.unit_basis)
    assert spy.call_count == 1
    assert_constructor_agrees(spy.call_args.args[0])
    assert spy.call_args.args[1] == cone


@pytest.mark.parametrize("cone", CONE_CORPUS + [zero_cone(0), zero_cone(3)], ids=str)
def test_monoid_of_cone_agrees_with_three_branches_on_the_corpus(cone):
    assert_monoid_agrees_with_three_branches(cone)


@settings(max_examples=80)
@given(pointed_cones())
@example(Cone(3, ((1, 1, 0),)))  # the dual's ray (1, 1, 0) maps to 2 modulo the units
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0))))
def test_monoid_of_cone_agrees_with_three_branches_on_all_faces(cone):
    for face in faces(cone):
        assert_monoid_agrees_with_three_branches(face)


@st.composite
def cones_with_lineality(draw):
    """Cones in Z^n (n <= 4) with 0 to 2 lineality vectors of 0s and 1s and 0
    to n+1 rays in their orthogonal complement, positive on a functional
    drawn there: zero, lower-dimensional and full-dimensional cones."""
    n = draw(st.integers(1, 4))
    bits = st.tuples(*[st.integers(0, 1)] * n).filter(any)
    lineality = draw(
        st.lists(bits, max_size=2, unique=True).filter(lambda ls: mat_rank(ls) == len(ls))
    )
    complement = kernel_basis(lineality, n)  # a basis of lineality^perp ∩ Z^n
    k = len(complement)
    if not k:
        return Cone(n, (), tuple(lineality))
    w = draw(st.tuples(*[st.integers(-1, 1)] * k).filter(any))
    coeffs = st.tuples(*[st.integers(-2, 2)] * k).filter(lambda c: dot(w, c) > 0)
    columns = list(zip(*complement))
    rays = [primitive(mat_vec(columns, c)) for c in draw(st.lists(coeffs, max_size=n + 1))]
    return Cone(n, tuple(rays), tuple(lineality))


@settings(max_examples=150, deadline=None)
@given(cones_with_lineality(), st.integers(1, 30))
@example(zero_cone(3), 1)
@example(Cone(3, ((1, 1, 0),)), 30)  # the dual's ray (1, 1, 0) maps to 2 modulo the units
@example(Cone(3, ((1, -1, 0), (1, 1, -2)), ((1, 1, 1),)), 30)
@example(Cone(2, ((0, 1), (5, -1))), 5)  # the dual (1, 0), (1, 5) has 6 basis elements
def test_monoid_of_cone_matches_the_dual_cone_in_the_ambient_lattice(cone, budget):
    with mock.patch.dict(os.environ, {"TORIFIED_BUDGET": str(budget)}):
        outcomes = []
        for build in (monoid_of_cone.__wrapped__, monoid_via_dual):
            try:
                m = build(cone)
            except TorifiedError as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append((m.generators, m.unit_basis))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "cone",
    [
        Cone(2, ((0, 1), (5001, -1))),  # the dual is pointed: no units
        Cone(3, ((0, 1, 0), (5001, -1, 0))),  # computed modulo the units (0, 0, 1)
    ],
    ids=str,
)
def test_budget_error_names_the_cone_of_the_monoid(cone, monkeypatch):
    # either way the basis is of the 2-D cone (1,0),(1,5001): 5,002 elements
    clear_caches()
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    with pytest.raises(BudgetExceeded) as caught:
        monoid_of_cone(cone)
    assert str(caught.value) == (
        f"Hilbert basis of the monoid of {cone}: "
        "5002 elements exceed the budget of 1000"
    )


def test_a_lower_dimensional_cone_that_is_not_simplicial_has_the_reference_monoid():
    # its quotient's dual is triangulated, on a count that follows the
    # coordinates the dual is read in; the basis does not
    cone = Cone(4, ((1, 2, 1, -1), (1, 4, 1, -3), (-4, -1, -4, -1), (-3, 0, -3, 2)))
    assert cone.dim == 3 and not cone.is_simplicial
    ref = three_branch_monoid_of_cone(cone)
    clear_caches()
    m = monoid_of_cone(cone)
    assert (m.generators, m.unit_basis) == (ref.generators, ref.unit_basis)


def test_a_face_changes_coordinates_by_one_hermite_reduction(monkeypatch):
    # the units come back from kernel_basis in Hermite form, and the section
    # from the inverse that one reduction of [B^T | I] carries: one call of
    # each per face with units, no reduction at all for the full-dimensional
    # face (no units, no section), and no Bareiss elimination of a transform
    # or its inverse (unimodular matrices) for any face
    cone = Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)))
    calls, transforms, eliminated = [], [], []
    kernel_basis, hermite = monoids.kernel_basis, monoids._hermite

    def counted_kernel(*args):
        calls.append("kernel_basis")
        return kernel_basis(*args)

    def counted_hermite(m, ncols, inv=None):
        calls.append("_hermite")
        rank = hermite(m, ncols, inv)
        transforms.extend(([row[ncols:] for row in m], inv))
        return rank

    def recorded(eliminate):
        def recorded_eliminate(m, ncols):
            eliminated.append([row[:ncols] for row in m])
            return eliminate(m, ncols)
        return recorded_eliminate

    monkeypatch.setattr(monoids, "kernel_basis", counted_kernel)
    monkeypatch.setattr(monoids, "_hermite", counted_hermite)
    monkeypatch.setattr(intlinalg, "_eliminate", recorded(intlinalg._eliminate))
    monkeypatch.setattr(lattice, "_eliminate", recorded(lattice._eliminate))
    for face in faces(cone):
        clear_caches()
        calls.clear(), transforms.clear(), eliminated.clear()
        monoid_of_cone(face)
        reductions = [] if face.dim == 4 else ["kernel_basis", "_hermite"]
        assert calls == reductions, face
        assert not any(m in transforms for m in eliminated), face


@settings(max_examples=150, deadline=None)
@given(pointed_cones(min_dim=2))
@example(Cone(4, ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 3, 1))))
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0))))  # units in every face
@example(Cone(3, ((1, 0, 0), (1, 2, 0), (1, 1, 5))))
@example(Cone(2, ((0, 1), (5, -1))))
def test_the_monoid_of_each_face_is_localized_from_the_cone(cone):
    # dscheme_of_fan reads every face from the cone's monoid and the values
    # of its generators on the cone's rays, the zero face included; each
    # local monoid is the one monoid_of_cone builds for the face alone
    fan = Fan(cone.ambient_dim, faces(cone))
    with mock.patch.object(monoids, "monoid_of_cone", wraps=monoid_of_cone) as spy:
        ds = dscheme_of_fan(fan)
    assert [call.args for call in spy.call_args_list] == [(cone,)]
    for point, face in zip(ds.points, fan.cones):
        expected = monoid_of_cone.__wrapped__(face)
        assert point.local_monoid == expected
        assert (point.local_monoid.generators, point.local_monoid.unit_basis) == (
            expected.generators, expected.unit_basis)


def test_a_face_is_localized_by_one_hermite_reduction_with_no_inverse(monkeypatch):
    # a face with units and a pointed part reduces [B^T | I] once, carrying
    # no inverse (inv=None), and no row_hermite_transform runs; the full
    # face is the cone's own monoid, and the zero face is all units
    cone = Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)))
    monoid = monoid_of_cone(cone)
    values = monoids._ray_values(monoid.all_generators(), cone.rays)
    expected = {face: monoid_of_cone.__wrapped__(face) for face in faces(cone)}
    inverses = []
    hermite = monoids._hermite

    def counted_hermite(m, ncols, inv=None):
        inverses.append(inv)
        return hermite(m, ncols, inv)

    def forbidden(*args):
        raise AssertionError("row_hermite_transform called")

    monkeypatch.setattr(monoids, "_hermite", counted_hermite)
    monkeypatch.setattr(lattice, "row_hermite_transform", forbidden)
    monkeypatch.setattr(intlinalg, "row_hermite_transform", forbidden)
    for face in faces(cone):
        inverses.clear()
        local = monoids._localization(monoid, values, face)
        assert (local.generators, local.unit_basis) == (
            expected[face].generators, expected[face].unit_basis)
        assert inverses == ([] if face.dim in (0, 4) else [None]), face


@pytest.mark.parametrize(
    "rays",
    [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 5)),
        ((1, 0, 0), (1, 2, 0), (1, 1, 5)),
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)),
        ((1,),),
        ((1, 0, 0, 0), (1, 2, 0, 0), (1, 1, 5, 0)),  # read through the unit section
        ((1, 0, 0), (1, 2, 0)),  # the same to a plane, whose basis takes no simplex
    ],
    ids=str,
)
def test_the_monoid_of_a_simplicial_cone_takes_one_elimination(monkeypatch, rays):
    # _dual_pair's elimination of the rays (or of their section coordinates
    # in Z^d, for a cone of dimension d < n) gives the dual, and the dual's
    # parallelepiped is read from it (_dual_simplex): no second elimination
    cone = Cone(len(rays[0]), rays)
    ref = three_branch_monoid_of_cone(cone)
    clear_caches()
    eliminated = []
    eliminate = intlinalg._eliminate

    def counted(m, ncols):
        eliminated.append(ncols)
        return eliminate(m, ncols)

    monkeypatch.setattr(intlinalg, "_eliminate", counted)
    monkeypatch.setattr(lattice, "_eliminate", counted)
    m = monoid_of_cone(cone)
    assert (m.generators, m.unit_basis) == (ref.generators, ref.unit_basis)
    assert len(eliminated) == 1


@st.composite
def full_simplicial_cones(draw):
    """Cones on n independent rays in Z^n, 1 <= n <= 4."""
    n = draw(st.integers(1, 4))
    ray = st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(primitive)
    rays = draw(st.lists(ray, min_size=n, max_size=n).filter(lambda rs: mat_rank(rs) == n))
    return Cone(n, tuple(rays))


@settings(max_examples=150, deadline=None)
@given(full_simplicial_cones())
@example(Cone(3, ((1, 0, 0), (1, 2, 0), (1, 1, 5))))
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5))))
def test_the_dual_simplex_is_the_simplex_of_the_dual_up_to_sign(cone):
    n = cone.ambient_dim
    dual, _ = lattice._dual_pair(cone.rays, n)
    volume, inverse = lattice._dual_simplex(cone.rays, dual)
    s, scaled = lattice._simplex.__wrapped__(tuple(zip(*dual)))
    sign = 1 if s > 0 else -1
    assert (volume, inverse) == (abs(s), [[sign * x for x in row] for row in scaled])


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
@example(Cone(4, ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 3, 1))))
@example(Cone(3, ((1, 0, 0),)))
def test_spec_reads_the_valid_face_fan_of_its_cone_as_dscheme_does(cone):
    # spec does not validate the faces of its cone: they are a valid fan, and
    # the payload is that of dscheme_of_fan, which validates
    fan = Fan(cone.ambient_dim, faces(cone))
    assert lattice.validate_fan(fan).ok
    arg = ";".join(",".join(map(str, r)) for r in cone.rays)
    payload, code = cli.cmd_spec(SimpleNamespace(cone=arg))
    assert code == 0
    assert payload == cli._dscheme_payload(dscheme_of_fan(fan))


def test_a_fan_reads_each_cone_from_one_maximal_cone(corpus_fan):
    with mock.patch.object(monoids, "monoid_of_cone", wraps=monoid_of_cone) as spy:
        ds = dscheme_of_fan(corpus_fan)
    read = [call.args[0] for call in spy.call_args_list]
    tops = [corpus_fan.cones[j] for j in lattice.maximal_cones(corpus_fan)]
    assert len(read) == len(tops) and set(read) == set(tops)
    for point, cone in zip(ds.points, corpus_fan.cones):
        assert point.local_monoid == monoid_of_cone.__wrapped__(cone)


def test_spec_counts():
    assert len(spec(monoid_of_cone(SINGULAR_CONE))) == 4
    assert len(spec(monoid_of_cone(zero_cone(3)))) == 1
    assert len(spec(monoid_of_cone(Cone(1, ((1,),))))) == 2


def test_spec_matches_face_lattice(corpus_fan):
    for cone in corpus_fan.cones:
        primes = spec(monoid_of_cone(cone))
        fs = faces(cone)
        assert len(primes) == len(fs)
        for p, f in zip(primes, fs):
            assert p.face == f
            assert p.complement_rank == corpus_fan.ambient_dim - f.dim
        # the maximal ideal sits at the cone itself: smallest complement rank
        assert min(p.complement_rank for p in primes) == corpus_fan.ambient_dim - cone.dim


def test_spec_requires_source_cone():
    free = AffineMonoid(2, ((1, 0), (0, 1)), (), None)
    with pytest.raises(MissingSourceCone):
        spec(free)


def test_dscheme_p1():
    ds = dscheme_of_fan(standard_fan("projective_space", 1))
    assert [p.rank for p in ds.points] == [1, 0, 0]
    assert len(ds.generic_points()) == 1
    assert ds.specialization == ((0, 1), (0, 2))


def test_dscheme_torus():
    ds = dscheme_of_fan(standard_fan("torus", 3))
    assert len(ds.points) == 1
    assert ds.points[0].rank == 3


def test_dscheme_p2_ranks():
    ds = dscheme_of_fan(standard_fan("projective_space", 2))
    assert sorted((p.rank for p in ds.points), reverse=True) == [2, 1, 1, 1, 0, 0, 0]


def test_dscheme_matches_fan(corpus_fan):
    ds = dscheme_of_fan(corpus_fan)
    assert len(ds.points) == len(corpus_fan.cones)
    for p, cone in zip(ds.points, corpus_fan.cones):
        assert p.cone == cone
        assert p.rank == corpus_fan.ambient_dim - cone.dim
        assert p.local_monoid.unit_rank == p.rank
    # specialization order is exactly cone inclusion, checked by membership
    inclusion = set()
    for i, small in enumerate(corpus_fan.cones):
        for j, big in enumerate(corpus_fan.cones):
            if i != j and all(big.contains(r) for r in small.rays):
                inclusion.add((i, j))
    assert set(ds.specialization) == inclusion
    # exactly one generic point per (connected) fan
    assert len(ds.generic_points()) == 1

"""Monoids of cones, spectra, and fan monoid schemes."""

import os
import pickle
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CONE_CORPUS, FAN_CORPUS, SINGULAR_CONE, clear_caches
from references import (
    dumps,
    monoid_via_dual,
    scanned_face_relation,
    solve_columns_int,
    three_branch_monoid_of_cone,
)
from test_lattice import CUBE_CONE as CUBE, assert_constructor_agrees, cut_spy, simplex_spy, walks

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
def pointed_cones(draw, min_dim=1, max_dim=4):
    """Pointed cones on 1 to n+2 rays in Z^n (min_dim <= n <= max_dim), all
    positive on a drawn functional; many of them lower-dimensional."""
    n = draw(st.integers(min_dim, max_dim))
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
    assert caught.value.size == 5002  # the refusal keeps the count it refused


def test_a_lower_dimensional_cone_that_is_not_simplicial_has_the_reference_monoid():
    # its quotient's dual is triangulated, on a count that follows the
    # coordinates the dual is read in; the basis does not
    cone = Cone(4, ((1, 2, 1, -1), (1, 4, 1, -3), (-4, -1, -4, -1), (-3, 0, -3, 2)))
    assert cone.dim == 3 and not cone.is_simplicial
    ref = three_branch_monoid_of_cone(cone)
    clear_caches()
    m = monoid_of_cone(cone)
    assert (m.generators, m.unit_basis) == (ref.generators, ref.unit_basis)


def test_a_face_changes_coordinates_by_two_hermite_reductions(monkeypatch):
    # the units come back from kernel_basis in Hermite form (one reduction of
    # its own), the section from two more, of [B^T | I] and of [U[r:]^T | I],
    # neither carrying an inverse; the full-dimensional face takes no kernel
    # and no transform, only the Hermite basis that indexes its dual's five
    # parallelepiped points; no face takes a Bareiss elimination of a
    # transform (unimodular matrices)
    cone = Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5)))
    calls, transforms, eliminated = [], [], []
    kernel_basis, hermite = monoids.kernel_basis, intlinalg._hermite

    def counted_kernel(*args):
        calls.append("kernel_basis")
        return kernel_basis(*args)

    def counted_hermite(m, ncols):
        calls.append("_hermite")
        rank = hermite(m, ncols)
        transforms.append([row[ncols:] for row in m])
        return rank

    def recorded(eliminate):
        def recorded_eliminate(m, ncols):
            eliminated.append([row[:ncols] for row in m])
            return eliminate(m, ncols)
        return recorded_eliminate

    monkeypatch.setattr(monoids, "kernel_basis", counted_kernel)
    monkeypatch.setattr(intlinalg, "_hermite", counted_hermite)
    monkeypatch.setattr(intlinalg, "_eliminate", recorded(intlinalg._eliminate))
    monkeypatch.setattr(lattice, "_eliminate", recorded(lattice._eliminate))
    for face in faces(cone):
        clear_caches()
        calls.clear(), transforms.clear(), eliminated.clear()
        monoid_of_cone(face)
        reductions = ["_hermite"] if face.dim == 4 else ["kernel_basis"] + ["_hermite"] * 3
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


def unit_pivots(basis) -> bool:
    """Whether the first nonzero entry of each row is 1."""
    return all(next(x for x in row if x) == 1 for row in basis)


# a 4-D cone and a 3-D cone whose faces take both lifts: unit bases with pivots
# 1 and with a pivot of 5, 2 or 10; and faces whose pointed parts are N^k and not
LOCALIZED = [
    Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5))),
    Cone(3, ((1, 0, 0), (1, 2, 0), (1, 1, 5))),
]


def test_a_face_is_localized_by_one_hermite_reduction_with_no_inverse(monkeypatch):
    # a face with units and a pointed part takes the Hermite basis B of its
    # units; when every pivot of B is 1 its lifts are the remainders of the
    # reduction by B, with no second reduction, and otherwise it reduces
    # [B^T | I] once, with no inverse (a reduction takes the matrix and its
    # column count, nothing more); the full face is the cone's own monoid,
    # and the zero face is all units
    reductions = []
    hermite = intlinalg._hermite

    def counted_hermite(m, ncols):
        reductions.append("[B^T | I]" if len(m[0]) > ncols else "Hermite basis")
        return hermite(m, ncols)

    for cone in LOCALIZED:
        monoid = monoid_of_cone(cone)
        table = monoids._value_table(monoid)
        expected = {face: monoid_of_cone.__wrapped__(face) for face in faces(cone)}
        pivots = set()
        monkeypatch.setattr(intlinalg, "_hermite", counted_hermite)
        for face in faces(cone):
            reductions.clear()
            local = monoids._localization(monoid, table, face)
            assert (local.generators, local.unit_basis) == (
                expected[face].generators, expected[face].unit_basis)
            if face.dim in (0, cone.ambient_dim):
                assert reductions == [], face
                continue
            one = unit_pivots(local.unit_basis)
            pivots.add(one)
            assert reductions == (["Hermite basis"] if one else ["Hermite basis", "[B^T | I]"]), face
        monkeypatch.undo()
        assert pivots == {True, False}, cone


def localized_sides(cone: Cone) -> set[tuple[str, bool]]:
    """Check :func:`monoids._localization` of each face of ``cone`` against
    ``monoid_of_cone`` of the face alone, and return the sides of the two
    shortcuts that the faces took: ("free", True) for a pointed part read as
    N^k with no irreducible reduction, ("unit pivots", True) for lifts read
    from the Hermite reduction by the unit basis with no transform of it."""
    monoid = monoid_of_cone(cone)
    table = monoids._value_table(monoid)
    expected = [(face, monoid_of_cone.__wrapped__(face)) for face in faces(cone)]
    sides = set()
    with mock.patch.object(monoids, "_irreducibles", wraps=monoids._irreducibles) as irreducibles, \
            mock.patch.object(monoids, "_unit_transform", wraps=monoids._unit_transform) as transform:
        for face, ref in expected:
            irreducibles.reset_mock(), transform.reset_mock()
            local = monoids._localization(monoid, table, face)
            assert (local.generators, local.unit_basis) == (ref.generators, ref.unit_basis), face
            if face == cone or not ref.generators:
                continue
            # the pointed part is free, N^k, exactly when its Hilbert basis
            # has one element per dimension (a face over a quadrilateral may
            # have one per ray and still not be free)
            free = len(ref.generators) == face.dim
            one = unit_pivots(ref.unit_basis)
            assert irreducibles.called != free and transform.called != one, face
            sides |= {("free", free), ("unit pivots", one)}
    return sides


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
@example(LOCALIZED[0])
@example(Cone(4, ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 3, 1))))
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0))))  # units in every face
@example(Cone(2, ((0, 1), (5, -1))))
# a facet on four rays whose pointed part has four generators, and is not free
@example(Cone(4, ((-1, 0, 1, -1), (-1, -1, 0, 1), (-1, -1, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, -1))))
# a simplicial facet of multiplicity 10 on three rays whose value vectors hold
# one of the three unit vectors (k - 1 of k would bring the last: each ray is
# primitive, so some value on it is 1)
@example(Cone(4, ((1, 0, 0, 0), (1, 2, 0, 0), (1, 1, 5, 0), (0, 0, 0, 1))))
def test_each_face_takes_the_shortcuts_that_it_decides(cone):
    localized_sides(cone)


def test_each_side_of_both_shortcuts_is_taken():
    # every cone here has faces whose unit bases have pivots of 1 and faces
    # with a pivot past 1; the 3-D cone of LOCALIZED and the cone over five
    # points of the moment curve have faces that are not unimodular
    sides = set().union(*map(localized_sides, [
        *LOCALIZED, Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 300))),
        Cone(3, tuple((1, t, t * t) for t in range(5))),
    ]))
    assert sides == {(side, taken) for side in ("free", "unit pivots") for taken in (True, False)}


def test_a_monoid_keeps_its_value_table_outside_its_fields():
    # the table is taken on first use and kept; equality, hashing and
    # pickling read the fields alone
    cone = Cone(3, ((1, 0, 0), (1, 2, 0), (1, 1, 5)))
    monoid, fresh = monoid_of_cone(cone), monoid_of_cone.__wrapped__(cone)
    table = monoids._value_table(monoid)
    assert monoids._value_table(monoid) is table and fresh._table is None
    assert monoid == fresh and hash(monoid) == hash(fresh)
    assert pickle.loads(pickle.dumps(monoid))._table is None
    positions, rows = table
    assert positions == {ray: k for k, ray in enumerate(cone.rays)}
    for (g, values, zeros), h in zip(rows, monoid.all_generators()):
        assert g == h and values == tuple(dot(g, ray) for ray in cone.rays)
        assert zeros == sum(1 << k for k, x in enumerate(values) if x == 0)


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
    # _dual_pair's simplex of the rays (or of their section coordinates in
    # Z^d, for a cone of dimension d < n) gives the dual, and the dual's own
    # simplex its parallelepiped, but for a plane's dual, whose basis is a
    # continued fraction: one elimination per simplex for d >= 4, and
    # cofactors, no elimination, below
    cone = Cone(len(rays[0]), rays)
    ref = three_branch_monoid_of_cone(cone)
    clear_caches()
    simplices = simplex_spy(monkeypatch)
    eliminated = []
    eliminate = intlinalg._eliminate

    def counted(m, ncols):
        eliminated.append(ncols)
        return eliminate(m, ncols)

    monkeypatch.setattr(intlinalg, "_eliminate", counted)
    monkeypatch.setattr(lattice, "_eliminate", counted)
    m = monoid_of_cone(cone)
    assert (m.generators, m.unit_basis) == (ref.generators, ref.unit_basis)
    assert len(simplices) == (1 if cone.dim == 2 else 2)
    assert len(eliminated) == (2 if cone.dim >= 4 else 0)


@pytest.mark.parametrize(
    "rays",
    [
        ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)),  # the cone over a square
        # the cone over a cube, whose dual's facets are simplicial
        tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)),
        ((0, 0, 1, 0), (1, 0, 1, 0), (0, 2, 1, 0), (1, 1, 1, 0)),  # read through the unit section
    ],
    ids=str,
)
def test_the_monoid_of_a_non_simplicial_cone_takes_one_dual(rays):
    # the dual's facet normals are the cone's rays in the coordinates the
    # monoid reads it in, so its triangulation and the grading of its
    # Hilbert basis take no second double description, and its dim no rank
    cone = Cone(len(rays[0]), rays)
    assert not cone.is_simplicial
    ref = three_branch_monoid_of_cone(cone)
    clear_caches()
    m = monoid_of_cone(cone)
    assert (m.generators, m.unit_basis) == (ref.generators, ref.unit_basis)
    assert lattice._dual_pair.cache_info().misses == 1


@st.composite
def spec_cones(draw):
    """:func:`pointed_cones` in Z^2 to Z^5 whose monoid lists at most 3,000
    parallelepiped points: some drawn in Z^5 would list millions."""
    cone = draw(pointed_cones(min_dim=2, max_dim=5))
    with mock.patch.dict(os.environ, {"TORIFIED_BUDGET": "3000"}):
        try:
            monoid_of_cone(cone)
        except BudgetExceeded:
            assume(False)
    return cone


@settings(max_examples=150, deadline=None)
@given(spec_cones())
@example(Cone(4, ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 3, 1))))
@example(Cone(3, ((1, 0, 0),)))
@example(Cone(4, ((1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0))))  # a square, not full
@example(Cone(4, tuple((a, b, c, 1) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1))))
# the square pyramid times a 2-D orthant
@example(Cone(5, ((0, 0, 1, 0, 0), (1, 0, 1, 0, 0), (0, 1, 1, 0, 0), (1, 1, 1, 0, 0),
                  (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))))
def test_spec_reads_the_valid_face_fan_of_its_cone_as_dscheme_does(cone):
    # spec builds no fan and does not validate the faces of its cone: they
    # are a valid fan, and the payload is that of dscheme_of_fan, which
    # validates; each point's monoid is that of its face alone, and the
    # specialisations are the face relation that scans find
    fan = Fan(cone.ambient_dim, faces(cone))
    assert lattice.validate_fan(fan).ok
    arg = ";".join(",".join(map(str, r)) for r in cone.rays)
    payload, code = cli.cmd_spec(SimpleNamespace(cone=arg))
    assert code == 0
    assert dumps(payload) == dumps(cli._dscheme_payload(dscheme_of_fan(fan)))
    ds = monoids._cone_dscheme(cone)
    for point, face in zip(ds.points, faces(cone)):
        expected = monoid_of_cone.__wrapped__(face)
        assert (point.cone, point.local_monoid) == (face, expected)
        assert (point.local_monoid.generators, point.local_monoid.unit_basis) == (
            expected.generators, expected.unit_basis)
    assert list(ds.specialization) == scanned_face_relation(fan)


# a 4-D cone on five rays, not simplicial, whose proper faces all are
NON_SIMPLICIAL = Cone(4, ((1, 0, 1, 0), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, 0, 0), (0, 0, -1, 0)))


@settings(max_examples=150, deadline=None)
@given(pointed_cones())
@example(NON_SIMPLICIAL)
@example(Cone(4, ((1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1), (0, -1, 0, 1), (1, 1, 3, 1))))
def test_the_face_fan_is_the_fan_of_the_faces(cone):
    # the relation of the fan of a cone's faces, read from the top cone's
    # face masks, against scans of the faces of every cone
    fan = Fan(cone.ambient_dim, faces(cone))
    relation = fan.face_indices
    assert all(list(ids) == sorted(ids) and j in ids for j, ids in enumerate(relation))
    pairs = sorted((i, j) for j, ids in enumerate(relation) for i in ids if i != j)
    assert pairs == scanned_face_relation(fan)


@pytest.mark.parametrize("cone", [NON_SIMPLICIAL, CUBE], ids=["bipyramid", "cube"])
def test_spec_enumerates_the_faces_of_its_cone_alone(monkeypatch, cone):
    # the faces of the proper faces are read from the top cone's face masks,
    # so the top cone is walked once, by faces, and no fan is built, also
    # where the facets (the cube's squares) are not simplicial; the duals
    # spec takes are those of the top cone's construction, faces and monoid
    clear_caches()
    top = Cone(4, cone.rays)
    faces(top)
    monoid_of_cone(top)
    alone = lattice._dual_pair.cache_info().misses
    clear_caches()
    arg = ";".join(",".join(map(str, r)) for r in cone.rays)
    cuts = cut_spy(monkeypatch)
    with mock.patch.object(Fan, "__post_init__", autospec=True, side_effect=Fan.__post_init__) as built:
        payload, code = cli.cmd_spec(SimpleNamespace(cone=arg))
    assert code == 0
    assert walks(cuts) == faces.cache_info().misses == 1
    faces(cone)  # the one walk was the cone's
    assert faces.cache_info().misses == 1
    assert not built.called
    assert lattice._dual_pair.cache_info().misses == alone
    assert dumps(payload) == dumps(cli._dscheme_payload(dscheme_of_fan(Fan(4, faces(cone)))))


def test_a_fan_reads_each_cone_from_one_maximal_cone(corpus_fan):
    with mock.patch.object(monoids, "monoid_of_cone", wraps=monoid_of_cone) as spy:
        ds = dscheme_of_fan(corpus_fan)
    read = [call.args[0] for call in spy.call_args_list]
    tops = [corpus_fan.cones[j] for j in lattice.maximal_cones(corpus_fan)]
    assert len(read) == len(tops) and set(read) == set(tops)
    for point, cone in zip(ds.points, corpus_fan.cones):
        assert point.local_monoid == monoid_of_cone.__wrapped__(cone)


GATED_FANS = {**FAN_CORPUS, **{f"P{n}": standard_fan("projective_space", n) for n in range(3, 7)}}


@pytest.mark.parametrize("name", GATED_FANS)
def test_dscheme_counts_its_specialization_pairs_before_listing_them(monkeypatch, name):
    # on a simplicial fan the gate's count from the maximal pass is exact:
    # the D-scheme is listed at that budget and refused, naming it, below
    fan = GATED_FANS[name]
    pairs = len(dscheme_of_fan(fan).specialization)
    if name.startswith("P"):  # the proper ray subsets of P^n, each over its own subsets
        assert pairs == 3 ** (fan.ambient_dim + 1) - 2 ** (fan.ambient_dim + 2) + 1
    monkeypatch.setenv("TORIFIED_BUDGET", str(max(pairs, 1)))
    assert len(dscheme_of_fan(fan).specialization) == pairs
    if pairs > 1:
        monkeypatch.setenv("TORIFIED_BUDGET", str(pairs - 1))
        with pytest.raises(BudgetExceeded) as caught:
            dscheme_of_fan(fan)
        assert caught.value.size == pairs


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

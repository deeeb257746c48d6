"""Point-set functors: group-side evaluation, induced maps, and monoid homs."""

import math
import re
from itertools import product as iproduct

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CONE_CORPUS, FAN_CORPUS, SINGULAR_CONE, clear_caches
from references import (
    compose_maps,
    discover_relations,
    identity_map,
    minors_gcd,
    mu_zero_mul,
    mu_zero_power,
    residue_walk_hom_count,
)
from test_lattice import complete_fans_2d
from test_monoids import pointed_cones as positive_cones

from torified import gadgets, intlinalg, lattice, monoids, torify
from torified.counting import counting_polynomial, eval_counting, oracle_point_count
from torified.errors import (
    BudgetExceeded,
    InvalidCone,
    MissingSourceCone,
    ShapeMismatch,
)
from torified.gadgets import (
    ABELIAN_TYPES_UP_TO_12,
    CyclicMonoidWithZero,
    FiniteAbelianGroup,
    MonoidHom,
    TorifiedMap,
    abelian_group_types,
    cc_points,
    count_monoid_homs,
    enumerate_monoid_homs,
    hom_extend,
    hom_restrict,
    induced_map,
    soule_count_by_faces,
    toric_fq_points_via_homs,
)
from torified.intlinalg import dot, hnf_rows, kernel_basis, mat_rank, primitive
from torified.lattice import Cone, standard_fan, validate_fan, zero_cone
from torified.monoids import AffineMonoid, monoid_of_cone
from torified.torify import (
    Torification,
    Torus,
    check_atlas,
    chevalley_data_sl,
    product,
    torify_affine_space,
    torify_chevalley,
    torify_grassmannian,
    torify_toric,
    torify_torus,
)

Z2 = FiniteAbelianGroup((2,))
TRIVIAL = FiniteAbelianGroup(())


# --- groups ------------------------------------------------------------------------


def test_group_basics():
    d = FiniteAbelianGroup((2, 3))
    assert d.order == 6
    assert len(list(d.elements())) == 6
    assert d.add((1, 2), (1, 2)) == (0, 1)
    assert d.scale(4, (1, 1)) == (0, 1)
    assert TRIVIAL.order == 1 and list(TRIVIAL.elements()) == [()]


def test_abelian_types_complete():
    types = abelian_group_types(12)
    assert len(types) == 17
    orders = sorted(g.order for g in types)
    assert orders.count(8) == 3 and orders.count(4) == 2 and orders.count(12) == 2
    assert len(ABELIAN_TYPES_UP_TO_12) == 17
    assert len(abelian_group_types(4)) == 5


# --- cc points --------------------------------------------------------------------


def test_cc_points_affine_line():
    pts = cc_points(torify_affine_space(1), Z2)
    assert pts.total == 3
    assert pts.count_by_grade() == {0: 1, 1: 2}
    assert pts.is_full
    assert pts.points_by_index == (((),), (((0,),), ((1,),)))


def test_cc_points_trivial_group_counts_tori():
    pts = cc_points(torify_grassmannian(2, 4), TRIVIAL)
    assert pts.total == 35  # = N(2)


def test_cc_points_torus():
    pts = cc_points(torify_torus(3), FiniteAbelianGroup((3,)))
    assert pts.count_by_grade() == {3: 27}


def test_cc_points_budget(monkeypatch):
    t = torify_torus(8)
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    # listing the points is refused; counting them falls back to counts only
    with pytest.raises(BudgetExceeded, match="^429981696 elements exceed the budget of 1000$"):
        induced_map(identity_map(t), FiniteAbelianGroup((12,)))
    pts = cc_points(t, FiniteAbelianGroup((12,)))
    assert not pts.is_full and pts.total == 12**8
    with pytest.raises(BudgetExceeded):
        pts.points(0)


@pytest.mark.parametrize("group", [TRIVIAL, Z2, FiniteAbelianGroup((2, 3))], ids=repr)
@pytest.mark.parametrize(
    "t",
    [
        torify_affine_space(3),
        torify_grassmannian(2, 4),
        torify_chevalley(chevalley_data_sl(2)),
        torify_toric(FAN_CORPUS["P2"]),
    ],
    ids=["A3", "Gr24", "SL2", "P2"],
)
def test_cc_points_share_one_power_per_rank(t, group):
    pts = cc_points(t, group)
    assert pts.is_full
    by_rank = {}
    for i, torus in enumerate(t.tori):
        assert pts.points(i) == tuple(iproduct(group.elements(), repeat=torus.rank))
        assert pts.points(i) is by_rank.setdefault(torus.rank, pts.points(i))
    assert pts.total == sum(group.order**torus.rank for torus in t.tori)
    assert pts.count_by_grade() == {
        r: sum(1 for torus in t.tori if torus.rank == r) * group.order**r for r in by_rank
    }


@pytest.mark.parametrize("group", [TRIVIAL, Z2, FiniteAbelianGroup((2, 3))], ids=repr)
def test_cc_points_parts_form_matches_flat_form(group):
    t = torify_chevalley(chevalley_data_sl(2)).relabeled("g")
    flat = Torification(tuple(t.tori), t.charts)
    assert len(t.parts) > 1
    pts, ref = cc_points(t, group), cc_points(flat, group)
    assert pts.is_full and ref.is_full
    assert pts.total == ref.total
    assert pts.points_by_index == ref.points_by_index
    assert pts.count_by_grade() == ref.count_by_grade()


# --- induced maps ------------------------------------------------------------------


def test_identity_map_is_identity_on_points():
    t = torify_chevalley(chevalley_data_sl(2))
    mapping = induced_map(identity_map(t), Z2)
    assert all(k == v for k, v in mapping.items())


def test_doubling_on_gm_mod_5_is_a_bijection():
    gm = torify_torus(1)
    f = TorifiedMap(gm, gm, (0,), (((2,),),))
    mapping = induced_map(f, FiniteAbelianGroup((5,)))
    assert sorted(mapping.values()) == sorted(mapping.keys())


def test_zero_matrix_is_constant():
    gm = torify_torus(1)
    f = TorifiedMap(gm, gm, (0,), (((0,),),))
    mapping = induced_map(f, FiniteAbelianGroup((4,)))
    assert set(mapping.values()) == {(0, ((0,),))}


def test_functoriality_of_composition():
    gm = torify_torus(1)
    d = FiniteAbelianGroup((5,))
    f = TorifiedMap(gm, gm, (0,), (((2,),),))
    g = TorifiedMap(gm, gm, (0,), (((3,),),))
    gf = compose_maps(g, f)
    assert gf.matrices == (((6,),),)
    m_f, m_g, m_gf = induced_map(f, d), induced_map(g, d), induced_map(gf, d)
    for key, mid in m_f.items():
        assert m_gf[key] == m_g[mid]


def test_grade_behavior():
    # a projection A^1-torification -> point-torification collapses grades as
    # dictated by the index map, and matrix shapes must agree
    src = torify_affine_space(1)
    tgt = torify_affine_space(0)
    f = TorifiedMap(src, tgt, (0, 0), ((), ()))
    mapping = induced_map(f, Z2)
    assert set(mapping.values()) == {(0, ())}
    with pytest.raises(ShapeMismatch):
        TorifiedMap(src, src, (0,), (((1,),),))
    with pytest.raises(ShapeMismatch):
        TorifiedMap(src, tgt, (0, 0), (((1,),), ()))


def test_reduction_commutes_with_induced_map():
    # componentwise reduction Z/4 -> Z/2 commutes with a matrix map
    gm2 = torify_torus(2)
    f = TorifiedMap(gm2, gm2, (0,), (((1, 1), (0, 3)),))
    d4 = FiniteAbelianGroup((4, 4))
    d2 = FiniteAbelianGroup((2, 2))

    def reduce_point(p):
        return tuple(tuple(x % 2 for x in elt) for elt in p)

    m4 = induced_map(f, d4)
    m2 = induced_map(f, d2)
    for (i, x), (j, y) in m4.items():
        assert m2[(i, reduce_point(x))] == (j, reduce_point(y))


READ_BY_RANK = {
    "sl3": lambda: torify_chevalley(chevalley_data_sl(3)),
    "product": lambda: product(torify_toric(FAN_CORPUS["P1"]), torify_affine_space(2)),
}


def refuse_tori(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Torus was built")

    monkeypatch.setattr(torify, "Torus", refuse)


@pytest.mark.parametrize("name", sorted(READ_BY_RANK))
def test_maps_points_and_atlases_read_ranks(name, monkeypatch):
    # none of them builds a torus: shapes, points and coverage are read from
    # the ranks and the charts
    t = READ_BY_RANK[name]()
    refuse_tori(monkeypatch)
    identity = tuple(
        tuple(tuple(int(i == j) for j in range(r)) for i in range(r)) for r in t.ranks()
    )
    f = TorifiedMap(t, t, tuple(range(len(t))), identity)
    pts = cc_points(t, Z2)
    mapping = induced_map(f, Z2)
    assert len(mapping) == pts.total and all(k == v for k, v in mapping.items())
    assert check_atlas(t).ok
    monkeypatch.undo()
    assert f == identity_map(t)


def test_tori_are_built_once_and_kept():
    t = torify_chevalley(chevalley_data_sl(3))
    assert type(t.tori) is tuple and t.tori is t.tori
    assert t.tori == Torification(t.tori, t.charts).tori
    assert [x.rank for x in t.tori] == list(t.ranks())


SHAPE_SOURCE = Torification((Torus(1, "a"), Torus(0, "b"), Torus(2, "c")))
SHAPE_TARGET = Torification((Torus(1, "x"), Torus(2, "y")))
SHAPE_OK = ((0, 1, 1), (((1,),), ((), ()), ((1, 0), (0, 1))))


@pytest.mark.parametrize(
    "index_map, matrices, message",
    [
        ((0, 1), SHAPE_OK[1], "index_map must cover every source torus"),
        (SHAPE_OK[0], SHAPE_OK[1][:2], "one matrix per source torus"),
        ((0, 2, 1), SHAPE_OK[1], "target index 2 out of range"),
        ((-1, 1, 1), SHAPE_OK[1], "target index -1 out of range"),
        ((0, 1, 0), SHAPE_OK[1], "matrix 2 is 2x2, expected 1x2"),
        (SHAPE_OK[0], (((1, 0),), (), ((1, 0), (0, 1))), "matrix 0 is 1x2, expected 1x1"),
        (SHAPE_OK[0], (((1,),), ((7,), (8,)), ((1, 0), (0, 1))), "matrix 1 is 2x1, expected 2x0"),
    ],
)
def test_shape_mismatches_keep_their_messages(index_map, matrices, message, monkeypatch):
    refuse_tori(monkeypatch)
    with pytest.raises(ShapeMismatch) as exc:
        TorifiedMap(SHAPE_SOURCE, SHAPE_TARGET, index_map, matrices)
    assert str(exc.value) == message
    assert TorifiedMap(SHAPE_SOURCE, SHAPE_TARGET, *SHAPE_OK).index_map == SHAPE_OK[0]


# --- monoid homs --------------------------------------------------------------------


def test_soule_count_examples():
    assert soule_count_by_faces(monoid_of_cone(Cone(1, ((1,),))), 2) == 3
    assert soule_count_by_faces(monoid_of_cone(zero_cone(3)), 5) == 125
    assert soule_count_by_faces(monoid_of_cone(SINGULAR_CONE), 1) == 4


def test_soule_count_requires_source():
    with pytest.raises(MissingSourceCone):
        soule_count_by_faces(AffineMonoid(2, ((1, 0),), ()), 2)


def test_hom_enumeration_and_extension_require_source():
    # each reads the value table of the monoid's source cone
    free, target = AffineMonoid(2, ((1, 0), (0, 1)), ()), CyclicMonoidWithZero(2)
    for call in (lambda: enumerate_monoid_homs(free, target), lambda: count_monoid_homs(free, target),
                 lambda: hom_extend(free, target, zero_cone(2), {})):
        with pytest.raises(MissingSourceCone):
            call()


def test_hom_restriction_and_extension_name_a_cone_off_the_source():
    # the zero masks index the source cone's rays: another ray is refused by name
    monoid, target = monoid_of_cone(Cone(2, ((1, 0), (0, 1)))), CyclicMonoidWithZero(2)
    off = Cone(2, ((1, 1),))
    for call in (lambda: hom_extend(monoid, target, off, {}),
                 lambda: hom_restrict(MonoidHom(monoid, target, (0, 0), off))):
        with pytest.raises(InvalidCone, match=re.escape(f"{off} has a ray that is not a ray of")):
            call()


def test_discover_relations():
    assert discover_relations(monoid_of_cone(Cone(2, ((1, 0), (0, 1))))) == []
    rels = discover_relations(monoid_of_cone(SINGULAR_CONE))
    assert len(rels) == 1 and rels[0].coeffs == (1, -2, 1)
    assert rels[0].render() == "g1 + g3 = 2*g2"
    rels = discover_relations(monoid_of_cone(zero_cone(1)))
    assert len(rels) == 1 and rels[0].render() == "g1 + g2 = 0"


def box_kernel_vectors(columns, bound=6):
    """All nonzero kernel vectors with coordinates in [-bound, bound], first
    nonzero coordinate positive, by a depth-first search over coordinates."""
    n = len(columns[0])
    found = []

    def rec(partial, coeffs):
        j = len(coeffs)
        if j == len(columns):
            if any(coeffs) and not any(partial) and next(c for c in coeffs if c) > 0:
                found.append(tuple(coeffs))
            return
        reach = [bound * sum(abs(col[i]) for col in columns[j + 1 :]) for i in range(n)]
        for c in range(-bound, bound + 1):
            nxt = [p + c * x for p, x in zip(partial, columns[j])]
            if all(abs(x) <= r for x, r in zip(nxt, reach)):
                rec(nxt, coeffs + [c])

    rec([0] * n, [])
    return found


def kernel_rank(monoid):
    gens = monoid.all_generators()
    return len(gens) - mat_rank(gens) if gens else 0


RELATION_CORPUS = [
    m
    for m in dict.fromkeys(
        monoid_of_cone(c)
        for c in CONE_CORPUS
        + [
            zero_cone(1),
            Cone(2, ((1, 0), (1, 3))),
            Cone(2, ((1, 0), (1, 6))),
            Cone(2, ((1, 0), (1, 7))),
            Cone(2, ((1, 0), (3, 7))),
            Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 7))),
        ]
    )
    if kernel_rank(m) <= 1
]


@pytest.mark.parametrize("monoid", RELATION_CORPUS, ids=repr)
def test_relations_match_box_search_at_kernel_rank_at_most_one(monoid):
    gens = monoid.all_generators()
    relations = tuple(r.coeffs for r in discover_relations(monoid))
    found = box_kernel_vectors(gens) if gens else []
    if found or not relations:
        assert relations == hnf_rows(found, len(gens))
    else:
        # the primitive relation has a coefficient outside the box
        assert max(abs(c) for c in relations[0]) > 6


def test_relation_corpus_reaches_beyond_the_box():
    gens = monoid_of_cone(Cone(2, ((1, 0), (1, 7)))).all_generators()
    assert box_kernel_vectors(gens) == []
    assert sum(kernel_rank(m) == 1 for m in RELATION_CORPUS) >= 5


generator_sets = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-4, 4)] * n).filter(any), min_size=1, max_size=6
    )
)


@settings(max_examples=150)
@given(generator_sets)
def test_relations_are_a_saturated_kernel_basis(gens):
    n, g = len(gens[0]), len(gens)
    relations = [r.coeffs for r in discover_relations(AffineMonoid(n, tuple(gens), ()))]
    assert len(relations) == g - mat_rank(gens)
    for c in relations:
        assert all(sum(x * v[i] for x, v in zip(c, gens)) == 0 for i in range(n))
    if relations:
        assert minors_gcd(relations, len(relations)) == 1
    assert tuple(relations) == hnf_rows(relations, g)


def test_enumerate_homs_n():
    homs = enumerate_monoid_homs(
        monoid_of_cone(Cone(1, ((1,),))), CyclicMonoidWithZero(2)
    )
    assert len(homs) == 3
    assert sorted(h.values for h in homs) == [(-1,), (0,), (1,)]


def test_enumerate_homs_singular_m1():
    homs = enumerate_monoid_homs(monoid_of_cone(SINGULAR_CONE), CyclicMonoidWithZero(1))
    assert len(homs) == 4
    assert sorted(h.values for h in homs) == [
        (-1, -1, -1),
        (-1, -1, 0),
        (0, -1, -1),
        (0, 0, 0),
    ]
    by_values = {h.values: h.support_face.rays for h in homs}
    assert by_values[(-1, -1, -1)] == ((1, 0), (1, 2))  # everything dies: whole cone
    assert by_values[(0, 0, 0)] == ()  # nothing dies: dense torus
    assert by_values[(0, -1, -1)] == ((1, 0),)
    assert by_values[(-1, -1, 0)] == ((1, 2),)


def _support_face(monoid, values):
    """The face of the source cone cut out by the nonzero generators: its
    rays are those orthogonal to all of them (reference)."""
    cone = monoid.source_cone
    gens = monoid.all_generators()
    nonzero = [g for g, v in zip(gens, values) if v != CyclicMonoidWithZero.ZERO]
    rays = tuple(r for r in cone.rays if all(dot(g, r) == 0 for g in nonzero))
    return Cone(cone.ambient_dim, rays)


@pytest.mark.parametrize("cone", CONE_CORPUS, ids=str)
def test_homs_with_one_zero_pattern_share_one_support_face(cone):
    monoid = monoid_of_cone(cone)
    target = CyclicMonoidWithZero(2)
    faces_by_pattern = {}
    for h in enumerate_monoid_homs(monoid, target):
        pattern = tuple(v != target.ZERO for v in h.values)
        assert h.support_face is faces_by_pattern.setdefault(pattern, h.support_face)
        assert h.support_face == _support_face(monoid, h.values)


def test_smooth_monoid_hom_count_formula():
    # free part N^k plus units Z^(n-k): (m+1)^k * m^(n-k) maps
    cone = Cone(3, ((1, 0, 0), (0, 1, 0)))
    monoid = monoid_of_cone(cone)
    for m in (1, 2, 3):
        homs = enumerate_monoid_homs(monoid, CyclicMonoidWithZero(m))
        assert len(homs) == (m + 1) ** 2 * m


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("TORIFIED_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        enumerate_monoid_homs(monoid_of_cone(zero_cone(3)), CyclicMonoidWithZero(9))


CORPUS_FOR_AGREEMENT = [
    Cone(1, ((1,),)),
    Cone(2, ((1, 0), (0, 1))),
    Cone(2, ((1, 0),)),
    zero_cone(1),
    zero_cone(2),
    Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    Cone(3, ((1, 0, 0), (0, 1, 0))),
    SINGULAR_CONE,
]


@pytest.mark.parametrize("m", range(1, 7))
def test_face_formula_agrees_with_enumeration(m):
    target = CyclicMonoidWithZero(m)
    for cone in CORPUS_FOR_AGREEMENT:
        monoid = monoid_of_cone(cone)
        homs = enumerate_monoid_homs(monoid, target)
        assert len(homs) == soule_count_by_faces(monoid, m), cone


@pytest.mark.parametrize("m", range(1, 7))
def test_restrict_extend_round_trip(m):
    target = CyclicMonoidWithZero(m)
    for cone in CORPUS_FOR_AGREEMENT:
        monoid = monoid_of_cone(cone)
        homs = enumerate_monoid_homs(monoid, target)
        seen = set()
        for h in homs:
            face, unit_values = hom_restrict(h)
            again = hom_extend(monoid, target, face, unit_values)
            assert again.values == h.values
            seen.add((face.rays, tuple(sorted(unit_values.items()))))
        # the restriction data separates homs: distinct faces or characters
        assert len(seen) == len(homs)


def test_images_over_distinct_faces_are_disjoint():
    target = CyclicMonoidWithZero(3)
    monoid = monoid_of_cone(SINGULAR_CONE)
    homs = enumerate_monoid_homs(monoid, target)
    by_face = {}
    for h in homs:
        by_face.setdefault(h.support_face.rays, set()).add(h.values)
    face_sets = list(by_face.values())
    for i in range(len(face_sets)):
        for j in range(i + 1, len(face_sets)):
            assert not (face_sets[i] & face_sets[j])


def _relation_satisfied(target, relation, values):
    def side(exps):
        acc = 0  # identity exponent
        for e, v in zip(exps, values):
            if e:
                acc = mu_zero_mul(target.m, acc, mu_zero_power(target.m, v, e))
        return acc

    return side(relation.lhs) == side(relation.rhs)


def all_assignment_homs(monoid, target, assignments=None):
    """Every assignment of target elements to the generators that satisfies a
    lattice basis of the relations, zero absorbing.  Once the kernel rank is
    2 or more this over-counts: a lattice basis does not generate the
    monoid's congruence.  ``assignments`` narrows the loop over all of them,
    in their order."""
    relations = discover_relations(monoid)
    if assignments is None:
        assignments = iproduct(target.elements(), repeat=len(monoid.all_generators()))
    return [
        values
        for values in assignments
        if all(_relation_satisfied(target, rel, values) for rel in relations)
    ]


def is_face_pattern(monoid, values):
    """Some u in the source cone vanishes on the nonzero generators and is
    positive on the rest: the sum of the cone's rays orthogonal to the
    nonzero generators is such a u whenever one exists."""
    cone = monoid.source_cone
    gens = monoid.all_generators()
    nonzero = [g for g, v in zip(gens, values) if v != CyclicMonoidWithZero.ZERO]
    rays = [r for r in cone.rays if all(dot(g, r) == 0 for g in nonzero)]
    u = [sum(r[i] for r in rays) for i in range(cone.ambient_dim)]
    return all(dot(u, g) > 0 for g, v in zip(gens, values) if v == CyclicMonoidWithZero.ZERO)


def is_character_restriction(monoid, target, values):
    """The nonzero values are <w, g> mod m for some w in (Z/m)^n.  On a face
    pattern the nonzero generators span a saturated sublattice, a direct
    summand of Z^n, so every group hom on it is such a restriction."""
    gens = monoid.all_generators()
    nonzero = [(g, v) for g, v in zip(gens, values) if v != target.ZERO]
    return any(
        all(dot(w, g) % target.m == v for g, v in nonzero)
        for w in iproduct(range(target.m), repeat=monoid.ambient_rank)
    )


def oracle_homs(monoid, target, assignments=None):
    """The all-assignments loop, filtered to face patterns whose values are
    the restriction of a character (reference)."""
    return [
        values
        for values in all_assignment_homs(monoid, target, assignments)
        if is_face_pattern(monoid, values)
        and is_character_restriction(monoid, target, values)
    ]


def character_assignments(monoid, target):
    """The assignments that :func:`oracle_homs` can keep, sorted as it lists
    them: zeros in a pattern that is_face_pattern accepts, and elsewhere the
    values of a character w in (Z/m)^n.  There are 2^g patterns and m^n
    characters to try, not (m+1)^g assignments."""
    gens = monoid.all_generators()
    kept = set()
    for zero in iproduct((False, True), repeat=len(gens)):
        if is_face_pattern(monoid, [target.ZERO if z else 0 for z in zero]):
            for w in iproduct(range(target.m), repeat=monoid.ambient_rank):
                kept.add(tuple(target.ZERO if z else dot(w, g) % target.m
                               for z, g in zip(zero, gens)))
    return sorted(kept)


@st.composite
def pointed_cones(draw, dims=(2, 3)):
    n = draw(st.sampled_from(dims))
    ray = st.tuples(*[st.integers(-3, 3)] * n).filter(any).map(primitive)
    rays = draw(st.lists(ray, min_size=1, max_size=n + 1, unique=True))
    try:
        return Cone(n, tuple(rays))
    except InvalidCone:  # contains a line
        assume(False)


@settings(max_examples=60)
@given(pointed_cones(), st.sampled_from((1, 2, 3)))
@example(Cone(2, ((1, 0), (2, 5))), 2)
@example(Cone(2, ((1, 0), (3, 7))), 2)
@example(Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 3))), 2)
@example(Cone(3, ((-1, 0, 0), (-1, 1, -1), (3, -2, -2))), 2)
# one relation among the 5 generators, with a coefficient -2 that is 1 mod 3
@example(Cone(4, ((0, 1, 1, -1), (1, 0, 1, 0), (0, -1, -1, 0), (0, 1, -1, 1))), 3)
# no relation among the generators on any face
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), 3)
def test_homs_match_face_formula_and_oracle(cone, m):
    monoid = monoid_of_cone(cone)
    target = CyclicMonoidWithZero(m)
    assignments = target.order ** len(monoid.all_generators())
    assume(assignments <= 10**5)
    homs = enumerate_monoid_homs(monoid, target)
    assert len(homs) == soule_count_by_faces(monoid, m)
    assert [h.values for h in homs] == sorted(h.values for h in homs)
    if assignments <= 3000:
        assert [h.values for h in homs] == oracle_homs(monoid, target)
        assert oracle_homs(monoid, target, character_assignments(monoid, target)) == [
            h.values for h in homs
        ]


def test_a_hand_built_monoid_keeps_the_relations_of_its_faces():
    # (0, 2) = 2 (0, 1): on the zero face S_τ has n - dim τ = 2 elements but
    # rank 1, which leaves 3 maps of 9 there; counting m^(n - dim τ) would
    # give 12.  Only a cone's own monoid has S_τ spanning τ^⊥
    monoid = AffineMonoid(2, ((0, 1), (0, 2)), (), Cone(2, ((1, 0),)))
    target = CyclicMonoidWithZero(3)
    assert count_monoid_homs(monoid, target) == 6
    assert len(enumerate_monoid_homs(monoid, target)) == 6


def test_a_hand_built_monoid_of_a_cone_over_the_budget_is_still_counted(monkeypatch):
    # the cone's own monoid has 5,002 generators, over a budget of 1,000; the
    # count of the hand-built one never builds it
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    clear_caches()
    monoid = AffineMonoid(2, ((0, 1), (1, 0)), (), Cone(2, ((0, 1), (5001, -1))))
    assert count_monoid_homs(monoid, CyclicMonoidWithZero(2)) == 8


@pytest.mark.parametrize(
    "cone",
    [SINGULAR_CONE, Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 5))),
     Cone(4, ((0, 1, 1, -1), (1, 0, 1, 0), (0, -1, -1, 0), (0, 1, -1, 1)))],
    ids=str,
)
def test_the_count_takes_no_kernel_and_no_budget(monkeypatch, cone):
    # each of these cones has faces with and without relations among S_τ;
    # the count and the listing read the Hermite basis of each, take no
    # kernel, and only the listing checks the budget
    monoid = monoid_of_cone(cone)
    target = CyclicMonoidWithZero(3)
    expected = soule_count_by_faces(monoid, 3)

    def refuse(*args):
        raise AssertionError("called a kernel or the budget")

    assert not hasattr(gadgets, "kernel_basis")
    for module in (intlinalg, lattice, monoids):
        monkeypatch.setattr(module, "kernel_basis", refuse)
    assert len(enumerate_monoid_homs(monoid, target)) == expected
    monkeypatch.setattr(gadgets, "check_budget", refuse)
    assert count_monoid_homs(monoid, target) == expected


@settings(max_examples=60)
@given(pointed_cones(dims=(1, 2, 3)), st.sampled_from((1, 2, 3)))
@example(Cone(3, ((-1, 0, 0), (-1, 1, -1), (3, -2, -2))), 2)  # kernel rank two
@example(Cone(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 5))), 2)
@example(zero_cone(2), 3)
@example(Cone(1, ((1,),)), 1)
def test_count_is_the_number_of_enumerated_homs(cone, m):
    monoid = monoid_of_cone(cone)
    target = CyclicMonoidWithZero(m)
    count = count_monoid_homs(monoid, target)
    assume(count <= 10**4)
    assert count == len(enumerate_monoid_homs(monoid, target))
    # the listing is refused past the number of maps; the count lists nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TORIFIED_BUDGET", str(count))
        assert len(enumerate_monoid_homs(monoid, target)) == count
        mp.setenv("TORIFIED_BUDGET", str(count - 1))
        with pytest.raises(BudgetExceeded, match=f"^{count} maps exceed the budget"):
            enumerate_monoid_homs(monoid, target)
        assert count_monoid_homs(monoid, target) == count


@st.composite
def relation_rich_cones(draw):
    """Cones whose monoids have many relations: the plane cone on (0, 1) and
    (b, -c), whose dual has up to b + 1 basis elements, placed in Z^2 or,
    with a unit (0, 0, +-1), in Z^3."""
    b = draw(st.integers(1, 7))
    c = draw(st.integers(1, b).filter(lambda c: math.gcd(b, c) == 1))
    if draw(st.booleans()):
        return Cone(2, ((0, 1), (b, -c)))
    return Cone(3, ((0, 1, 0), (b, -c, 0)))


@settings(max_examples=150, deadline=None)
@given(pointed_cones(dims=(1, 2, 3)) | relation_rich_cones(), st.integers(1, 4))
@example(Cone(2, ((0, 1), (5, -1))), 4)  # 6 generators, kernel rank 4
@example(Cone(2, ((0, 1), (7, -1))), 3)  # 8 generators, kernel rank 6
@example(Cone(3, ((0, 1, 0), (5, -1, 0))), 2)  # 6 generators and 2 units: rank 5
@example(Cone(3, ((-1, 0, 0), (-1, 1, -1), (3, -2, -2))), 4)
def test_counting_by_residues_gives_the_number_of_listed_homs(cone, m):
    # several relations meet mod m on the faces whose support is large
    monoid = monoid_of_cone(cone)
    g = len(monoid.all_generators())
    assume(m**g <= 5000 and (m + 1) ** g <= 10**6)  # listable, and within the budget
    target = CyclicMonoidWithZero(m)
    assert count_monoid_homs(monoid, target) == len(enumerate_monoid_homs(monoid, target))


@st.composite
def hand_built_monoids(draw):
    """A monoid on a few random elements of a cone's dual monoid, nonnegative
    combinations of its generators, and with or without units: random
    nonzero combinations of its unit basis, a basis of the cone's σ^⊥."""
    cone = draw(positive_cones())
    own = monoid_of_cone(cone)
    gens = own.all_generators()
    n = cone.ambient_dim

    def combination(vectors, coefficients):
        picks = draw(st.lists(coefficients, min_size=len(vectors), max_size=len(vectors)))
        return tuple(sum(c * v[k] for c, v in zip(picks, vectors)) for k in range(n))

    generators = [combination(gens, st.integers(0, 2)) for _ in range(draw(st.integers(0, 4)))]
    units = []
    if own.unit_basis and draw(st.booleans()):
        units = [combination(own.unit_basis, st.integers(-2, 2)) for _ in range(draw(st.integers(1, 2)))]
        assume(all(any(u) for u in units))
    return AffineMonoid(n, tuple(generators), tuple(units), cone)


def assert_homs_of_their_faces(monoid, target, homs):
    """Each face's maps are distinct, zero off the generators orthogonal to
    it, and on those kill every integer relation among them mod m, so each is
    a hom from the lattice they span.  A face has no more such homs than its
    share of the count, so with the count equal to the residue walk's this
    pins the listing down."""
    gens = monoid.all_generators()
    by_face = {}
    for h in homs:
        by_face.setdefault(h.support_face, []).append(h.values)
    for face, listed in by_face.items():
        support = [i for i, g in enumerate(gens) if all(dot(g, r) == 0 for r in face.rays)]
        columns = [[gens[i][k] for i in support] for k in range(monoid.ambient_rank)]
        relations = kernel_basis(columns, len(support))
        assert len(set(listed)) == len(listed)
        for values in listed:
            assert [i for i, v in enumerate(values) if v != target.ZERO] == support
            assert all(sum(r * values[i] for r, i in zip(rel, support)) % target.m == 0
                       for rel in relations)


@settings(max_examples=150, deadline=None)
@given(positive_cones().map(monoid_of_cone) | hand_built_monoids(), st.integers(1, 4))
@example(monoid_of_cone(Cone(3, ((-1, 0, 0), (-1, 1, -1), (3, -2, -2)))), 2)  # kernel rank two
@example(AffineMonoid(2, ((0, 1), (0, 2)), (), Cone(2, ((1, 0),))), 3)  # 6 maps
@example(AffineMonoid(2, ((0, 1), (1, 0)), (), Cone(2, ((0, 1), (5001, -1)))), 2)  # 5,002 in its cone's
def test_the_count_is_the_residue_walk_and_the_listing(monoid, m):
    g = len(monoid.all_generators())
    assume(m**g <= 10**5)  # the residue walk carries up to m^relations residue vectors
    target = CyclicMonoidWithZero(m)
    count = count_monoid_homs(monoid, target)
    assert count == residue_walk_hom_count(monoid, m)
    if count <= 5000:
        homs = enumerate_monoid_homs(monoid, target)
        assert count == len(homs)
        assert_homs_of_their_faces(monoid, target, homs)
        # the oracle reads the faces of a cone's own monoid, which a hand-built
        # one need not have: the 6-map example lists each map on both faces
        if target.order**g <= 3000 and monoid == monoid_of_cone(monoid.source_cone):
            assert [h.values for h in homs] == oracle_homs(monoid, target)


def test_hom_properties_reach_kernel_rank_two():
    # the relation-only loop over-counts here, the face-by-face one does not
    monoid = monoid_of_cone(Cone(3, ((-1, 0, 0), (-1, 1, -1), (3, -2, -2))))
    target = CyclicMonoidWithZero(2)
    assert kernel_rank(monoid) >= 2
    assert len(enumerate_monoid_homs(monoid, target)) == 27
    assert len(all_assignment_homs(monoid, target)) > 27
    assert len([v for v in all_assignment_homs(monoid, target) if is_face_pattern(monoid, v)]) > 27


# --- toric points via homs ------------------------------------------------------------


def test_toric_points_via_homs_examples():
    assert toric_fq_points_via_homs(FAN_CORPUS["P1"], 4) == 5
    assert toric_fq_points_via_homs(standard_fan("torus", 2), 3) == 4
    assert toric_fq_points_via_homs(FAN_CORPUS["P2"], 2) == 7


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_toric_points_via_homs_matches_oracle(q, corpus_fan):
    assert toric_fq_points_via_homs(corpus_fan, q) == oracle_point_count(
        "toric", corpus_fan, q
    )


@settings(max_examples=30)
@given(complete_fans_2d(), st.sampled_from((2, 3, 4)))
def test_toric_points_via_homs_on_random_complete_fans(fan, q):
    assume(validate_fan(fan).ok)
    assert toric_fq_points_via_homs(fan, q) == oracle_point_count("toric", fan, q)


def test_toric_points_counts_only_path(monkeypatch):
    # a tiny budget gates listings; the local counts list nothing
    fan = FAN_CORPUS["P2"]
    monkeypatch.setenv("TORIFIED_BUDGET", "1")
    assert toric_fq_points_via_homs(fan, 5) == oracle_point_count("toric", fan, 5)


def test_toric_points_never_count_by_the_face_formula(monkeypatch):
    # each cone of the singular fan has 3 or 4 generators, so q^3 or q^4
    # assignments at q = 5, over a budget of 50 that its Hilbert bases stay within
    fan = FAN_CORPUS["singular"]
    expected = oracle_point_count("toric", fan, 5)

    def refuse(*args):
        raise AssertionError("counted by the face formula")

    monkeypatch.setattr(gadgets, "soule_count_by_faces", refuse)
    monkeypatch.setenv("TORIFIED_BUDGET", "50")
    clear_caches()
    assert min(len(monoid_of_cone(c).all_generators()) for c in fan.cones) == 3
    assert toric_fq_points_via_homs(fan, 5) == expected


def test_functor_count_equals_counting_polynomial(corpus_fan):
    t = torify_toric(corpus_fan)
    n_poly = counting_polynomial(t)
    for q in (2, 3, 5):
        group = FiniteAbelianGroup((q - 1,))
        pts = cc_points(t, group)
        assert pts.total == eval_counting(n_poly, q)

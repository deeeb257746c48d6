"""Torification constructors and their delta vectors."""

from collections import Counter
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAN_CORPUS, compositions

from torified.errors import InvalidChevalleyData, InvalidComposition, MissingCharts
from torified.lattice import standard_fan
from torified.torify import (
    ChevalleyData,
    Torification,
    Torus,
    check_atlas,
    chevalley_data_sl,
    delta_affine_space,
    delta_chevalley,
    delta_flag,
    delta_grassmannian,
    delta_projective,
    delta_sl,
    delta_torus,
    delta_vector,
    disjoint_union,
    is_regular_toric,
    permutation_length,
    product,
    schubert_cells_flag,
    schubert_cells_grassmannian,
    schubert_leq,
    torify_affine_space,
    torify_chevalley,
    torify_flag,
    torify_grassmannian,
    torify_point,
    torify_toric,
    torify_torus,
)


def ranks(t: Torification) -> Counter:
    return Counter(x.rank for x in t.tori)


# --- toric ---------------------------------------------------------------------


def test_torify_toric_p1():
    t = torify_toric(FAN_CORPUS["P1"])
    assert delta_vector(t) == (2, 1)
    assert t.charts is not None and len(t.charts) == 2
    assert all(len(c) == 2 for c in t.charts)


def test_torify_toric_torus():
    t = torify_toric(standard_fan("torus", 4))
    assert delta_vector(t) == (0, 0, 0, 0, 1)
    assert t.charts == ((0,),)


def test_torify_toric_p2():
    t = torify_toric(FAN_CORPUS["P2"])
    assert sorted(x.rank for x in t.tori) == [0, 0, 0, 1, 1, 1, 2]
    assert len(t.charts) == 3 and all(len(c) == 4 for c in t.charts)
    assert check_atlas(t).ok


def test_exactly_one_open_torus(corpus_fan):
    t = torify_toric(corpus_fan)
    assert ranks(t)[corpus_fan.ambient_dim] == 1


# --- affine space and combination rules -----------------------------------------


def test_affine_space_deltas():
    assert delta_vector(torify_affine_space(0)) == (1,)
    assert delta_vector(torify_affine_space(2)) == (1, 2, 1)
    assert delta_vector(torify_affine_space(4)) == (1, 4, 6, 4, 1)
    assert delta_vector(torify_affine_space(3)) == (1, 3, 3, 1)


def test_product_rules():
    gm2 = product(torify_torus(1), torify_torus(1))
    assert delta_vector(gm2) == (0, 0, 1)
    a2 = product(torify_affine_space(1), torify_affine_space(1))
    assert delta_vector(a2) == (1, 2, 1)
    g = torify_grassmannian(2, 4)
    assert delta_vector(product(g, torify_point())) == delta_vector(g)
    # charts: product of affine things is affine, with one product chart each
    assert a2.is_affine
    assert not product(g, torify_point()).is_affine


def test_product_delta_is_convolution():
    a = torify_affine_space(2)
    b = torify_grassmannian(1, 3)
    da, db = delta_vector(a), delta_vector(b)
    conv = [0] * (len(da) + len(db) - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    assert delta_vector(product(a, b)) == tuple(conv)
    assert delta_vector(product(a, b)) == delta_vector(product(b, a))
    c = torify_torus(1)
    assert delta_vector(product(product(a, b), c)) == delta_vector(product(a, product(b, c)))


def test_disjoint_union():
    assert delta_vector(disjoint_union([torify_point(), torify_torus(1)])) == (1, 1)
    assert delta_vector(disjoint_union([])) == ()
    got = disjoint_union([torify_affine_space(1), torify_affine_space(1)])
    assert delta_vector(got) == (2, 2)
    assert got.is_affine and len(got.charts) == 2


# --- Schubert cells ---------------------------------------------------------------


def test_schubert_cells_gr24_match_partial_order():
    cells = schubert_cells_grassmannian(2, 4)
    assert dict(cells) == {
        (1, 2): 0,
        (1, 3): 1,
        (1, 4): 2,
        (2, 3): 2,
        (2, 4): 3,
        (3, 4): 4,
    }
    assert schubert_leq((1, 3), (2, 4))
    assert not schubert_leq((2, 3), (1, 4))


def test_schubert_cells_projective_and_point():
    assert [d for _, d in schubert_cells_grassmannian(1, 5)] == [0, 1, 2, 3, 4]
    assert schubert_cells_grassmannian(0, 7) == [((), 0)]


def test_torify_grassmannian_deltas():
    assert delta_vector(torify_grassmannian(2, 4)) == (6, 12, 11, 5, 1)
    assert delta_vector(torify_grassmannian(1, 2)) == (2, 1)
    assert delta_vector(torify_grassmannian(4, 4)) == (1,)
    assert torify_grassmannian(2, 4).charts is None


def test_flag_cells_s3_by_brute_inversions():
    cells = schubert_cells_flag((1, 1, 1))
    assert len(cells) == 6
    brute = sorted(
        sum(1 for i in range(3) for j in range(i + 1, 3) if w[i] > w[j])
        for w in permutations((1, 2, 3))
    )
    assert sorted(d for _, d in cells) == brute == [0, 1, 1, 2, 2, 3]


def test_flag_22_matches_grassmannian_24():
    dims_flag = sorted(d for _, d in schubert_cells_flag((2, 2)))
    dims_gr = sorted(d for _, d in schubert_cells_grassmannian(2, 4))
    assert dims_flag == dims_gr


def test_flag_single_block_is_a_point():
    assert schubert_cells_flag((5,)) == [((1, 2, 3, 4, 5), 0)]
    assert delta_vector(torify_flag((5,))) == (1,)


def test_flag_delta_by_binomial_columns():
    cells = schubert_cells_flag((1, 1, 1))
    dmax = max(d for _, d in cells)
    delta = tuple(
        sum(comb(d, l) for _, d in cells) for l in range(dmax + 1)
    )
    assert delta == (6, 9, 5, 1)
    assert delta_vector(torify_flag((1, 1, 1))) == delta


def test_invalid_composition():
    with pytest.raises(InvalidComposition):
        schubert_cells_flag((2, 0))
    with pytest.raises(InvalidComposition):
        torify_flag((-1, 3))


def test_flag_cell_count_is_factorial():
    for n in range(1, 5):
        t = torify_flag(tuple([1] * n))
        assert delta_vector(t)[0] == factorial(n)


# --- Chevalley -------------------------------------------------------------------


def test_chevalley_sl2():
    data = chevalley_data_sl(2)
    assert (data.torus_rank, data.unipotent_dim, data.cell_dims) == (1, 1, (0, 1))
    t = torify_chevalley(data)
    assert ranks(t) == Counter({1: 2, 2: 3, 3: 1})
    assert t.is_affine and check_atlas(t).ok


def test_chevalley_sl_invariants():
    for n in (1, 2, 3):
        data = chevalley_data_sl(n)
        assert len(data.cell_dims) == factorial(n)
        t = torify_chevalley(data)
        assert t.dim == n * n - 1 or n == 1 and t.dim == 0
        assert data.torus_rank + 2 * data.unipotent_dim == n * n - 1


def test_chevalley_data_validation():
    with pytest.raises(InvalidChevalleyData):
        ChevalleyData(1, 2, (0, 1))  # max cell dim must equal unipotent dim
    with pytest.raises(InvalidChevalleyData):
        ChevalleyData(1, 1, (1, 1))  # needs a zero-dimensional cell
    with pytest.raises(InvalidChevalleyData):
        chevalley_data_sl(0)


def test_chevalley_custom_data():
    # a rank-stripped stand-in for another split type: only the three numbers matter
    data = ChevalleyData(2, 3, (0, 1, 2, 2, 3, 3))
    t = torify_chevalley(data)
    assert t.dim == 3 + 2 + 3
    assert t.is_affine


def test_permutation_length():
    assert permutation_length((1, 2, 3)) == 0
    assert permutation_length((3, 2, 1)) == 3
    assert permutation_length((2, 1, 3)) == 1


# --- delta independence -------------------------------------------------------------


def test_delta_independence_of_construction():
    direct = delta_vector(torify_affine_space(2))
    prod = delta_vector(product(torify_affine_space(1), torify_affine_space(1)))
    toric = delta_vector(torify_toric(standard_fan("affine_space", 2)))
    assert direct == prod == toric == (1, 2, 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_flag_matches_grassmannian(n):
    for k in range(n + 1):
        comp = tuple(d for d in (k, n - k) if d > 0)
        assert delta_vector(torify_flag(comp)) == delta_vector(torify_grassmannian(k, n))


# --- algebraic deltas against the enumerative constructors ---------------------------


@pytest.mark.parametrize("n", range(0, 7))
def test_delta_affine_space_and_torus(n):
    assert delta_affine_space(n) == delta_vector(torify_affine_space(n))
    assert delta_torus(n) == delta_vector(torify_torus(n))


@pytest.mark.parametrize("n", range(0, 8))
def test_delta_grassmannian(n):
    for k in range(n + 1):
        assert delta_grassmannian(k, n) == delta_vector(torify_grassmannian(k, n))


@pytest.mark.parametrize("n", range(0, 6))
def test_delta_flag(n):
    for comp in compositions(n):
        assert delta_flag(comp) == delta_vector(torify_flag(comp))


def test_delta_flag_six_by_enumerated_cells():
    # building the tori of every composition of 6 takes ~12 s (615,195 for
    # 1^6 alone), so n = 6 sums the delta of each enumerated Schubert cell
    cell_delta = [delta_vector(torify_affine_space(d)) for d in range(16)]
    for comp in compositions(6):
        delta = [0] * 16
        for _, d in schubert_cells_flag(comp):
            for rank, count in enumerate(cell_delta[d]):
                delta[rank] += count
        while delta[-1] == 0:
            delta.pop()
        assert delta_flag(comp) == tuple(delta)


@pytest.mark.parametrize("n", range(1, 5))
def test_delta_chevalley_sl(n):
    data = chevalley_data_sl(n)
    assert delta_chevalley(data) == delta_vector(torify_chevalley(data))


@pytest.mark.parametrize("n", range(1, 7))
def test_delta_sl_from_q_factorial(n):
    assert delta_sl(n) == delta_chevalley(chevalley_data_sl(n))


@pytest.mark.parametrize("n", range(6))
def test_delta_projective_from_binomials(n):
    assert delta_projective(n) == delta_vector(torify_toric(standard_fan("projective_space", n)))


@st.composite
def chevalley_data(draw):
    unipotent = draw(st.integers(min_value=0, max_value=4))
    middle = draw(st.lists(st.integers(min_value=0, max_value=unipotent), max_size=5))
    rank = draw(st.integers(min_value=0, max_value=3))
    return ChevalleyData(rank, unipotent, (0, *middle, unipotent))


@settings(max_examples=60)
@given(chevalley_data())
def test_delta_chevalley_random_data(data):
    assert delta_chevalley(data) == delta_vector(torify_chevalley(data))


@pytest.mark.parametrize(
    "delta_fn, torify_fn, args, error",
    [
        (delta_affine_space, torify_affine_space, (-1,), ValueError),
        (delta_torus, torify_torus, (-2,), ValueError),
        (delta_grassmannian, torify_grassmannian, (5, 3), ValueError),
        (delta_grassmannian, torify_grassmannian, (-1, 3), ValueError),
        (delta_flag, torify_flag, ((2, 0),), InvalidComposition),
        (delta_flag, torify_flag, ((1, "2"),), InvalidComposition),
        (delta_sl, chevalley_data_sl, (0,), InvalidChevalleyData),
        (delta_projective, lambda n: standard_fan("projective_space", n), (-1,), ValueError),
    ],
)
def test_delta_errors_match_constructors(delta_fn, torify_fn, args, error):
    with pytest.raises(error):
        delta_fn(*args)
    with pytest.raises(error):
        torify_fn(*args)


# --- atlases and regularity ----------------------------------------------------------


def test_check_atlas_violations():
    t = Torification((Torus(0, "a"), Torus(1, "b")), ())
    report = check_atlas(t)
    assert not report.ok and len(report.violations) == 2


def test_check_atlas_missing():
    with pytest.raises(MissingCharts):
        check_atlas(torify_grassmannian(2, 4))


def test_regular_toric_p2():
    w = is_regular_toric(FAN_CORPUS["P2"])
    assert bool(w)
    assert sorted((len(c) for c in w.closures), reverse=True) == [7, 3, 3, 3, 1, 1, 1]


def test_regular_toric_torus():
    w = is_regular_toric(standard_fan("torus", 1))
    assert bool(w) and w.closures == ((0,),)


def test_regular_toric_corpus(corpus_fan):
    assert bool(is_regular_toric(corpus_fan))


# --- labels and determinism ------------------------------------------------------------


def test_labels_are_deterministic():
    a = torify_grassmannian(2, 4)
    b = torify_grassmannian(2, 4)
    assert [t.label for t in a.tori] == [t.label for t in b.tori]
    sl = torify_chevalley(chevalley_data_sl(2))
    assert any("bruhat:w=12" in t.label for t in sl.tori)
    toric = torify_toric(FAN_CORPUS["P1"])
    assert [t.label for t in toric.tori] == ["cone:0", "cone:1", "cone:2"]

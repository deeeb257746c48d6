"""Torification constructors and their delta vectors."""

import pickle
from collections import Counter
from itertools import accumulate, permutations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAN_CORPUS, clear_caches, compositions
from test_cli import TRICKY
from references import (
    affine_cell_runs,
    disjoint_union,
    flat_product,
    q_pascal_gaussian,
    scanned_charts,
    scanned_face_relation,
    scanned_maximal_cones,
    scanned_regularity,
    schubert_leq,
)
from test_lattice import complete_fans_2d, fans_with_defects, time_limit

from torified import torify
from torified.budget import check_budget
from torified.counting import verify_counting
from torified.errors import (
    BudgetExceeded,
    InvalidChevalleyData,
    InvalidComposition,
    MissingCharts,
)
from torified.lattice import maximal_cones, standard_fan, validate_fan
from torified.monoids import dscheme_of_fan
from torified.torify import (
    ChevalleyData,
    Torification,
    Torus,
    _Cell,
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
    is_regular_toric,
    permutation_length,
    product,
    schubert_cells_flag,
    schubert_cells_grassmannian,
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


def test_affine_cell_tables_match_the_coordinate_subsets():
    # each table grows from the one below it, so a few dimensions are built
    # alone from an empty cache, and every smaller one is read from the cache
    # after A^14; from A^10 on, string order is not numeric order
    for m in (0, 1, 9, 10, 14):
        clear_caches()
        assert torify._affine_cell(m).runs == affine_cell_runs(m)
    for m in range(15):
        cell = torify._affine_cell(m)
        assert cell is torify._affine_cell(m) and cell.runs == affine_cell_runs(m)
    # a label is made once: each string of A^13 is the one in A^14
    made = {id(label) for _, labels in torify._affine_cell(14).runs for label in labels}
    assert all(id(label) in made for _, labels in torify._affine_cell(13).runs for label in labels)


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


PREFIXES = st.sampled_from([None, "", "p", "p/q"])
PRODUCT_LABELS = st.one_of(st.sampled_from(["", "a", "b*c", "x/"]), st.text(max_size=3))


@st.composite
def parted_torifications(draw):
    """Torifications over shared cells with empty labels and prefixes, with
    charts or without."""
    tori = st.lists(st.builds(Torus, st.integers(0, 3), PRODUCT_LABELS), max_size=4)
    cells = [_Cell.of(c) for c in draw(st.lists(tori, min_size=1, max_size=3))]
    t = Torification.from_parts(draw(st.lists(st.tuples(PREFIXES, st.sampled_from(cells)), max_size=4)))
    chart = st.lists(st.integers(0, len(t) - 1), max_size=3) if len(t) else st.just([])
    charts = st.lists(chart.map(tuple), max_size=3).map(tuple)
    return Torification.from_parts(t.parts, draw(st.one_of(st.none(), charts)))


def _shared_example(prefixes, charts):
    """One cell, with an empty label, under each of the prefixes."""
    cell = _Cell.of((Torus(1), Torus(1, "x"), Torus(0, "y")))
    return Torification.from_parts([(p, cell) for p in prefixes], charts)


@given(parted_torifications(), parted_torifications())
@example(_shared_example(["p", None, ""], ((0, 4), (8,))), _shared_example(["q"], None))
@example(_shared_example([None, "p"], None), _shared_example(["", "q"], ((1, 2),)))
@example(_shared_example(["p", "p"], ((0,),)), _shared_example([None], ((2, 0), ())))
def test_product_matches_the_flat_product(a, b):
    got, want = product(a, b), flat_product(a, b)
    assert len(got) == len(a) * len(b)
    assert tuple(got.tori) == tuple(want.tori) and got.charts == want.charts
    assert got == want and want == got and hash(got) == hash(want)
    assert delta_vector(got) == delta_vector(want)


@given(parted_torifications(), parted_torifications(), PREFIXES.filter(lambda p: p is not None))
@example(_shared_example(["p", None, ""], None), _shared_example(["q"], None), "")
def test_no_part_with_a_prefix_holds_an_empty_label(a, b, prefix):
    prefixed = Torification.from_parts((prefix, cell) for _, cell in a.parts)
    relabeled, times = a.relabeled(prefix), product(a, b)
    for t in (a, prefixed, relabeled, times):
        assert not any("" in labels for p, cell in t.parts if p is not None for _, labels in cell.runs)
    # parts over a cell without an empty label keep it, and a product
    # multiplies each distinct cell of a once
    for t in (prefixed, relabeled):
        for (_, c), (_, d) in zip(a.parts, t.parts, strict=True):
            assert d is c or any("" in labels for _, labels in c.runs)
    if len(b):
        shared = {}
        for (_, c), (_, d) in zip(a.parts, times.parts, strict=True):
            assert shared.setdefault(id(c), d) is d


@given(parted_torifications(), parted_torifications(), PREFIXES.filter(lambda p: p is not None))
def test_delta_vector_counts_the_ranks(a, b, prefix):
    for t in (a, product(a, b), a.relabeled(prefix)):
        counts = Counter(t.ranks())
        assert delta_vector(t) == tuple(counts[r] for r in range(t.dim + 1))
        assert t.dim == max(counts, default=-1)


def test_delta_vector_reads_each_distinct_cell_once(monkeypatch):
    t = torify_flag((1, 1, 2, 2))  # 180 Schubert cells of 14 dimensions
    assert len(t.parts) == 180
    reads, runs = [], _Cell.runs  # the slot's descriptor

    def spy(cell):
        reads.append(cell)
        return runs.__get__(cell, _Cell)

    monkeypatch.setattr(_Cell, "runs", property(spy))
    assert sum(delta_vector(t)) == len(t)
    assert len(reads) == len({id(cell) for cell in reads}) == 14


def test_product_is_refused_over_the_budget_before_building(monkeypatch):
    a, b = torify_grassmannian(2, 4), torify_toric(FAN_CORPUS["P1"])
    n = len(a) * len(b)
    monkeypatch.setenv("TORIFIED_BUDGET", str(n))
    assert product(a, b) == flat_product(a, b)

    def refuse(*args):
        raise AssertionError("built before the budget was checked")

    monkeypatch.setattr(torify, "_Cell", refuse)
    monkeypatch.setenv("TORIFIED_BUDGET", str(n - 1))
    with pytest.raises(BudgetExceeded, match=f"^{n} tori exceed the budget of {n - 1}$"):
        product(a, b)


def test_disjoint_union():
    assert delta_vector(disjoint_union([torify_point(), torify_torus(1)])) == (1, 1)
    assert delta_vector(disjoint_union([])) == ()
    got = disjoint_union([torify_affine_space(1), torify_affine_space(1)])
    assert delta_vector(got) == (2, 2)
    assert got.is_affine and len(got.charts) == 2


def test_chart_indices_are_checked():
    tori = (Torus(0, "a"), Torus(1, "b"))
    assert Torification(tori, ((), (1, 0))).charts == ((), (1, 0))
    for charts, index in ((((0, 2),), 2), (((1,), (0, -1, 3)), -1)):
        with pytest.raises(ValueError, match=f"chart index {index} out of range"):
            Torification(tori, charts)


def test_relabeled_prefixes_labels_and_keeps_charts():
    t = torify_affine_space(2)
    r = t.relabeled("cell")
    assert [x.label for x in r.tori] == [
        "cell/axes:", "cell/axes:1", "cell/axes:2", "cell/axes:1,2"
    ]
    assert [x.rank for x in r.tori] == [x.rank for x in t.tori]
    assert r.charts is t.charts
    assert r == Torification(r.tori, t.charts) and hash(r) == hash(Torification(r.tori, t.charts))
    assert torify_point().relabeled("p").tori == (Torus(0, "p/point"),)
    assert Torification((Torus(1),)).relabeled("p").tori == (Torus(1, "p"),)


def cells_union(cells, cell_torification, prefix):
    """A listing as the disjoint union of relabeled cells (the reference)."""
    union = disjoint_union([cell_torification(d).relabeled(prefix(c)) for c, d in cells])
    return union.tori


@pytest.mark.parametrize("k, n", [(0, 3), (1, 4), (2, 4), (2, 5), (3, 6)])
def test_grassmannian_listing_is_union_of_relabeled_cells(k, n):
    want = cells_union(
        schubert_cells_grassmannian(k, n), torify_affine_space, lambda idx: f"schubert:{idx}"
    )
    assert torify_grassmannian(k, n) == Torification(want, None)


@pytest.mark.parametrize("composition", [(1,), (1, 1), (1, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_flag_listing_is_union_of_relabeled_cells(composition):
    want = cells_union(
        schubert_cells_flag(composition),
        torify_affine_space,
        lambda w: "schubert:w=" + "".join(map(str, w)),
    )
    assert torify_flag(composition) == Torification(want, None)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chevalley_listing_is_union_of_relabeled_cells(n):
    data = chevalley_data_sl(n)
    torus, unipotent = torify_torus(n - 1), torify_affine_space(n * (n - 1) // 2)
    cells = list(zip(zip(data.cell_labels, data.cell_dims), data.cell_dims))
    want = cells_union(
        cells,
        lambda s_w: flat_product(flat_product(torify_affine_space(s_w), torus), unipotent),
        lambda c: f"bruhat:{c[0]},cell_dim={c[1]}",
    )
    assert torify_chevalley(data) == Torification(want, (tuple(range(len(want))),))


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


@given(st.integers(0, 45).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
@example((0, 0))
@example((1, 1))
@example((60, 30))
def test_gaussian_polynomial_is_the_q_pascal_row(nk):
    # the product formula against the q-Pascal table that it replaced
    n, k = nk
    assert torify._gaussian_polynomial(n, k) == q_pascal_gaussian(n, k)


@pytest.mark.parametrize("n", range(9))
def test_schubert_cell_dimensions_are_sums_over_the_index(n):
    for k in range(n + 1):
        cells = schubert_cells_grassmannian(k, n)
        assert [d for _, d in cells] == [sum(i - t for t, i in enumerate(idx, 1)) for idx, _ in cells]


def test_flag_cells_s3_by_brute_inversions():
    cells = schubert_cells_flag((1, 1, 1))
    assert len(cells) == 6
    brute = sorted(
        sum(1 for i in range(3) for j in range(i + 1, 3) if w[i] > w[j])
        for w in permutations((1, 2, 3))
    )
    assert sorted(d for _, d in cells) == brute == [0, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("composition", [c for n in range(7) for c in compositions(n)], ids=str)
def test_flag_cells_are_the_block_increasing_permutations(composition):
    # every permutation, kept when it increases within each block; inversions by pairs
    bounds = list(accumulate(composition, initial=0))
    want = sorted(
        (sum(a > b for i, a in enumerate(w) for b in w[i + 1 :]), w)
        for w in permutations(range(1, sum(composition) + 1))
        if all(list(w[s:e]) == sorted(w[s:e]) for s, e in zip(bounds, bounds[1:]))
    )
    assert schubert_cells_flag(composition) == [(w, l) for l, w in want]


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
    for bad in ((1, 1, (0, 0.5, 1)), (1.0, 1, (0, 1)), (1, "1", (0, 1)), (-1, 1, (0, 1))):
        with pytest.raises(InvalidChevalleyData, match="nonnegative integers"):
            ChevalleyData(*bad)


def test_chevalley_custom_data():
    # a rank-stripped stand-in for another split type: only the three numbers matter
    data = ChevalleyData(2, 3, (0, 1, 2, 2, 3, 3))
    t = torify_chevalley(data)
    assert t.dim == 3 + 2 + 3
    assert t.is_affine


def test_listing_constructors_refuse_an_over_budget_listing(monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the budget was checked")

    sl4 = chevalley_data_sl(4)  # 24 cells, 20,160 tori
    listings = (
        (lambda: torify_affine_space(12), delta_affine_space(12)),
        (lambda: torify_grassmannian(3, 6), delta_grassmannian(3, 6)),
        (lambda: torify_flag((2, 2, 2)), delta_flag((2, 2, 2))),
        (lambda: torify_chevalley(sl4), delta_chevalley(sl4)),
    )
    # the tables they read are kept at the default budget; kept tables, and a
    # table reader that fails if reached, are refused all the same
    monkeypatch.delenv("TORIFIED_BUDGET", raising=False)
    for build, delta in listings:
        assert delta_vector(build()) == delta
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(torify, "_affine_cell", refuse)
            monkeypatch.setattr(torify, "permutation_length", refuse)
        monkeypatch.setenv("TORIFIED_BUDGET", "1000")
        for build, delta in listings:
            with pytest.raises(BudgetExceeded, match=f"^{sum(delta)} tori exceed the budget of 1000$"):
                build()
    assert sum(delta_affine_space(12)) == 4096
    with pytest.raises(BudgetExceeded, match="^5040 permutations exceed the budget of 1000$"):
        chevalley_data_sl(7)
    monkeypatch.undo()
    monkeypatch.setenv("TORIFIED_BUDGET", "1024")  # A^10 has exactly 2^10 tori
    assert len(torify_affine_space(10)) == 1024
    monkeypatch.setenv("TORIFIED_BUDGET", "1023")
    with pytest.raises(BudgetExceeded):
        torify_affine_space(10)
    monkeypatch.setenv("TORIFIED_BUDGET", "120")  # S_5 has 5! = 120 permutations
    assert len(chevalley_data_sl(5).cell_dims) == 120
    monkeypatch.setenv("TORIFIED_BUDGET", "119")
    with pytest.raises(BudgetExceeded):
        chevalley_data_sl(5)


def test_schubert_listings_are_refused_before_their_cell_polynomial(monkeypatch):
    # the gate is the q-multinomial at 2, [n]_2!/prod [d_i]_2!; building the
    # q-Pascal polynomial first took seconds to refuse Gr(100, 200)
    for n in range(1, 8):
        for c in compositions(n):
            tori = sum(a << s for s, a in enumerate(torify._flag_polynomial(c)))
            assert torify.q_multinomial(c, 2) == tori

    def refuse(*args):
        raise AssertionError("built a cell polynomial before the budget was checked")

    monkeypatch.setattr(torify, "_gaussian_polynomial", refuse)
    monkeypatch.setattr(torify, "_flag_polynomial", refuse)
    monkeypatch.setenv("TORIFIED_BUDGET", "1000")
    with time_limit(2):
        for build, arg in (
            (torify_grassmannian, (100, 200)),
            (torify_grassmannian, (150, 300)),  # N(2) has 6,774 digits, too many for str()
            (torify_grassmannian, (3, 6)),
            (torify_flag, ((1,) * 40,)),
            (torify_flag, ((2, 2, 2),)),
        ):
            with pytest.raises(BudgetExceeded, match=" tori exceed the budget of 1000$"):
                build(*arg)


SCHUBERT_GATES = [(torify_flag, (c,), c) for n in range(1, 8) for c in compositions(n)] + [
    (torify_grassmannian, (k, n), (k, n - k)) for n in range(10) for k in range(n + 1)
]


def test_schubert_listings_are_gated_on_the_flag_oracles_q_product(monkeypatch):
    """A listing has N(2) tori, the flag oracle's q-multinomial at 2: one
    torus over the budget is refused with the gate's text, and a listing of
    at most 2^16 tori is accepted at its count and has that many ([7]_2! is
    27 million, so the largest are only refused)."""
    for build, args, composition in SCHUBERT_GATES:
        tori = torify.q_multinomial(composition, 2)
        if tori > 1:  # the budget is a positive integer
            monkeypatch.setenv("TORIFIED_BUDGET", str(tori - 1))
            with pytest.raises(BudgetExceeded, match=f"^{tori} tori exceed the budget of {tori - 1}$"):
                build(*args)
        if tori <= 1 << 16:
            monkeypatch.setenv("TORIFIED_BUDGET", str(tori))
            assert len(build(*args)) == tori, args


@settings(max_examples=30)
@given(
    st.integers(1000, 9000).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(10**k, 10 ** (k + 1) - 1))
    )
)
@example((1000, 10**1000))
@example((1000, 9999 * 10**997))
@example((6773, 10**6774 - 1))
def test_budget_message_of_a_huge_size_gives_its_power_of_ten(k_size):
    # k + 1 digits: printed as 10^k, without converting the int to text;
    # the examples sit next to a power of ten, where log10 alone may round across it
    k, size = k_size
    with pytest.raises(BudgetExceeded, match=f"^10\\^{k} or more tori exceed the budget of 1000000$"):
        check_budget(size, "tori")


def test_budget_message_prints_a_size_below_10_to_the_1000_in_full():
    with pytest.raises(BudgetExceeded, match=f"^{'9' * 1000} tori exceed the budget of 1000000$"):
        check_budget(10**1000 - 1, "tori")


GATED_LISTINGS = (
    [(torify_affine_space, n) for n in range(6)]
    + [(torify_grassmannian, k, n) for n in range(7) for k in range(n + 1)]
    + [(torify_flag, c) for n in range(1, 6) for c in compositions(n)]
    + [(torify_chevalley, chevalley_data_sl(n)) for n in range(1, 5)]
    + [(torify_chevalley, ChevalleyData(2, 3, (0, 1, 2, 2, 3, 3)))]
)


@pytest.mark.parametrize("case", GATED_LISTINGS, ids=lambda c: f"{c[0].__name__}{c[1:]}")
def test_listing_gate_counts_the_tori_without_a_delta_vector(monkeypatch, case):
    # the gate reads N(2) = sum(delta); a delta vector would go through to_delta_basis
    build, *params = case
    size = len(build(*params))

    def refuse(*args):
        raise AssertionError("the budget gate computed a delta vector")

    monkeypatch.setattr(torify, "to_delta_basis", refuse)
    monkeypatch.setenv("TORIFIED_BUDGET", str(size))
    assert len(build(*params)) == size
    if size > 1:  # a budget is positive
        monkeypatch.setenv("TORIFIED_BUDGET", str(size - 1))
        with pytest.raises(BudgetExceeded, match=f"^{size} tori exceed the budget of {size - 1}$"):
            build(*params)


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


# every Gr(k, n) with n <= 7, every flag type with n <= 6, and SL_1 to SL_4:
# (delta, listing constructor, their parameters, oracle family and parameters)
CELL_FAMILIES = (
    [
        (delta_grassmannian, torify_grassmannian, (k, n), ("grassmannian", (k, n)))
        for n in range(8)
        for k in range(n + 1)
    ]
    + [(delta_flag, torify_flag, (c,), ("flag", c)) for n in range(7) for c in compositions(n)]
    + [
        (delta_chevalley, torify_chevalley, (chevalley_data_sl(n),), ("sl", n))
        for n in range(1, 5)
    ]
)


@pytest.mark.parametrize("case", CELL_FAMILIES, ids=lambda c: f"{c[3][0]}{c[3][1]}")
def test_cell_family_delta_and_point_count(case):
    delta, build, params, oracle = case
    t = build(*params)
    assert delta(*params) == delta_vector(t)
    assert verify_counting(t, *oracle, (2, 3, 4, 5, 7, 8, 9)).ok


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


# --- one face relation per fan against the scans ---------------------------------------


def assert_face_relation_agrees(fan):
    """``Fan.face_indices`` and its readers give what the scans of every
    cone against the face set of every other gave."""
    relation = scanned_face_relation(fan)
    assert all(list(ids) == sorted(ids) and i in ids for i, ids in enumerate(fan.face_indices))
    assert sorted((i, j) for j, ids in enumerate(fan.face_indices) for i in ids if i != j) == relation
    assert maximal_cones(fan) == scanned_maximal_cones(fan)
    if validate_fan(fan).ok:
        assert list(dscheme_of_fan(fan).specialization) == relation
        assert torify_toric(fan).charts == scanned_charts(fan)
        w = is_regular_toric(fan)
        assert (w.regular, w.closures) == scanned_regularity(fan)


def test_face_relation_against_scans_on_the_corpus(corpus_fan):
    assert_face_relation_agrees(corpus_fan)


@pytest.mark.parametrize("kind", ["affine_space", "projective_space", "torus"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_face_relation_against_scans_on_standard_fans(kind, n):
    assert_face_relation_agrees(standard_fan(kind, n))


@settings(max_examples=60)
@given(complete_fans_2d())
def test_face_relation_against_scans_on_random_complete_fans(fan):
    assert_face_relation_agrees(fan)


@settings(max_examples=60)
@given(fans_with_defects())
def test_face_relation_against_scans_on_fans_with_defects(fan):
    assert_face_relation_agrees(fan)


# --- labels and determinism ------------------------------------------------------------


def test_labels_are_deterministic():
    a = torify_grassmannian(2, 4)
    b = torify_grassmannian(2, 4)
    assert [t.label for t in a.tori] == [t.label for t in b.tori]
    sl = torify_chevalley(chevalley_data_sl(2))
    assert any("bruhat:w=12" in t.label for t in sl.tori)
    toric = torify_toric(FAN_CORPUS["P1"])
    assert [t.label for t in toric.tori] == ["cone:0", "cone:1", "cone:2"]


# --- the parts form and its tori -------------------------------------------------------


def flat_label(prefix, label):
    """A part's torus label, spelled out: the reference for ``tori``."""
    if prefix is None:
        return label
    return f"{prefix}/{label}" if label else prefix


def flat_tori(t: Torification) -> tuple:
    return tuple(
        Torus(rank, flat_label(p, label))
        for p, cell in t.parts
        for rank, labels in cell.runs
        for label in labels
    )


VIEW_CASES = {
    "gr24": lambda: torify_grassmannian(2, 4),
    "gr25": lambda: torify_grassmannian(2, 5),
    "gr03": lambda: torify_grassmannian(0, 3),
    "flag1111": lambda: torify_flag((1, 1, 1, 1)),
    "flag211": lambda: torify_flag((2, 1, 1)),
    "sl2": lambda: torify_chevalley(chevalley_data_sl(2)),
    "sl3": lambda: torify_chevalley(chevalley_data_sl(3)),
    "custom": lambda: torify_chevalley(ChevalleyData(2, 3, (0, 1, 2, 2, 3, 3))),
    "affine3": lambda: torify_affine_space(3),
    "p2": lambda: torify_toric(FAN_CORPUS["P2"]),
    "union": lambda: disjoint_union([torify_grassmannian(1, 3), torify_affine_space(2)]),
    "relabeled": lambda: torify_grassmannian(2, 4).relabeled("x"),
    # the empty prefix composes as "q/": the cells under it hold no empty label
    "relabeled_empty": lambda: disjoint_union(
        [torify_affine_space(2), torify_chevalley(chevalley_data_sl(2))]
    ).relabeled("").relabeled("q"),
    "empty": lambda: disjoint_union([]),
    "sl1": lambda: torify_chevalley(chevalley_data_sl(1)),  # N = 0: one run per Bruhat cell
    "sl4": lambda: torify_chevalley(chevalley_data_sl(4)),
    "affine0": lambda: torify_affine_space(0),
    # a fan lists its cones by dimension, so toric ranks fall; across parts they rise again
    "toric_a3": lambda: torify_toric(FAN_CORPUS["A3"]),
    "toric_union": lambda: disjoint_union(
        [torify_toric(FAN_CORPUS["P1"]), torify_toric(FAN_CORPUS["A2"])]
    ),
    "product": lambda: product(torify_toric(FAN_CORPUS["P1"]), torify_grassmannian(1, 3)),
}


@pytest.mark.parametrize("name", sorted(VIEW_CASES))
def test_view_matches_flat_form(name):
    t = VIEW_CASES[name]()
    want = flat_tori(t)
    flat = Torification(tuple(t.tori), t.charts)
    n = len(want)
    assert len(t) == len(t.tori) == len(flat) == n
    assert tuple(t.tori) == tuple(iter(t.tori)) == want
    assert [t.tori[i] for i in range(n)] == list(want)
    assert [t.tori[i - n] for i in range(n)] == list(want)
    assert t.tori[1:-1:2] == want[1:-1:2] and t.tori[::-1] == want[::-1]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            t.tori[bad]
    assert t.tori == want and want == t.tori and t.tori == flat.tori
    assert not t.tori != want and t.tori != want + (Torus(0),)
    assert hash(t.tori) == hash(want)
    assert t == flat and flat == t and hash(t) == hash(flat)
    assert t != Torification(want[::-1], None) or want == want[::-1]
    assert delta_vector(t) == delta_vector(flat) and t.dim == flat.dim
    assert list(t.ranks()) == [x.rank for x in want]
    back = pickle.loads(pickle.dumps(t))
    assert back == t and tuple(back.tori) == want and back.charts == t.charts
    for _, cell in t.parts:  # maximal runs: none empty, and neighbours differ in rank
        assert all(labels for _, labels in cell.runs)
        assert all(a[0] != b[0] for a, b in zip(cell.runs, cell.runs[1:]))


LABELS = st.one_of(st.text(max_size=4), TRICKY)


@given(st.lists(st.builds(Torus, st.integers(0, 4), LABELS), max_size=12).map(tuple))
@example((Torus(1, "a"), Torus(1, "b"), Torus(0), Torus(1, "c")))
def test_flat_torification_matches_its_tuple(tori):
    t = Torification(tori)
    n = len(tori)
    assert len(t) == len(t.tori) == n and tuple(t.tori) == tori
    assert [t.tori[i] for i in range(n)] == list(tori)
    assert [t.tori[-i] for i in range(1, n + 1)] == [tori[-i] for i in range(1, n + 1)]
    assert t.tori[1::2] == tori[1::2] and t.tori[::-1] == tori[::-1] and t.tori[2:-1] == tori[2:-1]
    assert t.tori == tori and hash(t.tori) == hash(tori)
    assert t == Torification(list(tori)) and hash(t) == hash(Torification(list(tori)))
    assert list(t.ranks()) == [x.rank for x in tori]
    assert delta_vector(t) == tuple(
        sum(x.rank == r for x in tori) for r in range(max((x.rank for x in tori), default=-1) + 1)
    )
    charted = Torification(tori, (tuple(range(n)),))
    for u in (t, charted):
        back = pickle.loads(pickle.dumps(u))
        assert back == u and hash(back) == hash(u) and back.charts == u.charts
        assert tuple(back.tori) == tori and delta_vector(back) == delta_vector(u)


def test_listings_share_cells_between_parts():
    g = torify_grassmannian(2, 5)
    assert len(g.parts) == 10
    cells = {}
    for (idx, d), (prefix, cell) in zip(schubert_cells_grassmannian(2, 5), g.parts):
        assert prefix == f"schubert:{idx}"
        assert cell is cells.setdefault(d, cell)
    sl = torify_chevalley(chevalley_data_sl(3))
    assert len(sl.parts) == 6 and len({id(cell) for _, cell in sl.parts}) == 4
    # a product multiplies each distinct cell of its left factor once
    p = product(g, torify_toric(FAN_CORPUS["P1"]))
    assert [prefix for prefix, _ in p.parts] == [prefix for prefix, _ in g.parts]
    assert len({id(cell) for _, cell in p.parts}) == len({id(cell) for _, cell in g.parts}) == 7


def test_relabeled_composes_prefixes():
    t = torify_grassmannian(1, 3)
    r = t.relabeled("a").relabeled("b")
    assert [p for p, _ in r.parts] == [f"b/a/{p}" for p, _ in t.parts]
    assert all(c is d for (_, c), (_, d) in zip(r.parts, t.parts))
    assert r.tori == tuple(
        Torus(x.rank, f"b/a/{x.label}") for x in t.tori
    )
    assert r == Torification(tuple(r.tori)) and hash(r) == hash(Torification(tuple(r.tori)))
    # an empty prefix does not compose with a later one: "q/" + "" would be "q/"
    e = Torification((Torus(1), Torus(2, "x"))).relabeled("").relabeled("q")
    assert [x.label for x in e.tori] == ["q", "q//x"]


def test_check_atlas_on_parts_form():
    t = torify_chevalley(chevalley_data_sl(2))
    assert len(t.parts) == 2 and check_atlas(t).ok
    holes = Torification.from_parts(t.parts, ((0, 1, 2),))
    report = check_atlas(holes)
    assert len(report.violations) == len(t) - 3
    want = "torus 3 (bruhat:w=21,cell_dim=1/axes:*torus*axes:1) is not covered by any chart"
    assert report.violations[0] == want
    with pytest.raises(ValueError, match=f"chart index {len(t)} out of range"):
        Torification.from_parts(t.parts, ((len(t),),))


def test_torification_is_immutable():
    t = torify_grassmannian(2, 4)
    with pytest.raises(AttributeError):
        t.charts = ()

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torified.intlinalg import (
    _hermite,
    _with_identity,
    dot,
    hnf_rows,
    kernel_basis,
    mat_rank,
    primitive,
    row_hermite_transform,
)

from references import (
    det,
    euclid_hermite,
    invert_unimodular,
    minors_gcd,
    saturation_basis,
    solve_columns,
    solve_columns_int,
    unit_pivot_hermite,
)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


@pytest.mark.parametrize("u, v", [((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))])
def test_dot_refuses_vectors_of_different_lengths(u, v):
    with pytest.raises(ValueError):
        dot(u, v)


def test_det_and_rank():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0], [0, 3]]) == 6
    assert mat_rank([[1, 2], [2, 4]]) == 1
    assert mat_rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert mat_rank([]) == 0


def test_kernel_basis_small():
    ker = kernel_basis([(1, -2, 1)], 3)
    assert len(ker) == 2
    for v in ker:
        assert dot((1, -2, 1), v) == 0
    # (1, -2, 1) itself has trivial pairing against the generator matrix of the
    # singular monoid
    gens = [(0, 1), (1, 0), (2, -1)]
    rows = [[g[i] for g in gens] for i in range(2)]
    ker = kernel_basis(rows, 3)
    assert len(ker) == 1
    v = primitive(ker[0])
    assert v in ((1, -2, 1), (-1, 2, -1))


def test_kernel_basis_random_is_saturated():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        ker = kernel_basis(rows, n)
        assert len(ker) == n - mat_rank(rows)
        assert ker == list(hnf_rows(ker, n))
        for v in ker:
            assert all(dot(r, v) == 0 for r in rows)
        # saturated: a rational kernel vector with integer entries must be an
        # integer combination of the basis
        if ker:
            target = tuple(sum(2 * v[i] for v in ker) for i in range(n))
            assert solve_columns_int(ker, target) is not None


def test_hnf_rows_canonical():
    assert hnf_rows([(0, 1), (1, 0)], 2) == ((1, 0), (0, 1))
    assert hnf_rows([(2, 2), (0, 2)], 2) == ((2, 0), (0, 2))
    assert hnf_rows([(1, -1), (-1, 1)], 2) == ((1, -1),)
    assert hnf_rows([], 2) == ()


def test_row_hermite_transform_unimodular():
    rows = [[2], [3], [5]]
    h, u, _ = row_hermite_transform(rows)
    prod = [
        [sum(u[i][k] * rows[k][j] for k in range(3)) for j in range(1)]
        for i in range(3)
    ]
    assert prod == h
    assert abs(det(u)) == 1
    assert h[0] == [1]  # gcd(2,3,5)


# The four tests below check test-only references (see references.py) that
# other tests use as oracles.


def test_invert_unimodular():
    u = [[1, 2], [0, 1]]
    inv = invert_unimodular(u)
    assert inv == ((1, -2), (0, 1))


def test_saturation_basis():
    sat = saturation_basis([(2, 2)], 2)
    assert sat == [(1, 1)]
    sat = saturation_basis([(1, 0, 0), (0, 2, 0)], 3)
    assert sorted(sat) == [(0, 1, 0), (1, 0, 0)]


def test_solve_columns():
    cols = [(1, 0), (1, 2)]
    assert solve_columns(cols, (3, 4)) == (Fraction(1), Fraction(2))
    assert solve_columns(cols, (1, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert solve_columns_int(cols, (1, 1)) is None
    assert solve_columns([(1, 0, 0), (0, 1, 0)], (0, 0, 1)) is None


def test_minors_gcd():
    assert minors_gcd([(1, 0), (1, 2)], 2) == 2
    assert minors_gcd([(1, 0), (0, 1)], 2) == 1
    assert minors_gcd([(2, 0), (0, 2)], 2) == 4


# --- the elimination kernel against a Fraction reference ------------------------


def rref(rows, ncols):
    """Reduced row echelon form over Q, and its pivot columns (reference)."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for w in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][w[i]]
        total += term
    return total


@st.composite
def int_matrices(draw, max_rows=5, max_cols=6, square=False):
    """Small integer matrices, often rank-deficient: a drawn row may be an
    integer combination of the first two."""
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows


@given(int_matrices())
def test_mat_rank_against_reference(rows):
    assert mat_rank(rows) == len(rref(rows, len(rows[0]))[1])


@given(int_matrices(square=True))
def test_det_against_leibniz(rows):
    assert det(rows) == leibniz_det(rows)


@given(int_matrices(max_rows=6, max_cols=5), st.data())
def test_solve_columns_against_reference(rows, data):
    """The test-only solves against RREF.  Columns of ``cols`` are the matrix
    columns; the target is drawn free (mostly inconsistent) or as an integer
    combination of the columns."""
    n, k = len(rows), len(rows[0])
    cols = [tuple(r[j] for r in rows) for j in range(k)]
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        target = tuple(sum(c[i] * xj for c, xj in zip(cols, x)) for i in range(n))
    else:
        target = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    m, pivots = rref([list(r) + [t] for r, t in zip(rows, target)], k)
    if any(row[k] for row in m[len(pivots):]):
        expected = None
    else:
        expected = [Fraction(0)] * k
        for row, c in zip(m, pivots):
            expected[c] = row[k]  # free variables are 0
        expected = tuple(expected)
    assert solve_columns(cols, target) == expected
    integral = expected is not None and all(x.denominator == 1 for x in expected)
    assert solve_columns_int(cols, target) == (tuple(map(int, expected)) if integral else None)


@st.composite
def unimodular_matrices(draw):
    n = draw(st.integers(1, 5))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            f = draw(st.integers(-3, 3))
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return m


@given(unimodular_matrices())
def test_invert_unimodular_against_reference(m):
    n = len(m)
    reduced, _ = rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)], n)
    assert invert_unimodular(m) == tuple(tuple(int(x) for x in row[n:]) for row in reduced)


@given(int_matrices(square=True))
def test_invert_unimodular_refuses_other_matrices(rows):
    if abs(det(rows)) != 1:
        with pytest.raises(ValueError):
            invert_unimodular(rows)


# --- the Hermite reduction against the column-operation kernel -----------------


def column_operation_kernel_basis(rows, ncols):
    """Integer kernel basis by Euclid on the columns of A, the column
    operations tracked on an identity matrix (reference: the routine before
    kernels and Hermite forms shared one row reduction)."""
    m = [list(r) for r in rows]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def addmul(j, k, q):
        for row in m + v:
            row[j] += q * row[k]

    def swap(j, k):
        for row in m + v:
            row[j], row[k] = row[k], row[j]

    lead = 0
    for r in range(len(m)):
        while True:
            nz = [j for j in range(lead, ncols) if m[r][j] != 0]
            if len(nz) <= 1:
                break
            j1, j2 = sorted(nz, key=lambda j: abs(m[r][j]))[:2]
            addmul(j2, j1, -(m[r][j2] // m[r][j1]))
        nz = [j for j in range(lead, ncols) if m[r][j] != 0]
        if nz:
            if nz[0] != lead:
                swap(nz[0], lead)
            if m[r][lead] < 0:
                for row in m + v:
                    row[lead] = -row[lead]
            lead += 1
            if lead == ncols:
                break
    return [tuple(v[i][j] for i in range(ncols)) for j in range(lead, ncols)]


@st.composite
def int_matrices_with_empty(draw):
    """Integer matrices with 0-5 rows and 0-6 columns (empty and zero-width
    ones included), often rank-deficient or with zero rows."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = st.integers(-4, 4) | st.just(0)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows >= 3 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return rows, ncols


@given(int_matrices_with_empty())
def test_kernel_basis_against_column_operations(case):
    # the same lattice, in the Hermite form kernel_basis returns
    rows, ncols = case
    expected = hnf_rows(column_operation_kernel_basis(rows, ncols), ncols)
    assert kernel_basis(rows, ncols) == list(expected)


def assert_hermite(h, rank, ncols):
    """The first ``rank`` rows of h have positive pivots in increasing
    columns, with the entries above each pivot in [0, pivot); the rest are
    zero."""
    pivots = []
    for row in h[:rank]:
        c = next(j for j in range(ncols) if row[j])
        assert row[c] > 0
        assert not pivots or c > pivots[-1]
        pivots.append(c)
    for i, c in enumerate(pivots):
        assert all(0 <= h[k][c] < h[i][c] for k in range(i))
    assert all(not any(row) for row in h[rank:])


@given(int_matrices_with_empty())
@example(([[-2, 1], [0, 3]], 2))  # a negative pivot already in its row, r = 0
@example(([[1, 0], [0, -1]], 2))  # the same in a later row, r = 1
@example(([[], [], []], 0))  # zero width: u and u_inv are the identity
@example(([], 0))
def test_row_hermite_transform_is_hermite(case):
    rows, ncols = case
    h, u, u_inv = row_hermite_transform(rows)
    assert len(h) == len(u) == len(rows)
    k = len(rows)
    assert [[sum(ui[i] * rows[i][j] for i in range(k)) for j in range(ncols)] for ui in u] == h
    assert abs(det(u)) == 1
    assert u_inv == [list(row) for row in invert_unimodular(u)]
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    assert [[sum(ui[i] * vi[i] for i in range(k)) for vi in zip(*u_inv)] for ui in u] == identity
    rank = mat_rank(rows)
    assert_hermite(h, rank, ncols)
    assert hnf_rows(rows, ncols) == tuple(tuple(row) for row in h[:rank])


@st.composite
def unit_rich_matrices(draw):
    """Integer matrices with 0-6 rows and 0-6 columns whose entries are mostly
    0 and +-1 (or, for one in four, 0 and larger entries, so that Euclid
    steps come first), with whole zero columns and repeated rows; half of
    them carry an identity block beyond ``ncols``."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.integers(0, 3)):
        entry = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -5, 7))
    else:
        entry = st.sampled_from((0, 0, 2, -2, 3, -3, 4, 5, -6, 9))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if ncols:
        for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            for row in rows:
                row[j] = 0
    if nrows >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return (_with_identity(rows) if draw(st.booleans()) else rows), ncols


@given(unit_rich_matrices(), st.booleans())
@example(([[1, 0], [-1, 2], [1, 1], [0, 3]], 2), True)  # a unit pivot clears three rows
@example(([[2], [3], [-1], [1]], 1), True)  # ties at 1: the first row is the pivot
@example(([[6, 1], [4, 0], [9, 1]], 2), True)  # Euclid reaches a unit pivot
@example((_with_identity([[2], [3], [5]]), 1), True)  # a pivot of 2 reduces one row only
@example(([[0, 1], [0, -1]], 2), False)  # a zero column
def test_unit_pivots_give_the_euclid_steps_result(case, with_inverse):
    # the one-pass clearing under a +-1 pivot is the sequence of single
    # Euclid steps: the same Hermite form, transform and inverse
    rows, ncols = case
    width = len(rows)
    got, expected = [list(r) for r in rows], [list(r) for r in rows]
    inv = [[int(i == j) for j in range(width)] for i in range(width)] if with_inverse else None
    inv_expected = [list(r) for r in inv] if with_inverse else None
    assert _hermite(got, ncols, inv) == euclid_hermite(expected, ncols, inv_expected)
    assert got == expected
    assert inv == inv_expected


@st.composite
def small_matrices(draw):
    """Integer matrices with 0-6 rows and 0-6 columns, entries in [-9, 9]
    (ties, repeated rows and zero columns come up often), some of them
    carrying an identity block beyond ``ncols``."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(-9, 9) | st.sampled_from((0, 1, -1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return (_with_identity(rows) if draw(st.booleans()) else rows), ncols


@settings(max_examples=300)
@given(small_matrices() | unit_rich_matrices(), st.booleans())
@example(([[4, 1], [6, 0], [-4, 1], [9, 1]], 2), True)  # a tie at 4 in the first scan
@example(([[6], [4], [-4], [2]], 1), True)  # a row reaches 0 and leaves the scan
@example(([[3], [5], [7]], 1), False)
def test_hermite_takes_the_steps_of_the_min_search(case, with_inverse):
    # one scan finds each step's two smallest entries, and rows that reach 0
    # leave it: the same row operations, so the same form, inverse and rank
    rows, ncols = case
    width = len(rows)
    got, expected = [list(r) for r in rows], [list(r) for r in rows]
    inv = [[int(i == j) for j in range(width)] for i in range(width)] if with_inverse else None
    inv_expected = [list(r) for r in inv] if with_inverse else None
    assert _hermite(got, ncols, inv) == unit_pivot_hermite(expected, ncols, inv_expected)
    assert got == expected
    assert inv == inv_expected

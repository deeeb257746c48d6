import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torified.intlinalg import (
    det,
    dot,
    hnf_rows,
    invert_unimodular,
    kernel_basis,
    kernel_vector,
    mat_rank,
    minors_gcd,
    primitive,
    row_hermite_transform,
    saturation_basis,
    solve_columns,
    solve_columns_int,
)


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive((0, 0))


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
    h, u = row_hermite_transform(rows)
    prod = [
        [sum(u[i][k] * rows[k][j] for k in range(3)) for j in range(1)]
        for i in range(3)
    ]
    assert prod == h
    assert abs(det(u)) == 1
    assert h[0] == [1]  # gcd(2,3,5)


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
    """Columns of ``cols`` are the matrix columns; the target is drawn free
    (mostly inconsistent) or as an integer combination of the columns."""
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


@given(int_matrices())
def test_kernel_vector_against_reference(rows):
    ncols = len(rows[0])
    m, pivots = rref(rows, ncols)
    if len(pivots) != ncols - 1:
        assert kernel_vector(rows, ncols) is None
        return
    (free,) = set(range(ncols)) - set(pivots)
    line = [Fraction(0)] * ncols
    line[free] = Fraction(1)
    for row, c in zip(m, pivots):
        line[c] = -row[free]
    scale = lcm(*(x.denominator for x in line))
    expected = primitive([int(x * scale) for x in line])
    assert kernel_vector(rows, ncols) in (expected, tuple(-x for x in expected))

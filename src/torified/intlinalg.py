"""Exact integer linear algebra on small matrices.

Vectors are tuples of ints, matrices are sequences of row tuples.  Every
routine is exact and works on plain ints: rank, determinant, kernel lines,
rational solves and unimodular inverses share one fraction-free elimination,
and only :func:`solve_columns` makes Fractions, for the solution it returns.
Sizes here are tiny (ambient dimension <= 5 or so), so clarity wins over
asymptotics throughout.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

Vector = tuple[int, ...]


def vec_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v: Sequence[int]) -> Vector:
    """Divide out the gcd; the zero vector has no primitive representative."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(v: Sequence[int]) -> Vector:
    return tuple(-a for a in v)


def mat_vec(rows: Sequence[Sequence[int]], x: Sequence[int]) -> Vector:
    return tuple(dot(r, x) for r in rows)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Integer-preserving Gauss-Jordan elimination of ``m``, in place, on its
    first ``ncols`` columns (Bareiss 1968; Edmonds 1967).

    Each step with pivot p replaces every other row by
    (p * row - row[c] * pivot_row) // prev, prev being the previous pivot.
    The division is exact because every entry stays a minor of the input.
    Afterwards the first ``len(pivots)`` rows are the pivot rows: each holds
    the last pivot d at its own pivot column and 0 at the others, and the
    remaining rows are zero on the first ``ncols`` columns.  For a square
    nonsingular matrix, sign * d is the determinant.

    Returns (pivot columns, d, sign of the row permutation).
    """
    pivots: list[int] = []
    prev, sign = 1, 1
    nrows = len(m)
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        row = m[r]
        p = row[c]
        for i in range(nrows):
            f = m[i][c]
            if i == r or (not f and p == prev):
                continue
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], row)]
        prev = p
        pivots.append(c)
    return pivots, prev, sign


def mat_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q."""
    m = [list(r) for r in rows]
    return len(_eliminate(m, len(m[0]))[0]) if m else 0


def kernel_vector(rows: Sequence[Sequence[int]], ncols: int) -> Vector | None:
    """The primitive vector spanning the kernel of ``rows`` over Q, up to
    sign, when that kernel is a line; None otherwise."""
    m = [list(r) for r in rows]
    pivots, d, _ = _eliminate(m, ncols)
    if len(pivots) != ncols - 1:
        return None
    (free,) = set(range(ncols)).difference(pivots)
    x = [0] * ncols
    x[free] = d
    for row, c in zip(m, pivots):
        x[c] = -row[free]
    return primitive(x)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    pivots, d, sign = _eliminate(m, n)
    return sign * d if len(pivots) == n else 0


def _col_addmul(m: list[list[int]], j: int, k: int, q: int) -> None:
    for row in m:
        row[j] += q * row[k]


def _col_swap(m: list[list[int]], j: int, k: int) -> None:
    for row in m:
        row[j], row[k] = row[k], row[j]


def _col_negate(m: list[list[int]], j: int) -> None:
    for row in m:
        row[j] = -row[j]


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of the full integer kernel {x in Z^ncols : rows @ x = 0}.

    The result is a lattice basis of the kernel (saturated by construction):
    integer column operations are tracked on an identity matrix, and the
    columns that end up annihilated span the kernel over Z.
    """
    m = [list(r) for r in rows]
    v = identity(ncols)
    lead = 0
    for r in range(len(m)):
        while True:
            nz = [j for j in range(lead, ncols) if m[r][j] != 0]
            if len(nz) <= 1:
                break
            j1, j2 = sorted(nz, key=lambda j: abs(m[r][j]))[:2]
            q = m[r][j2] // m[r][j1]
            _col_addmul(m, j2, j1, -q)
            _col_addmul(v, j2, j1, -q)
        nz = [j for j in range(lead, ncols) if m[r][j] != 0]
        if nz:
            j = nz[0]
            if j != lead:
                _col_swap(m, j, lead)
                _col_swap(v, j, lead)
            if m[r][lead] < 0:
                _col_negate(m, lead)
                _col_negate(v, lead)
            lead += 1
            if lead == ncols:
                break
    return [tuple(v[i][j] for i in range(ncols)) for j in range(lead, ncols)]


def hnf_rows(vectors: Iterable[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-Hermite) basis of the lattice spanned by the given rows."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if len(nz) <= 1:
                break
            i1, i2 = sorted(nz, key=lambda i: abs(rows[i][c]))[:2]
            q = rows[i2][c] // rows[i1][c]
            rows[i2] = [a - q * b for a, b in zip(rows[i2], rows[i1])]
        nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not nz:
            continue
        i = nz[0]
        rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        piv = rows[r][c]
        for i in range(r):
            q = rows[i][c] // piv
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def row_hermite_transform(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row reduction with transform: returns (h, u) with u @ rows = h, u unimodular."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = identity(nrows)
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if len(nz) <= 1:
                break
            i1, i2 = sorted(nz, key=lambda i: abs(m[i][c]))[:2]
            q = m[i2][c] // m[i1][c]
            m[i2] = [a - q * b for a, b in zip(m[i2], m[i1])]
            u[i2] = [a - q * b for a, b in zip(u[i2], u[i1])]
        nz = [i for i in range(r, nrows) if m[i][c] != 0]
        if not nz:
            continue
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        u[r], u[i] = u[i], u[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            u[r] = [-a for a in u[r]]
        r += 1
    return m, u


def invert_unimodular(rows: Sequence[Sequence[int]]) -> tuple[Vector, ...]:
    """Inverse of a unimodular integer matrix (integral by definition)."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    pivots, d, _ = _eliminate(m, n)
    if len(pivots) != n or abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    # [A | I] is reduced to [d I | d A^-1], and d = 1/d as d is 1 or -1
    return tuple(tuple(d * x for x in row[n:]) for row in m)


def saturation_basis(vectors: Sequence[Sequence[int]], n: int) -> list[Vector]:
    """Basis of span(vectors) ∩ Z^n, computed as the double orthogonal kernel."""
    perp = kernel_basis(vectors, n)
    return kernel_basis(perp, n)


def _solve_scaled(cols: Sequence[Sequence[int]], target: Sequence[int]) -> tuple[list[int], int] | None:
    """(y, d) with x = y / d solving sum_i x_i * cols[i] = target, free
    variables set to 0; None if the system is inconsistent."""
    k = len(cols)
    m = [[col[i] for col in cols] + [t] for i, t in enumerate(target)]
    pivots, d, _ = _eliminate(m, k)
    if any(row[k] for row in m[len(pivots):]):
        return None
    y = [0] * k
    for row, c in zip(m, pivots):
        y[c] = row[k]
    return y, d


def solve_columns(cols: Sequence[Sequence[int]], target: Sequence[int]) -> tuple[Fraction, ...] | None:
    """Solve sum_i x_i * cols[i] = target over Q; None if inconsistent.

    The solution is unique when the columns are linearly independent;
    otherwise each column dependent on earlier ones gets the coefficient 0.
    """
    scaled = _solve_scaled(cols, target)
    if scaled is None:
        return None
    y, d = scaled
    return tuple(Fraction(x, d) for x in y)


def solve_columns_int(cols: Sequence[Sequence[int]], target: Sequence[int]) -> Vector | None:
    """Integer solution of sum_i x_i * cols[i] = target, or None."""
    scaled = _solve_scaled(cols, target)
    if scaled is None:
        return None
    y, d = scaled
    if any(x % d for x in y):
        return None
    return tuple(x // d for x in y)


def minors_gcd(rows: Sequence[Sequence[int]], k: int) -> int:
    """gcd of all k x k minors of an integer matrix."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(nrows), k):
        for ci in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det(sub)))
            if g == 1:
                return 1
    return g

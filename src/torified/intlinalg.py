"""Exact integer linear algebra on small matrices.

Vectors are tuples of ints, matrices are sequences of row tuples.  Every
routine is exact and works on plain ints (no Fractions, no solves), and two
reductions do all the work.  Rank comes from one fraction-free (Bareiss)
elimination, which :mod:`torified.lattice` also runs for the determinants
and scaled inverses of its duals and simplicial cones.  Integer kernel
bases, Hermite bases and Hermite transforms share one Hermite reduction by
integer row operations; kernels come back in Hermite form, and a transform
can carry its inverse through the same row operations, which only a
lower-dimensional Hilbert basis or lone monoid asks for.  The reduction
runs Euclid on each column until a +-1 pivot appears, which clears the rest
of its column in one pass (the inputs here, rays and identity blocks, are
mostly 0 and +-1).  Sizes here are tiny (ambient dimension <= 5 or so), so
clarity wins over asymptotics throughout.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd
from operator import mul

Vector = tuple[int, ...]


def vec_gcd(v: Sequence[int]) -> int:
    """The gcd of the entries, 0 for an empty or zero vector."""
    return gcd(*v)


def primitive(v: Sequence[int]) -> Vector:
    """Divide out the gcd; the zero vector has no primitive representative."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vec_neg(v: Sequence[int]) -> Vector:
    return tuple(-a for a in v)


def mat_vec(rows: Sequence[Sequence[int]], x: Sequence[int]) -> Vector:
    return tuple([dot(r, x) for r in rows])


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


def _hermite(m: list[list[int]], ncols: int, inv: list[list[int]] | None = None) -> int:
    """Row Hermite normal form of the first ``ncols`` columns of ``m``, in
    place, by integer row operations (Euclid on each column).

    Columns beyond ``ncols``, such as an identity block, undergo the same
    operations, so [A | I] becomes [H | U] with U @ A = H and U unimodular.
    Pivots are positive and the entries above each pivot are reduced into
    [0, pivot).  Returns the rank r: the first r rows are the pivot rows, the
    others are zero on the first ``ncols`` columns.  The step reducing above
    a pivot only touches the pivot rows, so rows r onward do not depend on it.

    Each Euclid step reduces the second smallest nonzero entry of the column
    (by absolute value, then by row) by the smallest; one scan of the rows
    still nonzero there finds both, and a row that a step brings to 0 leaves
    that list.  Once the smallest is +-1 its row clears every other row in
    one pass: those are the steps the loop would take one at a time, none of
    them changes the pivot row, and their column operations on ``inv`` all
    add to the pivot's row of it, so the order does not matter.

    ``inv``, when given, holds the columns of a matrix V as its rows, and
    each row operation E is matched by the column operation V <- V E^-1, so
    V = I ends as U^-1.
    """
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = [i for i in range(r, nrows) if m[i][c]]
        if not nz:
            continue
        while len(nz) > 1:
            # the smallest |entry| (a1, in row i1) and the next (a2, in row
            # i2), the first row winning ties; 0 stands for none yet
            a1 = a2 = 0
            i1 = i2 = -1
            for i in nz:
                a = abs(m[i][c])
                if not a1 or a < a1:
                    a1, i1, a2, i2 = a, i, a1, i1
                elif not a2 or a < a2:
                    a2, i2 = a, i
            p, pivot_row = m[i1][c], m[i1]
            for i2 in [i for i in nz if i != i1] if a1 == 1 else [i2]:
                q = m[i2][c] // p
                row = m[i2] = [a - q * b for a, b in zip(m[i2], pivot_row)]
                if inv is not None:
                    inv[i1] = [a + q * b for a, b in zip(inv[i1], inv[i2])]
                if not row[c]:
                    nz.remove(i2)
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        if inv is not None:
            inv[r], inv[i] = inv[i], inv[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
            if inv is not None:
                inv[r] = [-a for a in inv[r]]
        row = m[r]
        piv = row[c]
        for i in range(r):
            q = m[i][c] // piv
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], row)]
                if inv is not None:
                    inv[r] = [a + q * b for a, b in zip(inv[r], inv[i])]
        r += 1
    return r


@lru_cache(maxsize=None)
def _identity(n: int) -> tuple[Vector, ...]:
    """The rows of the n x n identity matrix."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _with_identity(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """[A | I] for the matrix A with the given rows."""
    return [[*row, *e] for row, e in zip(rows, _identity(len(rows)))]


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Hermite basis of the full integer kernel {x in Z^ncols : rows @ x = 0}.

    [A^T | I] reduces to its Hermite form [H | U], with U @ A^T = H.  The
    rows of U where H is zero are a lattice basis of the kernel (saturated,
    U being unimodular), and they are in Hermite form, being the rows of a
    Hermite form whose pivots lie in the U columns.
    """
    k = len(rows)
    m = _with_identity([[row[j] for row in rows] for j in range(ncols)])
    _hermite(m, k + ncols)
    return [tuple(row[k:]) for row in m if not any(row[:k])]


def hnf_rows(vectors: Iterable[Sequence[int]], ncols: int) -> tuple[Vector, ...]:
    """Canonical (row-Hermite) basis of the lattice spanned by the given rows."""
    m = [list(v) for v in vectors]
    return tuple(tuple(row) for row in m[: _hermite(m, ncols)])


def row_hermite_transform(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Row Hermite form with transform: returns (h, u, u_inv) with
    u @ rows = h, u unimodular and u_inv its inverse, from one reduction."""
    ncols = len(rows[0]) if rows else 0
    m = _with_identity(rows)
    inv = [row[ncols:] for row in m]
    _hermite(m, ncols, inv)
    return [row[:ncols] for row in m], [row[ncols:] for row in m], [list(c) for c in zip(*inv)]

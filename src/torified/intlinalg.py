"""Exact integer linear algebra on small matrices.

Vectors are tuples of ints, matrices are sequences of row tuples.  Every
routine is exact and works on plain ints (no Fractions), and two
reductions do all the work.  Rank comes from one fraction-free (Bareiss)
elimination, which :mod:`torified.lattice` also runs for the determinants
and adjugates of its duals and simplicial cones above 3 x 3.  Integer kernel
bases, Hermite bases and Hermite transforms share one Hermite reduction by
integer row operations, and kernels come back in Hermite form.  The
transform U of a saturated basis B (:func:`_unit_transform`) has
U B^T = (I; 0), so its last rows are a basis of the lattice orthogonal to
B, and the transform of those rows reads that lattice in them: a
lower-dimensional Hilbert basis or lone monoid takes both, and no inverse
is computed.  Coordinates in a Hermite basis take one triangular
substitution.  The reduction runs Euclid on each column until a +-1 pivot
appears, which clears the rest of its column in one pass (the inputs here,
rays and identity blocks, are mostly 0 and +-1).  Sizes here are tiny
(ambient dimension <= 5 or so), so clarity wins over asymptotics throughout.
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


def _hermite(m: list[list[int]], ncols: int) -> int:
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
    one pass: those are the steps the loop would take one at a time, and none
    of them changes the pivot row, so the order does not matter.
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
                if not row[c]:
                    nz.remove(i2)
        i = nz[0]
        m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        row = m[r]
        piv = row[c]
        for i in range(r):
            q = m[i][c] // piv
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], row)]
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


def _hermite_reduce(
    basis: Sequence[Sequence[int]], v: Sequence[int]
) -> tuple[list[int], list[int]]:
    """(c, rest) with v = c @ basis + rest, for a row-Hermite basis
    (:func:`hnf_rows`): at row j's pivot column no later row is nonzero, so
    c_j is one division, and rest is 0 exactly when v is in the lattice.
    With every pivot 1, rest is v - sum_j v[p_j] B_j (an entry above a pivot
    of 1 is reduced to 0, so no row changes another's pivot coordinate)."""
    rest, coordinates = list(v), []
    for row in basis:
        p = next(k for k, x in enumerate(row) if x)
        c = rest[p] // row[p]
        rest = [a - c * b for a, b in zip(rest, row)]
        coordinates.append(c)
    return coordinates, rest


def _hermite_coordinates(basis: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The c with c @ basis = v, for a row-Hermite basis (:func:`hnf_rows`)."""
    coordinates, rest = _hermite_reduce(basis, v)
    if any(rest):
        raise ValueError(f"{tuple(v)} is not in the lattice")
    return coordinates


def _unit_transform(
    basis: Sequence[Vector], n: int
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(B^T, U[:r], U[r:]) for a saturated basis B = ``basis`` of rank r in
    Z^n, U being the Hermite transform of B^T, with U B^T = (I_r; 0), from
    one reduction of [B^T | I].  The rows of U[r:] are a basis of the lattice
    orthogonal to B; with C = U'[:n-r] for the transform U' of U[r:]^T (a
    second call), C U[r:]^T = I, so C reads that lattice in those
    coordinates, and U[r:]^T lifts them back."""
    r = len(basis)
    m = _with_identity(columns := [[v[i] for v in basis] for i in range(n)])  # [B^T | I]
    _hermite(m, r)
    assert all(m[i][i] == 1 for i in range(r)), "basis must be saturated"
    return columns, [row[r:] for row in m[:r]], [row[r:] for row in m[r:]]

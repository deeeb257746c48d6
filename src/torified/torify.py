"""Torus decompositions of the built-in variety families.

A torification is a finite multiset of labeled tori; the rank-l multiplicity
vector (the delta vector) is everything the counting machinery needs, while
labels record where each torus came from.  Affine families additionally carry
charts: index sets of tori covered by one affine piece each.

Built-ins: toric varieties from fans, affine spaces, products and disjoint
unions, Grassmannians and flag varieties by Schubert cells (no charts; those
decompositions are incompatible with the usual atlases), and type-A Chevalley
groups by Bruhat cells (single chart; the group is affine).

The ``delta_*`` functions give the delta vector of the same decompositions
without building any torus: a disjoint union of affine cells with cell
dimension polynomial c(q) has delta polynomial c(x+1), because A^d
contributes (1+x)^d, and a product of torifications multiplies delta
polynomials.  Their cost grows with the dimension, not with the number of
tori; the ``torify_*`` constructors stay as the labeled listing and as the
enumerative reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import (
    InvalidChevalleyData,
    InvalidComposition,
    MissingCharts,
    ValidationReport,
)
from .lattice import Fan, faces, maximal_cones, require_valid

Charts = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Torus:
    """A split torus of the given rank; the label records provenance."""

    rank: int
    label: str = ""

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("torus rank must be nonnegative")


@dataclass(frozen=True)
class Torification:
    """An ordered multiset of tori, optionally with an affine atlas.

    ``charts`` is None when no compatible affine cover is provided (Schubert
    decompositions); an empty tuple is a present-but-empty atlas, which
    :func:`check_atlas` reports as a coverage violation.
    """

    tori: tuple[Torus, ...]
    charts: Charts | None = None

    def __post_init__(self):
        if self.charts is not None:
            for chart in self.charts:
                for i in chart:
                    if not 0 <= i < len(self.tori):
                        raise ValueError(f"chart index {i} out of range")

    @property
    def dim(self) -> int:
        """Largest torus rank; -1 for the empty torification."""
        return max((t.rank for t in self.tori), default=-1)

    @property
    def is_affine(self) -> bool:
        return self.charts is not None

    def relabeled(self, prefix: str) -> "Torification":
        tori = tuple(Torus(t.rank, f"{prefix}/{t.label}" if t.label else prefix) for t in self.tori)
        return Torification(tori, self.charts)

    def __len__(self) -> int:
        return len(self.tori)

    def __repr__(self) -> str:
        return f"Torification(delta={delta_vector(self)}, affine={self.is_affine})"


def delta_vector(t: Torification) -> tuple[int, ...]:
    """Number of tori of each rank, indexed 0 .. dim."""
    if not t.tori:
        return ()
    delta = [0] * (t.dim + 1)
    for torus in t.tori:
        delta[torus.rank] += 1
    return tuple(delta)


def to_delta_basis(mono: Sequence[int]) -> tuple[int, ...]:
    """Coefficients in the (q-1)-basis of sum_l mono_l q^l:
    delta_k = sum_{l>=k} C(l,k) mono_l.

    Read with ``mono`` as a cell dimension polynomial (mono_d cells of
    dimension d), this is the delta vector of that disjoint union of affine
    cells.
    """
    d = len(mono) - 1
    return tuple(
        sum(comb(l, k) * mono[l] for l in range(k, d + 1)) for k in range(d + 1)
    )


def _poly_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of coefficient lists; on delta vectors, the delta of a product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def torify_point() -> Torification:
    return Torification((Torus(0, "point"),), ((0,),))


def torify_torus(n: int) -> Torification:
    return Torification((Torus(n, "torus"),), ((0,),))


def delta_torus(n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_torus`: one torus of rank n."""
    if n < 0:
        raise ValueError("torus rank must be nonnegative")
    return (0,) * n + (1,)


def torify_affine_space(n: int) -> Torification:
    """One torus of rank |S| per coordinate subset S, all in a single chart."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tori = []
    for d in range(n + 1):
        for axes in combinations(range(1, n + 1), d):
            tori.append(Torus(d, "axes:" + ",".join(map(str, axes))))
    tori.sort(key=lambda t: (t.rank, t.label))
    return Torification(tuple(tori), (tuple(range(len(tori))),))


def delta_affine_space(n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_affine_space`: C(n, l) tori of rank l."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(comb(n, l) for l in range(n + 1))


def torify_toric(fan: Fan) -> Torification:
    """One torus of rank n - dim(cone) per cone; charts are the stars of the
    maximal cones (each affine piece collects the faces of one maximal cone)."""
    require_valid(fan)
    n = fan.ambient_dim
    tori = tuple(
        Torus(n - c.dim, f"cone:{i}") for i, c in enumerate(fan.cones)
    )
    index = {c: i for i, c in enumerate(fan.cones)}
    charts = tuple(
        tuple(sorted(index[f] for f in faces(fan.cones[m])))
        for m in maximal_cones(fan)
    )
    return Torification(tori, charts)


def delta_projective(n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_toric` on the fan of P^n, without the fan:
    every set of k <= n of its n+1 rays spans a cone, so C(n+1, l+1) tori
    have rank l = n - k."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(comb(n + 1, l + 1) for l in range(n + 1))


def product(a: Torification, b: Torification) -> Torification:
    """Pairwise products of tori; ranks add.  Charts survive when both have them."""
    tori = tuple(
        Torus(s.rank + t.rank, f"{s.label}*{t.label}")
        for s in a.tori
        for t in b.tori
    )
    charts: Charts | None = None
    if a.charts is not None and b.charts is not None:
        nb = len(b.tori)
        charts = tuple(
            tuple(sorted(i * nb + j for i in ca for j in cb))
            for ca in a.charts
            for cb in b.charts
        )
    return Torification(tori, charts)


def disjoint_union(parts: list[Torification] | tuple[Torification, ...]) -> Torification:
    """Concatenation; charts survive only when every part carries them."""
    tori: list[Torus] = []
    charts: list[tuple[int, ...]] = []
    have_charts = all(p.charts is not None for p in parts)
    offset = 0
    for p in parts:
        tori.extend(p.tori)
        if have_charts:
            charts.extend(tuple(sorted(i + offset for i in chart)) for chart in p.charts)
        offset += len(p.tori)
    return Torification(tuple(tori), tuple(charts) if have_charts else None)


# ---------------------------------------------------------------------------
# Schubert cells


def _check_grassmannian(k: int, n: int) -> None:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")


def schubert_cells_grassmannian(k: int, n: int) -> list[tuple[tuple[int, ...], int]]:
    """All increasing multi-indices of length k in 1..n, with cell dimensions.

    The cell of (i_1 < ... < i_k) is an affine space of dimension
    sum_t (i_t - t).
    """
    _check_grassmannian(k, n)
    return [
        (idx, sum(i - t for t, i in enumerate(idx, start=1)))
        for idx in combinations(range(1, n + 1), k)
    ]


def schubert_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise partial order on multi-indices."""
    return len(a) == len(b) and all(x <= y for x, y in zip(a, b))


def torify_grassmannian(k: int, n: int) -> Torification:
    """Disjoint union of torified affine cells; deliberately chartless."""
    parts = [
        torify_affine_space(d).relabeled(f"schubert:{idx}")
        for idx, d in schubert_cells_grassmannian(k, n)
    ]
    union = disjoint_union(parts)
    return Torification(union.tori, None)


def _gaussian_polynomial(n: int, k: int) -> list[int]:
    """Coefficients of the Gaussian binomial [n choose k]_q, by the q-Pascal
    rule [m choose j]_q = [m-1 choose j-1]_q + q^j [m-1 choose j]_q."""
    row: list[list[int]] = [[1]] + [[] for _ in range(k)]  # m = 0; [] is zero
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):  # downwards, so row[j - 1] is still m - 1
            shifted = [0] * j + row[j] if row[j] else []
            row[j] = _poly_add(row[j - 1], shifted)
    return row[k]


def delta_grassmannian(k: int, n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_grassmannian`: the Schubert cells of
    Gr(k, n) have the Gaussian binomial as cell dimension polynomial."""
    _check_grassmannian(k, n)
    return to_delta_basis(_gaussian_polynomial(n, k))


def permutation_length(w: tuple[int, ...]) -> int:
    """Number of inversions of a permutation in one-line notation."""
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def _perm_label(w: tuple[int, ...]) -> str:
    if len(w) <= 9:
        return "".join(map(str, w))
    return ",".join(map(str, w))


def _check_composition(composition: Sequence[int]) -> tuple[int, ...]:
    composition = tuple(composition)
    if any(not isinstance(d, int) or d < 1 for d in composition):
        raise InvalidComposition(f"composition parts must be positive integers: {composition}")
    return composition


def schubert_cells_flag(composition: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Minimal coset representatives for a flag type, with cell dimensions.

    Representatives are the permutations increasing within each block of the
    composition; the cell dimension is the inversion count.
    """
    composition = _check_composition(composition)
    n = sum(composition)

    def assignments(remaining: tuple[int, ...], values: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        d, rest = remaining[0], remaining[1:]
        for block in combinations(values, d):
            left = tuple(v for v in values if v not in block)
            for tail in assignments(rest, left):
                yield block + tail

    cells = [
        (w, permutation_length(w))
        for w in assignments(composition, tuple(range(1, n + 1)))
    ]
    cells.sort(key=lambda c: (c[1], c[0]))
    return cells


def torify_flag(composition: tuple[int, ...]) -> Torification:
    """Disjoint union of torified Schubert cells of the flag variety; no charts."""
    parts = [
        torify_affine_space(d).relabeled(f"schubert:w={_perm_label(w)}")
        for w, d in schubert_cells_flag(composition)
    ]
    union = disjoint_union(parts)
    return Torification(union.tori, None)


def delta_flag(composition: tuple[int, ...]) -> tuple[int, ...]:
    """Delta vector of :func:`torify_flag`: the cell dimension polynomial is
    the q-multinomial, a product of Gaussian binomials."""
    composition = _check_composition(composition)
    cells = [1]
    left = sum(composition)
    for d in composition:
        cells = _poly_mul(cells, _gaussian_polynomial(left, d))
        left -= d
    return to_delta_basis(cells)


# ---------------------------------------------------------------------------
# Chevalley groups


@dataclass(frozen=True)
class ChevalleyData:
    """Bruhat-cell data of a split group: torus rank, unipotent dimension and
    the multiset of cell dimensions (one per Weyl element)."""

    torus_rank: int
    unipotent_dim: int
    cell_dims: tuple[int, ...]
    cell_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.torus_rank < 0 or self.unipotent_dim < 0:
            raise InvalidChevalleyData("ranks must be nonnegative")
        if not self.cell_dims:
            raise InvalidChevalleyData("at least one cell is required")
        if min(self.cell_dims) != 0 or max(self.cell_dims) != self.unipotent_dim:
            raise InvalidChevalleyData(
                "cell dimensions must range from 0 to the unipotent dimension"
            )
        if self.cell_labels and len(self.cell_labels) != len(self.cell_dims):
            raise InvalidChevalleyData("one label per cell, or none")
        if not self.cell_labels:
            labels = tuple(f"cell{i}" for i in range(len(self.cell_dims)))
            object.__setattr__(self, "cell_labels", labels)


def _check_sl(n: int) -> None:
    if n < 1:
        raise InvalidChevalleyData("n must be at least 1")


def chevalley_data_sl(n: int) -> ChevalleyData:
    """Cell data of SL(n): torus rank n-1, unipotent dimension n(n-1)/2, and
    one cell of dimension inv(w) per permutation w."""
    _check_sl(n)
    from itertools import permutations

    cells = sorted(
        (permutation_length(w), w) for w in permutations(range(1, n + 1))
    )
    return ChevalleyData(
        torus_rank=n - 1,
        unipotent_dim=n * (n - 1) // 2,
        cell_dims=tuple(l for l, _ in cells),
        cell_labels=tuple(f"w={_perm_label(w)}" for _, w in cells),
    )


def torify_chevalley(data: ChevalleyData) -> Torification:
    """Bruhat torification: each cell contributes affine x torus x affine.

    The whole group is affine, so a single chart covers every torus.
    """
    parts = []
    for s_w, label in zip(data.cell_dims, data.cell_labels):
        cell = product(
            product(torify_affine_space(s_w), torify_torus(data.torus_rank)),
            torify_affine_space(data.unipotent_dim),
        )
        parts.append(cell.relabeled(f"bruhat:{label},cell_dim={s_w}"))
    union = disjoint_union(parts)
    return Torification(union.tori, (tuple(range(len(union.tori))),))


def _delta_bruhat(cells: Sequence[int], torus_rank: int, unipotent_dim: int) -> tuple[int, ...]:
    """(sum_w (1+x)^{s_w}) * x^r * (1+x)^N, from the cell dimension
    polynomial sum_w q^{s_w}, torus rank r and unipotent dimension N."""
    bruhat = _poly_mul(to_delta_basis(cells), delta_torus(torus_rank))
    return tuple(_poly_mul(bruhat, delta_affine_space(unipotent_dim)))


def delta_chevalley(data: ChevalleyData) -> tuple[int, ...]:
    """Delta vector of :func:`torify_chevalley`."""
    cells = [0] * (data.unipotent_dim + 1)
    for s_w in data.cell_dims:
        cells[s_w] += 1
    return _delta_bruhat(cells, data.torus_rank, data.unipotent_dim)


def delta_sl(n: int) -> tuple[int, ...]:
    """Delta vector of ``torify_chevalley(chevalley_data_sl(n))`` without the
    n! permutations: inversions on S_n have the generating polynomial
    [n]_q! = prod_{i <= n} (1 + q + ... + q^{i-1})."""
    _check_sl(n)
    cells = [1]
    for i in range(1, n + 1):
        cells = _poly_mul(cells, [1] * i)
    return _delta_bruhat(cells, n - 1, n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# Atlas and regularity checks


def check_atlas(t: Torification) -> ValidationReport:
    """Every torus must lie in some chart; every chart index must be valid."""
    if t.charts is None:
        raise MissingCharts("torification carries no atlas")
    violations = []
    covered = set()
    for chart in t.charts:
        covered.update(chart)
    for i in range(len(t.tori)):
        if i not in covered:
            violations.append(f"torus {i} ({t.tori[i].label}) is not covered by any chart")
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class RegularityWitness:
    """Closure decomposition per orbit: for each cone index, the indices of
    the cones whose tori make up the orbit closure (the star of the cone)."""

    regular: bool
    closures: tuple[tuple[int, ...], ...]

    def __bool__(self) -> bool:
        return self.regular


def is_regular_toric(fan: Fan) -> RegularityWitness:
    """Witness that the toric torification is regular: each orbit closure is
    the union of the orbits of the cones containing the given cone, and those
    stars are upward closed in the face order."""
    require_valid(fan)
    face_sets = [set(faces(c)) for c in fan.cones]
    stars = []
    regular = True
    for i, c in enumerate(fan.cones):
        star = tuple(j for j, d in enumerate(fan.cones) if c in face_sets[j])
        for j in star:
            for k, d in enumerate(fan.cones):
                if fan.cones[j] in face_sets[k] and k not in star:
                    regular = False
        stars.append(star)
    return RegularityWitness(regular, tuple(stars))

"""Torus decompositions of the built-in variety families.

A torification is a finite multiset of labeled tori; the rank-l multiplicity
vector (the delta vector) is everything the counting machinery needs, while
labels record where each torus came from.  Affine families also carry charts:
index sets of tori covered by one affine piece each.  The tori are stored as
parts, a label prefix over a cell of tori that many parts share, so a Schubert
or Bruhat listing holds each distinct cell once.  A cell is a run table: its
maximal runs of tori of one rank, as label strings; no Torus is built until
``tori`` is first read.  Ranks and charts are read from the runs, and the
delta vector from each distinct cell's runs once, weighted by its parts.

Built-ins: toric varieties from fans, affine spaces, products, Grassmannians
and flag varieties by Schubert cells (no charts; those decompositions are
incompatible with the usual atlases), and type-A Chevalley groups by Bruhat
cells (single chart; the group is affine).

Schubert and Bruhat listings are one construction: cells A^(s_w), times
T^r x A^N for a group G (r = N = 0 for G/P), with the cell dimension
polynomial c(q) = sum_w q^(s_w).  The ``delta_*`` functions give its delta
vector without building any torus, c(x+1) * x^r * (1+x)^N, because A^d
contributes (1+x)^d; their cost grows with the dimension, not with the
number of tori.  The ``torify_*`` listings share one routine for the cells of
G/P, which refuses more than the budget's N(2) tori before it reads the
label tables of A^d.  A split torus has one point over F_2, so N(2) counts
them, by the q-product the flag oracle shares (:func:`q_multinomial`).  Each
table is built once per process, from the one below it with one
concatenation per label, and kept.
A group is its G/B listing times T^r x A^N by :func:`product`, gated on its
size too, which multiplies each distinct cell of its left factor once and
makes each label as ``x*`` + y, with ``x*`` made once per left label x.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, chain, combinations, groupby, repeat, starmap
from math import factorial, prod

from .budget import check_budget
from .errors import (
    InvalidChevalleyData,
    InvalidComposition,
    MissingCharts,
    ValidationReport,
    Value,
)
from .lattice import Fan, require_valid

Charts = tuple[tuple[int, ...], ...]


class Torus(Value):
    """A split torus of the given rank; the label records provenance."""

    __slots__ = ("rank", "label")

    def __init__(self, rank: int, label: str = ""):
        _check_rank(rank)
        self._set(rank, label)


class Torification:
    """An ordered multiset of labeled tori, optionally with an affine atlas.

    The tori are stored as parts ``(prefix, cell)``: ``cell`` is a run table
    of tori that many parts (and torifications) may share, and ``prefix`` is
    the label written in front of the cell's own labels, or None for none.
    A torus labeled ``l`` in a part with prefix ``p`` is labeled ``p/l``, or
    ``p`` when ``l`` is empty.  That rule is applied once, on construction:
    a part with a prefix whose cell holds an empty label is written out as a
    part without one, so no part with a prefix holds an empty label, every
    prefix composes as ``p/l``, and parts over cells without empty labels
    keep sharing them.  ``Torification(tori, charts)`` is the flat
    form: one part without a prefix.  ``from_parts`` takes each cell as a run
    table or as a sequence of tori.  ``tori`` is the tuple of labeled Torus
    objects, built on its first read and kept, and two torifications are
    equal when their tori and charts are, however they are split.

    ``charts`` is None when no compatible affine cover is provided (Schubert
    decompositions); an empty tuple is a present-but-empty atlas, which
    :func:`check_atlas` reports as a coverage violation.
    """

    __slots__ = ("parts", "charts", "_size", "_delta", "_tori")

    def __init__(self, tori: Sequence[Torus], charts: Charts | None = None):
        self._set(((None, tori),), charts)

    @classmethod
    def from_parts(
        cls, parts: Iterable[tuple[str | None, Iterable[Torus]]], charts: Charts | None = None
    ) -> "Torification":
        out = object.__new__(cls)
        out._set(parts, charts)
        return out

    def _set(self, parts, charts) -> None:
        cells = ((p, cell if isinstance(cell, _Cell) else _Cell.of(cell)) for p, cell in parts)
        parts = tuple(
            # "p/" + "" is not "p": a prefixed cell with an empty label is written out
            (None, _Cell((r, [_join(p, l) for l in ls]) for r, ls in cell.runs))
            if p is not None and cell.has_empty
            else (p, cell)
            for p, cell in cells
            if len(cell)
        )
        size = sum(len(cell) for _, cell in parts)
        if charts is not None:
            for chart in charts:
                if chart and not (0 <= min(chart) and max(chart) < size):
                    bad = next(i for i in chart if not 0 <= i < size)
                    raise ValueError(f"chart index {bad} out of range")
        for name, value in (
            ("parts", parts), ("charts", charts), ("_size", size), ("_delta", None), ("_tori", None)
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Torification is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Torification.from_parts, (self.parts, self.charts)

    @property
    def tori(self) -> tuple[Torus, ...]:
        """The labeled tori in order, built once, on the first read."""
        if self._tori is None:
            tori = tuple(
                Torus(rank, _join(prefix, label))
                for prefix, cell in self.parts
                for rank, labels in cell.runs
                for label in labels
            )
            object.__setattr__(self, "_tori", tori)
        return self._tori

    def ranks(self) -> Iterator[int]:
        """The rank of each torus in order, read from the run lengths."""
        for _, cell in self.parts:
            for rank, labels in cell.runs:
                yield from repeat(rank, len(labels))

    @property
    def dim(self) -> int:
        """Largest torus rank; -1 for the empty torification."""
        return len(delta_vector(self)) - 1

    @property
    def is_affine(self) -> bool:
        return self.charts is not None

    def relabeled(self, prefix: str) -> "Torification":
        """Every label l becomes ``prefix/l`` (``prefix`` when l is empty);
        the parts keep their cells and take the composed prefix, and a cell
        with an empty label is written out under it, as on construction."""
        parts = [(prefix if p is None else f"{prefix}/{p}", cell) for p, cell in self.parts]
        # as many tori as before, so the charts checked on self stay in range
        return Torification.from_parts(parts, self.charts)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Torification):
            return NotImplemented
        return (
            self._size == other._size
            and self.charts == other.charts
            and (self.parts == other.parts or self.tori == other.tori)
        )

    def __hash__(self) -> int:
        return hash((self.tori, self.charts))

    def __repr__(self) -> str:
        return f"Torification(delta={delta_vector(self)}, affine={self.is_affine})"


def _join(prefix: str | None, label: str) -> str:
    """The label of a torus labeled ``label`` in a part with this prefix."""
    if prefix is None:
        return label
    return f"{prefix}/{label}" if label else prefix


class _Cell:
    """The tori of a cell as a run table: a tuple of maximal runs ``(rank,
    labels)``, each the labels of consecutive tori of one rank.  A Schubert or
    Bruhat cell has a few runs per torus of A^(s_w), so the labels are kept as
    strings and a Torus is made only when the cell is iterated.  Whether a
    label needs a JSON escape is decided by one scan, on the first
    :meth:`needs_escape`, and kept, so a cell that many listings share (the
    tables of A^d) is scanned once."""

    __slots__ = ("runs", "_size", "has_empty", "_escapes")

    def __init__(self, pieces: Iterable[tuple[int, Iterable[str]]]):
        """The run table of ``(rank, labels)`` pieces in order; adjacent
        pieces of one rank join into one run and empty pieces drop out.
        ``has_empty`` tells whether some label is the empty string."""
        runs: list[tuple[int, list[str]]] = []
        for rank, labels in pieces:
            if runs and runs[-1][0] == rank:
                runs[-1][1].extend(labels)
            elif labels:
                runs.append((rank, list(labels)))
        self._set(tuple((rank, tuple(labels)) for rank, labels in runs))

    def _set(self, runs: tuple[tuple[int, tuple[str, ...]], ...]) -> None:
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_size", sum(len(labels) for _, labels in runs))
        object.__setattr__(self, "has_empty", any("" in labels for _, labels in runs))
        object.__setattr__(self, "_escapes", None)

    @classmethod
    def of(cls, tori: Iterable[Torus]) -> "_Cell":
        runs = groupby(tori, operator.attrgetter("rank"))
        return cls((rank, [t.label for t in run]) for rank, run in runs)

    @classmethod
    def of_runs(cls, runs: tuple[tuple[int, tuple[str, ...]], ...]) -> "_Cell":
        """The cell of ``runs``, a run table already: maximal runs of tuples
        of labels, none empty, kept as they are, with no copy."""
        out = object.__new__(cls)
        out._set(runs)
        return out

    def needs_escape(self) -> bool:
        """Whether some label is not its own JSON string text: one scan of
        the joined labels (:func:`_json_plain`) on the first call, kept."""
        if self._escapes is None:
            text = "".join(chain.from_iterable(labels for _, labels in self.runs))
            object.__setattr__(self, "_escapes", not _json_plain(text))
        return self._escapes

    def __setattr__(self, name, value):
        raise AttributeError(f"a cell is immutable; cannot set {name!r}")

    def __reduce__(self):
        return _Cell, (self.runs,)

    def __len__(self) -> int:
        return self._size


def _json_plain(text: str) -> bool:
    """Whether ``text`` is its own JSON string text: ASCII that is printable
    and holds no quote or backslash is what ``encode_basestring_ascii``
    leaves as it is."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def delta_vector(t: Torification) -> tuple[int, ...]:
    """Number of tori of each rank, indexed 0 .. dim: the run lengths of each
    distinct cell (cells hash by identity), read once and weighted by its parts,
    summed by rank; counted once per torification, which cannot change."""
    if t._delta is None:
        counts: Counter[int] = Counter()
        for cell, parts in Counter(cell for _, cell in t.parts).items():
            for rank, labels in cell.runs:
                counts[rank] += parts * len(labels)
        delta = tuple(counts[rank] for rank in range(max(counts, default=-1) + 1))
        object.__setattr__(t, "_delta", delta)
    return t._delta


def _graded_terms(delta: Sequence[int], x: int) -> dict[int, int]:
    """{r: delta_r x^r} by ascending r with delta_r nonzero; the values sum
    to N(q) at x = q - 1 and to |X(D)| at x = |D|.  One power per such r."""
    terms, power, last = {}, 1, 0
    for r, d in enumerate(delta):
        if d:
            power *= x ** (r - last)
            terms[r], last = d * power, r
    return terms


def to_delta_basis(mono: Sequence[int]) -> tuple[int, ...]:
    """Coefficients in the (q-1)-basis of sum_l mono_l q^l:
    delta_k = sum_{l>=k} C(l,k) mono_l.

    Read with ``mono`` as a cell dimension polynomial (mono_d cells of
    dimension d), this is the delta vector of that disjoint union of affine
    cells.
    """
    return _taylor_shift(mono, 1)


def _taylor_shift(coeffs: Sequence[int], step: int) -> tuple[int, ...]:
    """Coefficients of p(x + step) from those of p(x): d rounds of synthetic
    division by x - step, d(d+1)/2 additions in all and no binomial.  Step 1
    takes the monomial basis to the (q-1)-basis, step -1 back."""
    a = list(coeffs)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += step * a[j + 1]
    return tuple(a)


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
    _check_rank(n)
    return Torification(_Cell([(n, ["torus"])]), ((0,),))


def _check_rank(n: int) -> None:
    if n < 0:
        raise ValueError("torus rank must be nonnegative")


def delta_torus(n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_torus`: one torus of rank n."""
    _check_rank(n)
    return (0,) * n + (1,)


def torify_affine_space(n: int) -> Torification:
    """One torus of rank |S| per coordinate subset S, all in a single chart."""
    _check_affine(n)
    check_budget(2**n, "tori")
    cell = _affine_cell(n)
    return Torification(cell, (tuple(range(len(cell))),))


@functools.lru_cache(maxsize=None)
def _affine_cell(d: int) -> _Cell:
    """The tori of A^d, sorted by rank and label, as a run table: the cell
    that ``torify_affine_space(d)`` lists and every Schubert and Bruhat part
    over A^d shares.  It is a function of d alone, so it is built once per
    process and kept (``cache_clear`` drops the tables).  Rank r of A^d is
    rank r of A^(d-1) merged with S + ",d" for each S of rank r - 1 (S + "d"
    at rank 1), so each label is one concatenation, made once, and its string
    is shared by the table of every larger dimension: the tables kept up to
    dimension D hold 2^D label strings.  Callers check the budget first."""
    if not d:
        return _Cell.of_runs(((0, ("axes:",)),))
    prev = _affine_cell(d - 1).runs
    runs = [prev[0]]
    for r in range(1, d + 1):
        suffix = f",{d}" if r > 1 else str(d)
        labels = [s + suffix for s in prev[r - 1][1]]
        if r < d:
            labels += prev[r][1]
            labels.sort()  # two sorted runs, as one suffix keeps the order: one merge
        runs.append((r, tuple(labels)))
    return _Cell.of_runs(tuple(runs))


def _check_affine(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


def delta_affine_space(n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_affine_space`: C(n, l) tori of rank l,
    each binomial from the one before, C(n, l + 1) = C(n, l) (n - l) / (l + 1)."""
    _check_affine(n)
    return tuple(accumulate(range(n), lambda c, l: c * (n - l) // (l + 1), initial=1))


def torify_toric(fan: Fan) -> Torification:
    """One torus of rank n - dim(cone) per cone; one chart per maximal cone, its
    faces (its affine piece), read off the fan's maximal pass."""
    require_valid(fan)
    n = fan.ambient_dim
    tori = _Cell((n - c.dim, (f"cone:{i}",)) for i, c in enumerate(fan.cones))
    charts = tuple(fan._maximal().rows.values())
    return Torification(tori, charts)


def delta_projective(n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_toric` on the fan of P^n, without the fan:
    every set of k <= n of its n+1 rays spans a cone, so C(n+1, l+1) tori
    have rank l = n - k."""
    _check_affine(n)
    return delta_affine_space(n + 1)[1:]


def product(a: Torification, b: Torification) -> Torification:
    """Pairwise products of tori, a's major; ranks add and labels join as
    ``s*t``.  Charts survive when both have them.  The len(a) * len(b) tori
    are checked against the budget first; then a's parts keep their prefixes,
    and each distinct cell of a is multiplied by b's runs once."""
    check_budget(len(a) * len(b), "tori")
    b_runs = _Cell((r, [_join(q, l) for l in ls]) for q, cell in b.parts for r, ls in cell.runs).runs

    def times(cell: _Cell) -> _Cell:
        heads = ((r, x + "*") for r, xs in cell.runs for x in xs)  # one "x*" per left label x
        return _Cell((r + s, [head + y for y in ys]) for r, head in heads for s, ys in b_runs)

    shared = {cell: times(cell) for cell in dict.fromkeys(cell for _, cell in a.parts)}
    parts = [(p, shared[cell]) for p, cell in a.parts]
    charts: Charts | None = None
    if a.charts is not None and b.charts is not None:
        nb = len(b)
        charts = tuple(
            tuple(sorted(i * nb + j for i in ca for j in cb))
            for ca in a.charts
            for cb in b.charts
        )
    return Torification.from_parts(parts, charts)


def _cell_listing(tori: int, cells: Callable[[], Iterable[tuple[str, int]]]) -> Torification:
    """One part per cell ``(label, s_w)`` that ``cells()`` yields, over the
    tori of A^(s_w), without charts.  ``tori``, the number of tori to be built
    (sum_w 2^(s_w), times 2^N for a group), is checked against the budget
    before ``cells`` is called or a table is read; the parts over A^d share
    its one table (:func:`_affine_cell`)."""
    check_budget(tori, "tori")
    return Torification.from_parts((label, _affine_cell(s_w)) for label, s_w in cells())


def _cell_ranks(cells: Iterable[tuple[int, int]], right: Sequence[int] | None = None) -> list[int]:
    """The rank of each torus of a cell listing, in order, with no label made:
    ``count`` cells A^d for each ``(d, count)`` in turn, each cell's tori by
    ascending rank as :func:`_affine_cell` lists them (C(d, r) of rank r),
    and each torus times the tori of ranks ``right``, if given, as
    :func:`product` takes them.  Each dimension's ranks are built once, from
    its Pascal row."""
    rows: dict[int, list[int]] = {}
    out: list[int] = []
    for d, count in cells:
        row = rows.get(d)
        if row is None:
            row = []
            for r, c in enumerate(delta_affine_space(d)):
                row += [r] * c
            if right is not None:
                row = [r + s for r in row for s in right]
            rows[d] = row
        out += row * count
    return out


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
    base = k * (k + 1) // 2  # sum_t t
    return [(idx, sum(idx) - base) for idx in combinations(range(1, n + 1), k)]


def torify_grassmannian(k: int, n: int) -> Torification:
    """Disjoint union of torified affine cells; deliberately chartless."""
    _check_grassmannian(k, n)
    return _cell_listing(
        q_multinomial((k, n - k), 2),
        lambda: ((f"schubert:{idx}", d) for idx, d in schubert_cells_grassmannian(k, n)),
    )


def q_multinomial(composition: Sequence[int], q: int) -> int:
    """Number of flags of the given type over F_q: [n]_q! / prod_i [d_i]_q!,
    with [m]_q! = prod_{i <= m} (q^i - 1) and n = sum_i d_i.  The largest
    part's [d]_q! cancels, so the numerator is the factors d < i <= n alone.
    At q = 2 it is sum_w 2^(s_w), the tori of the type's Schubert listing.
    Parts may be 0; a negative part raises ValueError."""
    parts = sorted(composition)
    if parts and parts[0] < 0:
        raise ValueError(f"composition parts must be nonnegative: {tuple(composition)}")
    top = parts.pop() if parts else 0
    num = _tree_product([q**i - 1 for i in range(top + 1, top + sum(parts) + 1)])
    den = _tree_product([q**i - 1 for d in parts for i in range(1, d + 1)])
    return _exact_div(num, den)


def _tree_product(factors: Sequence[int]) -> int:
    """prod(factors) over a balanced tree: each product is of two ints of
    about the same size, where multiplication is subquadratic, rather than
    of one growing int and a small factor at a time."""
    if len(factors) <= 2:
        return prod(factors)
    mid = len(factors) // 2
    return _tree_product(factors[:mid]) * _tree_product(factors[mid:])


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def _gaussian_polynomial(n: int, k: int) -> list[int]:
    """Coefficients of the Gaussian binomial [n choose k]_q, by the product
    formula [n choose j]_q = [n choose j-1]_q (1 - q^(n-j+1)) / (1 - q^j) for
    j = 1..min(k, n - k): per j, one multiplication by a binomial and one exact
    division by another, each O(j(n - j)) additions."""
    row = [1]
    for j in range(1, min(k, n - k) + 1):
        a = n - j + 1
        row += [0] * a
        for i in range(len(row) - 1, a - 1, -1):  # times 1 - q^a, downwards
            row[i] -= row[i - a]
        for i in range(j, len(row)):  # over 1 - q^j: r_i = p_i + r_(i-j), upwards
            row[i] += row[i - j]
        del row[len(row) - j:]  # the quotient's degree is j less; these are 0
    return row


def delta_grassmannian(k: int, n: int) -> tuple[int, ...]:
    """Delta vector of :func:`torify_grassmannian`: the Schubert cells of
    Gr(k, n) have the Gaussian binomial as cell dimension polynomial."""
    _check_grassmannian(k, n)
    return to_delta_basis(_gaussian_polynomial(n, k))


def permutation_length(w: tuple[int, ...]) -> int:
    """Number of inversions of a permutation in one-line notation."""
    return sum(starmap(operator.gt, combinations(w, 2)))


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
    words = [((), tuple(range(1, sum(composition) + 1)))]  # (blocks so far, values left)
    for d in composition[:-1]:
        words = [
            (w + block, tuple([v for v in left if v not in block]))
            for w, left in words
            for block in combinations(left, d)
        ]
    perms = (w + left for w, left in words)  # the last block takes the values left
    return sorted(((w, permutation_length(w)) for w in perms), key=lambda c: (c[1], c[0]))


def torify_flag(composition: tuple[int, ...]) -> Torification:
    """Disjoint union of torified Schubert cells of the flag variety; no charts."""
    composition = _check_composition(composition)
    return _cell_listing(
        q_multinomial(composition, 2),
        lambda: ((f"schubert:w={_perm_label(w)}", d) for w, d in schubert_cells_flag(composition)),
    )


def _flag_polynomial(composition: Sequence[int]) -> list[int]:
    """The cell dimension polynomial of a flag type: the q-multinomial, a
    product of Gaussian binomials."""
    composition = _check_composition(composition)
    cells, left = [1], sum(composition)
    for d in composition:
        cells = _poly_mul(cells, _gaussian_polynomial(left, d))
        left -= d
    return cells


def delta_flag(composition: tuple[int, ...]) -> tuple[int, ...]:
    """Delta vector of :func:`torify_flag`."""
    return to_delta_basis(_flag_polynomial(composition))


# ---------------------------------------------------------------------------
# Chevalley groups


class ChevalleyData(Value):
    """Bruhat-cell data of a split group: torus rank, unipotent dimension and
    the multiset of cell dimensions (one per Weyl element)."""

    __slots__ = ("torus_rank", "unipotent_dim", "cell_dims", "cell_labels")

    def __init__(self, torus_rank: int, unipotent_dim: int, cell_dims, cell_labels=()):
        numbers = (torus_rank, unipotent_dim, *cell_dims)
        if not all(isinstance(x, int) and x >= 0 for x in numbers):
            raise InvalidChevalleyData("ranks and cell dimensions must be nonnegative integers")
        if not cell_dims:
            raise InvalidChevalleyData("at least one cell is required")
        if min(cell_dims) != 0 or max(cell_dims) != unipotent_dim:
            raise InvalidChevalleyData(
                "cell dimensions must range from 0 to the unipotent dimension"
            )
        if cell_labels and len(cell_labels) != len(cell_dims):
            raise InvalidChevalleyData("one label per cell, or none")
        if not cell_labels:
            cell_labels = tuple(f"cell{i}" for i in range(len(cell_dims)))
        self._set(torus_rank, unipotent_dim, cell_dims, cell_labels)


def _check_sl(n: int) -> None:
    if n < 1:
        raise InvalidChevalleyData("n must be at least 1")


def chevalley_data_sl(n: int) -> ChevalleyData:
    """Cell data of SL(n): torus rank n-1, unipotent dimension n(n-1)/2, and
    one cell of dimension inv(w) per permutation w."""
    _check_sl(n)
    check_budget(factorial(n), "permutations")
    cells = schubert_cells_flag((1,) * n)  # G/B of type (1, ..., 1): every permutation
    return ChevalleyData(
        torus_rank=n - 1,
        unipotent_dim=n * (n - 1) // 2,
        cell_dims=tuple(l for _, l in cells),
        cell_labels=tuple(f"w={_perm_label(w)}" for w, _ in cells),
    )


def torify_chevalley(data: ChevalleyData) -> Torification:
    """Bruhat torification: the cells A^(s_w) of G/B, times T^r, times A^N,
    all in a single chart, since the whole group is affine."""
    cells = _cell_listing(
        sum(1 << s_w for s_w in data.cell_dims) << data.unipotent_dim,
        lambda: ((f"bruhat:{w},cell_dim={s}", s) for s, w in zip(data.cell_dims, data.cell_labels)),
    )
    unipotent = Torification(_affine_cell(data.unipotent_dim))  # read after the gate
    t = product(cells, product(torify_torus(data.torus_rank), unipotent))
    return Torification.from_parts(t.parts, (tuple(range(len(t))),))


def _bruhat_polynomial(data: ChevalleyData) -> list[int]:
    """The cell dimension polynomial sum_w q^{s_w} of the Bruhat cells."""
    counts = Counter(data.cell_dims)
    return [counts[s_w] for s_w in range(data.unipotent_dim + 1)]


def _delta_bruhat(cells: Sequence[int], torus_rank: int, unipotent_dim: int) -> tuple[int, ...]:
    """(sum_w (1+x)^{s_w}) * x^r * (1+x)^N, from the cell dimension
    polynomial c(q) = sum_w q^{s_w}, torus rank r and unipotent dimension N.
    As c(1+x) (1+x)^N is (c(q) q^N) at q = 1+x, it is one Taylor shift."""
    return (0,) * torus_rank + _taylor_shift([0] * unipotent_dim + list(cells), 1)


def delta_chevalley(data: ChevalleyData) -> tuple[int, ...]:
    """Delta vector of :func:`torify_chevalley`."""
    return _delta_bruhat(_bruhat_polynomial(data), data.torus_rank, data.unipotent_dim)


def delta_sl(n: int) -> tuple[int, ...]:
    """Delta vector of ``torify_chevalley(chevalley_data_sl(n))`` without the
    n! permutations: inversions on S_n have the generating polynomial
    [n]_q!, the cell polynomial of the full flag type (1, ..., 1)."""
    _check_sl(n)
    return _delta_bruhat(_flag_polynomial((1,) * n), n - 1, n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# Atlas and regularity checks


def check_atlas(t: Torification) -> ValidationReport:
    """Every torus must lie in some chart; every chart index must be valid."""
    if t.charts is None:
        raise MissingCharts("torification carries no atlas")
    covered = set().union(*t.charts)
    return ValidationReport(tuple(
        f"torus {i} ({t.tori[i].label}) is not covered by any chart"
        for i in range(len(t))
        if i not in covered
    ))


class RegularityWitness(Value):
    """Closure decomposition per orbit: for each cone index, the indices of
    the cones whose tori make up the orbit closure (the star of the cone)."""

    __slots__ = ("regular", "closures")

    def __init__(self, regular: bool, closures: tuple[tuple[int, ...], ...]):
        self._set(regular, closures)

    def __bool__(self) -> bool:
        return self.regular


def is_regular_toric(fan: Fan) -> RegularityWitness:
    """Witness that the toric torification is regular: each orbit closure is
    the union of the orbits of the cones containing the given cone, and those
    stars are upward closed in the face order."""
    require_valid(fan)
    stars: list[list[int]] = [[] for _ in fan.cones]
    for j, face_ids in enumerate(fan.face_indices):  # ascending j: sorted stars
        for i in face_ids:
            stars[i].append(j)
    regular = all(set(stars[j]) <= set(star) for star in stars for j in star)
    return RegularityWitness(regular, tuple(map(tuple, stars)))

"""Counting polynomials, their zeta-factor form, finite-field oracles, and
the table of built-in families.

A torification with delta vector (d_0, ..., d_d) counts points by
N(q) = sum_l d_l (q-1)^l, and the gadget by |X(D)| = N(|D| + 1): one sum over
delta, ``torify._graded_terms``, at x = q - 1 and at x = |D|.  The monomial
coefficients ``mono`` are those of D(q - 1) for D(x) = sum_k d_k x^k, one
Taylor shift by -1 in O(d^2) additions, on the first read; ``to_delta_basis``
in ``torify`` is the shift by +1.  The zeta function is prod_i (s-i)^(-a_i),
kept as its factor list.  The oracles count the same points by classical
product formulas over F_q, with every division checked to be exact.

``_FAMILIES`` holds one record per built-in family: check, delta, mono (each
from cells or binomials, not the formula), formula, listing, and the rank of
each torus of the listing in order, from the cells with no label made.  A row
given as None is one Taylor shift of the other: ``affine``, ``projective``,
``gm`` (or ``torus``) and ``sl`` give both rows, ``grassmannian`` and ``flag``
their cell polynomial as mono, and ``toric`` neither, its delta and its ranks
read from the listing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate, chain, repeat
from math import prod

from .errors import UnknownFamily, Value
from .lattice import require_valid, standard_fan
from .torify import Torification, _cell_ranks, _check_affine, _check_composition
from .torify import _check_grassmannian, _check_rank, _check_sl, _flag_polynomial
from .torify import _gaussian_polynomial, _graded_terms, _poly_mul, _taylor_shift
from .torify import chevalley_data_sl, delta_affine_space, delta_projective, delta_sl
from .torify import delta_torus, delta_vector, schubert_cells_grassmannian, torify_affine_space
from .torify import torify_chevalley, torify_flag, torify_grassmannian, torify_toric, torify_torus


def to_monomial_basis(delta: Sequence[int]) -> tuple[int, ...]:
    """Coefficients a_l of N(q) = sum a_l q^l from the (q-1)-basis."""
    return _taylor_shift(delta, -1)


class CountingPolynomial(Value):
    """N(q) by its delta vector, the coefficients in the (q-1)-basis; the
    monomial coefficients ``mono`` are derived on their first read."""

    __slots__ = ("delta", "_mono")

    def __init__(self, delta: Sequence[int]):
        self._set(tuple(int(x) for x in delta), None)

    @classmethod
    def _of_rows(cls, delta: Sequence[int], mono: Sequence[int]) -> CountingPolynomial:
        """N(q) with its monomial coefficients given too: a family record's rows."""
        out = object.__new__(cls)
        out._set(tuple(delta), tuple(mono))
        return out

    @property
    def mono(self) -> tuple[int, ...]:
        if self._mono is None:
            object.__setattr__(self, "_mono", to_monomial_basis(self.delta))
        return self._mono

    def poly_string(self) -> str:
        terms, mono = [], self.mono
        for l in range(len(mono) - 1, -1, -1):
            a = mono[l]
            if a:
                coeff = "" if l and abs(a) == 1 else str(abs(a)) + ("*" if l else "")
                power = "" if l == 0 else "q" if l == 1 else f"q^{l}"
                sign = ("- " if a < 0 else "+ ") if terms else ("-" if a < 0 else "")
                terms.append(sign + coeff + power)
        return " ".join(terms) or "0"

    def __repr__(self) -> str:
        return f"CountingPolynomial({self.poly_string()})"


def counting_polynomial(t: Torification) -> CountingPolynomial:
    return CountingPolynomial(delta_vector(t))


def eval_counting(n_poly: CountingPolynomial, q: int) -> int:
    """Exact value of N(q), from the (q-1)-basis."""
    return sum(_graded_terms(n_poly.delta, int(q) - 1).values())


class ZetaFunction(Value):
    """The factor list of prod_i (s - root_i)^exponent_i, exponents nonzero."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        roots = [r for r, _ in factors]
        if roots != sorted(set(roots)):
            raise ValueError("factor roots must be strictly increasing")
        if any(e == 0 for _, e in factors):
            raise ValueError("factor exponents must be nonzero")
        self._set(factors)

    def render(self) -> str:
        """Human form, e.g. ``1/(s(s-1))`` or ``s/(s-1)``."""

        def factor_str(root: int, power: int) -> str:
            if root == 0:
                base = "s"
            elif root > 0:
                base = f"(s-{root})"
            else:
                base = f"(s+{-root})"
            return base + (f"^{power}" if power != 1 else "")

        num = [factor_str(r, e) for r, e in self.factors if e > 0]
        den = [factor_str(r, -e) for r, e in self.factors if e < 0]
        num_str = "".join(num) if num else "1"
        if not den:
            return num_str
        if len(den) == 1:
            return f"{num_str}/{den[0]}"
        return f"{num_str}/({''.join(den)})"

    def __repr__(self) -> str:
        return f"ZetaFunction({self.render()})"


def zeta(n_poly: CountingPolynomial) -> ZetaFunction:
    """Factor (i, -a_i) for every nonzero monomial coefficient a_i."""
    return _zeta(n_poly.mono)


def _zeta(mono: Sequence[int]) -> ZetaFunction:
    """:func:`zeta` of the monomial coefficients alone, as a family record gives them."""
    return ZetaFunction(tuple((i, -a) for i, a in enumerate(mono) if a != 0))


# ---------------------------------------------------------------------------
# Independent finite-field oracles


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of an n-space over F_q, by exact division."""
    num = _tree_product([q**i - 1 for i in range(n - k + 1, n + 1)])
    den = _tree_product([q**i - 1 for i in range(1, k + 1)])
    return _exact_div(num, den)


def q_multinomial(composition: Sequence[int], q: int) -> int:
    """Number of flags of the given type over F_q."""
    num = _tree_product([q**i - 1 for i in range(1, sum(composition) + 1)])
    den = _tree_product([q**i - 1 for d in composition for i in range(1, d + 1)])
    return _exact_div(num, den)


def _tree_product(factors: Sequence[int]) -> int:
    """prod(factors) over a balanced tree: each product is of two ints of
    about the same size, where multiplication is subquadratic, rather than
    of one growing int and a small factor at a time."""
    if len(factors) <= 2:
        return prod(factors)
    mid = len(factors) // 2
    return _tree_product(factors[:mid]) * _tree_product(factors[mid:])


def sl_group_order(n: int, q: int) -> int:
    """|SL_n(F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    return q ** (n * (n - 1) // 2) * _tree_product([q**i - 1 for i in range(2, n + 1)])


def _signed_row(n: int) -> tuple[int, ...]:
    """Monomial coefficients of (q-1)^n, (-1)^(n-l) C(n, l), each from the one before."""
    return tuple(accumulate(range(n), lambda c, l: -c * (n - l) // (l + 1), initial=(-1) ** n))


#: Each entry looks the library's functions up when called, so tests can patch them.
_Family = namedtuple("_Family", "check delta mono formula build ranks")
_FAMILIES = {
    "toric": _Family(require_valid, None, None,
                     lambda fan, q: sum((q - 1) ** (fan.ambient_dim - c.dim) for c in fan.cones),
                     lambda fan: torify_toric(fan), None),
    "affine": _Family(_check_affine, lambda n: delta_affine_space(n), lambda n: (0,) * n + (1,),
                      lambda n, q: q**n, lambda n: torify_affine_space(n),
                      lambda n: _cell_ranks([(n, 1)])),
    # the fan's cones by dimension k, C(n+1, k) of them, each a torus of rank n - k
    "projective": _Family(_check_affine, lambda n: delta_projective(n), lambda n: (1,) * (n + 1),
                          lambda n, q: _exact_div(q ** (n + 1) - 1, q - 1),
                          lambda n: torify_toric(standard_fan("projective_space", n)),
                          lambda n: list(chain.from_iterable(
                              map(repeat, range(n, -1, -1), delta_affine_space(n + 1))))),
    "gm": _Family(_check_rank, lambda n: delta_torus(n), lambda n: _signed_row(n),
                  lambda n, q: (q - 1) ** n, lambda n: torify_torus(n), lambda n: [n]),
    "grassmannian": _Family(lambda kn: _check_grassmannian(*kn), None,
                            lambda kn: _gaussian_polynomial(kn[1], kn[0]),
                            lambda kn, q: gaussian_binomial(kn[1], kn[0], q),
                            lambda kn: torify_grassmannian(*kn),
                            lambda kn: _cell_ranks((d, 1)
                                                   for _, d in schubert_cells_grassmannian(*kn))),
    # the cells sorted by dimension, mono_d of dimension d
    "flag": _Family(_check_composition, None, lambda c: _flag_polynomial(c),
                    lambda c, q: q_multinomial(tuple(c), q), lambda c: torify_flag(c),
                    lambda c: _cell_ranks(enumerate(_flag_polynomial(c)))),
    # each Bruhat cell A^(s_w) x T^(n-1) x A^N counts q^(s_w) (q-1)^(n-1) q^N
    "sl": _Family(_check_sl, lambda n: delta_sl(n),
                  lambda n: _poly_mul([0] * (n * (n - 1) // 2) + _flag_polynomial((1,) * n),
                                      _signed_row(n - 1)),
                  lambda n, q: sl_group_order(n, q),
                  lambda n: torify_chevalley(chevalley_data_sl(n)),
                  lambda n: _cell_ranks(enumerate(_flag_polynomial((1,) * n)),
                                        _cell_ranks([(n * (n - 1) // 2, 1)], [n - 1]))),
}
_FAMILIES["torus"] = _FAMILIES["gm"]


def oracle_point_count(family: str, params, q: int) -> int:
    """Point count over F_q by the classical formula for each family.

    Families: ``toric`` (params: Fan), ``affine`` (n), ``projective`` (n),
    ``grassmannian`` ((k, n)), ``flag`` (composition), ``sl`` (n), ``gm`` or
    ``torus`` (n), checked as the listing checks them.  The formulas are used
    as polynomials in q; primality of q is the caller's business.
    """
    q = int(q)
    if q < 2:
        raise ValueError("oracle formulas require q >= 2")
    record = _FAMILIES.get(family)
    if record is None:
        raise UnknownFamily(f"no oracle for family {family!r}")
    record.check(params)
    return record.formula(params, q)


class CountCheck(Value):
    __slots__ = ("q", "counted", "oracle")

    def __init__(self, q: int, counted: int, oracle: int):
        self._set(q, counted, oracle)

    @property
    def ok(self) -> bool:
        return self.counted == self.oracle


class CountReport(Value):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CountCheck, ...]):
        self._set(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok


def verify_counting(
    t: Torification, family: str, params, q_list: Sequence[int]
) -> CountReport:
    """Compare eval_counting against the family oracle at every listed q."""
    return verify_counting_polynomial(counting_polynomial(t), family, params, q_list)


def verify_counting_polynomial(
    n_poly: CountingPolynomial, family: str, params, q_list: Sequence[int]
) -> CountReport:
    """:func:`verify_counting` for a counting polynomial, e.g. one built from
    an algebraic delta vector."""
    checks = tuple(
        CountCheck(q, eval_counting(n_poly, q), oracle_point_count(family, params, q))
        for q in q_list
    )
    return CountReport(checks)

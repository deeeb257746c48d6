"""Counting polynomials, their zeta-factor form, and finite-field oracles.

A torification with delta vector (d_0, ..., d_d) counts points by
N(q) = sum_l d_l (q-1)^l; the monomial coefficients follow by the binomial
transform a_l = sum_{k>=l} (-1)^(k-l) C(k,l) d_k, and the zeta function is
the rational expression prod_i (s-i)^(-a_i), kept symbolically as its factor
list.  The inverse transform, ``to_delta_basis``, lives in ``torify``, where it
also turns cell dimension polynomials into delta vectors.  The oracle side
recomputes the same counts from classical product formulas over F_q, with
every division checked to be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .errors import UnknownFamily
from .lattice import Fan, require_valid
from .torify import Torification, delta_vector, to_delta_basis  # noqa: F401 (re-exported)


def to_monomial_basis(delta: Sequence[int]) -> tuple[int, ...]:
    """Coefficients a_l of N(q) = sum a_l q^l from the (q-1)-basis."""
    d = len(delta) - 1
    return tuple(
        sum((-1) ** (k - l) * comb(k, l) * delta[k] for k in range(l, d + 1))
        for l in range(d + 1)
    )


@dataclass(frozen=True)
class CountingPolynomial:
    """N(q) in both the (q-1)-basis (delta) and the monomial basis (mono)."""

    delta: tuple[int, ...]
    mono: tuple[int, ...]

    @classmethod
    def from_delta(cls, delta: Sequence[int]) -> "CountingPolynomial":
        delta = tuple(int(x) for x in delta)
        return cls(delta, to_monomial_basis(delta))

    @property
    def degree(self) -> int:
        return len(self.delta) - 1

    def __call__(self, q: int) -> int:
        return eval_counting(self, q)

    def poly_string(self, var: str = "q") -> str:
        if not any(self.mono):
            return "0"
        terms = []
        for l in range(len(self.mono) - 1, -1, -1):
            a = self.mono[l]
            if a == 0:
                continue
            if l == 0:
                body = str(abs(a))
            else:
                head = "" if abs(a) == 1 else f"{abs(a)}*"
                body = f"{head}{var}" + (f"^{l}" if l > 1 else "")
            if not terms:
                terms.append(("-" if a < 0 else "") + body)
            else:
                terms.append(("- " if a < 0 else "+ ") + body)
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"CountingPolynomial({self.poly_string()})"


def counting_polynomial(t: Torification) -> CountingPolynomial:
    return CountingPolynomial.from_delta(delta_vector(t))


def eval_counting(n_poly: CountingPolynomial, q: int) -> int:
    """Exact value of N(q), from the (q-1)-basis."""
    q = int(q)
    total = 0
    power = 1
    for d_l in n_poly.delta:
        total += d_l * power
        power *= q - 1
    return total


@dataclass(frozen=True)
class ZetaFunction:
    """The factor list of prod_i (s - root_i)^exponent_i, exponents nonzero."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        roots = [r for r, _ in self.factors]
        if roots != sorted(set(roots)):
            raise ValueError("factor roots must be strictly increasing")
        if any(e == 0 for _, e in self.factors):
            raise ValueError("factor exponents must be nonzero")

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
    return ZetaFunction(
        tuple((i, -a) for i, a in enumerate(n_poly.mono) if a != 0)
    )


# ---------------------------------------------------------------------------
# Independent finite-field oracles


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of an n-space over F_q, by exact division."""
    num = 1
    for i in range(n - k + 1, n + 1):
        num *= q**i - 1
    den = 1
    for i in range(1, k + 1):
        den *= q**i - 1
    return _exact_div(num, den)


def q_multinomial(composition: Sequence[int], q: int) -> int:
    """Number of flags of the given type over F_q."""
    n = sum(composition)
    num = 1
    for i in range(1, n + 1):
        num *= q**i - 1
    den = 1
    for d in composition:
        for i in range(1, d + 1):
            den *= q**i - 1
    return _exact_div(num, den)


def sl_group_order(n: int, q: int) -> int:
    """|SL_n(F_q)| = q^(n(n-1)/2) * prod_{i=2..n} (q^i - 1)."""
    total = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        total *= q**i - 1
    return total


def oracle_point_count(family: str, params, q: int) -> int:
    """Point count over F_q by the classical formula for each family.

    Families: ``toric`` (params: Fan), ``affine`` (n), ``projective`` (n),
    ``grassmannian`` ((k, n)), ``flag`` (composition), ``sl`` (n), ``gm`` (n).
    The formulas are used as polynomials in q; primality of q is the caller's
    business.
    """
    q = int(q)
    if q < 2:
        raise ValueError("oracle formulas require q >= 2")
    if family == "toric":
        fan: Fan = params
        require_valid(fan)
        return sum((q - 1) ** (fan.ambient_dim - c.dim) for c in fan.cones)
    if family == "affine":
        return q ** int(params)
    if family == "projective":
        n = int(params)
        return _exact_div(q ** (n + 1) - 1, q - 1)
    if family == "grassmannian":
        k, n = params
        return gaussian_binomial(n, k, q)
    if family == "flag":
        return q_multinomial(tuple(params), q)
    if family == "sl":
        return sl_group_order(int(params), q)
    if family == "gm":
        return (q - 1) ** int(params)
    raise UnknownFamily(f"no oracle for family {family!r}")


@dataclass(frozen=True)
class CountCheck:
    q: int
    counted: int
    oracle: int

    @property
    def ok(self) -> bool:
        return self.counted == self.oracle


@dataclass(frozen=True)
class CountReport:
    checks: tuple[CountCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def mismatches(self) -> tuple[CountCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

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

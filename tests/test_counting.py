"""Counting polynomials, basis transforms, zeta factors, and the oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAN_CORPUS, singular_fan

from torified.counting import (
    CountingPolynomial,
    counting_polynomial,
    eval_counting,
    gaussian_binomial,
    oracle_point_count,
    q_multinomial,
    sl_group_order,
    to_delta_basis,
    to_monomial_basis,
    verify_counting,
    zeta,
)
from torified.errors import UnknownFamily
from torified.torify import (
    chevalley_data_sl,
    product,
    torify_affine_space,
    torify_chevalley,
    torify_flag,
    torify_grassmannian,
    torify_point,
    torify_toric,
    torify_torus,
)


def mono_by_interpolation(delta):
    """Independent route to the monomial coefficients: solve the Vandermonde
    system from evaluations of the (q-1)-basis form at q = 0..d."""
    d = len(delta) - 1
    values = [
        sum(c * (q - 1) ** l for l, c in enumerate(delta)) for q in range(d + 1)
    ]
    # Gaussian elimination over Q on the Vandermonde matrix
    a = [[Fraction(q**l) for l in range(d + 1)] + [Fraction(values[q])] for q in range(d + 1)]
    for c in range(d + 1):
        piv = next(i for i in range(c, d + 1) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(d + 1):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(int(row[d + 1]) for row in a)


# --- transforms -----------------------------------------------------------------


def test_transform_examples():
    assert to_monomial_basis((1,)) == (1,)
    assert to_monomial_basis((2, 1)) == (1, 1)  # q + 1
    assert to_monomial_basis((6, 12, 11, 5, 1)) == (1, 1, 2, 1, 1)


def test_transform_against_interpolation():
    for delta in [(2, 1), (6, 12, 11, 5, 1), (0, 2, 3, 1), (1, 4, 6, 4, 1)]:
        assert to_monomial_basis(delta) == mono_by_interpolation(delta)


@settings(max_examples=120)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_transform_round_trip(delta):
    delta = tuple(delta)
    mono = to_monomial_basis(delta)
    assert to_delta_basis(mono) == delta
    n_poly = CountingPolynomial.from_delta(delta)
    for q in range(-3, 11):
        direct = sum(c * (q - 1) ** l for l, c in enumerate(delta))
        by_mono = sum(a * q**l for l, a in enumerate(mono))
        assert direct == by_mono == eval_counting(n_poly, q)


# --- counting polynomials ---------------------------------------------------------


def test_counting_sl2():
    t = torify_chevalley(chevalley_data_sl(2))
    n_poly = counting_polynomial(t)
    # expand 2(q-1) + 3(q-1)^2 + (q-1)^3 by hand: q^3 - q
    assert n_poly.mono == (0, -1, 0, 1)
    assert n_poly.poly_string() == "q^3 - q"
    assert eval_counting(n_poly, 2) == 6


def test_counting_gm():
    n_poly = counting_polynomial(torify_torus(1))
    assert n_poly.mono == (-1, 1)


def test_counting_gr24():
    n_poly = counting_polynomial(torify_grassmannian(2, 4))
    assert n_poly.mono == (1, 1, 2, 1, 1)
    assert eval_counting(n_poly, 2) == 35


def test_n_at_one_is_delta0():
    for t in [
        torify_grassmannian(2, 4),
        torify_chevalley(chevalley_data_sl(2)),
        torify_toric(FAN_CORPUS["P2"]),
    ]:
        n_poly = counting_polynomial(t)
        assert eval_counting(n_poly, 1) == n_poly.delta[0]
        assert n_poly.degree == t.dim


def test_no_overflow_at_large_q():
    n_poly = counting_polynomial(torify_grassmannian(3, 6))
    q = 10**6
    assert eval_counting(n_poly, q) == sum(a * q**l for l, a in enumerate(n_poly.mono))


# --- zeta ------------------------------------------------------------------------


def test_zeta_examples():
    assert zeta(counting_polynomial(torify_point())).render() == "1/s"
    assert zeta(counting_polynomial(torify_torus(1))).render() == "s/(s-1)"
    p1 = counting_polynomial(torify_toric(FAN_CORPUS["P1"]))
    assert zeta(p1).render() == "1/(s(s-1))"
    assert zeta(counting_polynomial(torify_affine_space(1))).render() == "1/(s-1)"
    p2 = counting_polynomial(torify_toric(FAN_CORPUS["P2"]))
    assert zeta(p2).render() == "1/(s(s-1)(s-2))"
    gm = zeta(counting_polynomial(torify_torus(1)))
    assert gm.factors == ((0, 1), (1, -1))


def test_zeta_exponent_sum_is_euler_number():
    for t in [
        torify_point(),
        torify_torus(2),
        torify_affine_space(3),
        torify_grassmannian(2, 4),
        torify_flag((1, 1, 1)),
        torify_chevalley(chevalley_data_sl(2)),
        torify_toric(FAN_CORPUS["P2"]),
    ]:
        n_poly = counting_polynomial(t)
        assert sum(n_poly.mono) == (n_poly.delta[0] if n_poly.delta else 0)


# --- oracles ---------------------------------------------------------------------


def test_gaussian_binomial_known_value():
    # [4 choose 2]_2 = (2^4-1)(2^3-1) / ((2^2-1)(2-1)) = 15*7/3 = 35
    assert (2**4 - 1) * (2**3 - 1) // ((2**2 - 1) * (2 - 1)) == 35
    assert gaussian_binomial(4, 2, 2) == 35
    assert oracle_point_count("grassmannian", (2, 4), 2) == 35


def test_oracle_examples():
    assert oracle_point_count("sl", 2, 3) == 24  # 3^3 - 3
    assert sl_group_order(2, 3) == 3**3 - 3
    assert oracle_point_count("flag", (1, 1, 1), 2) == 21  # 1 * 3 * 7
    assert q_multinomial((1, 1, 1), 2) == 1 * 3 * 7
    assert oracle_point_count("projective", 2, 2) == 7
    assert oracle_point_count("gm", 3, 4) == 27
    assert oracle_point_count("affine", 3, 5) == 125
    assert oracle_point_count("toric", singular_fan(), 3) == 9


def test_oracle_unknown_family():
    with pytest.raises(UnknownFamily):
        oracle_point_count("elliptic", 1, 5)


def test_oracle_requires_q_at_least_two():
    with pytest.raises(ValueError):
        oracle_point_count("gm", 1, 1)


# --- verification -----------------------------------------------------------------


QS = [2, 3, 4, 5, 7, 8, 9]


def test_verify_gr24():
    rep = verify_counting(torify_grassmannian(2, 4), "grassmannian", (2, 4), QS)
    assert rep.ok and not rep.mismatches


def test_verify_sl2():
    t = torify_chevalley(chevalley_data_sl(2))
    assert verify_counting(t, "sl", 2, range(2, 10)).ok


def test_verify_toric_p2():
    t = torify_toric(FAN_CORPUS["P2"])
    assert verify_counting(t, "projective", 2, QS).ok


def test_verify_reports_mismatch():
    rep = verify_counting(torify_point(), "gm", 1, [3, 4])
    assert not rep.ok
    assert [c.q for c in rep.mismatches] == [3, 4]
    assert rep.mismatches[0].counted == 1 and rep.mismatches[0].oracle == 2


def test_product_counting_is_pointwise_product():
    a = torify_grassmannian(1, 3)
    b = torify_affine_space(2)
    na, nb = counting_polynomial(a), counting_polynomial(b)
    nprod = counting_polynomial(product(a, b))
    for q in range(-9, 11):
        assert eval_counting(nprod, q) == eval_counting(na, q) * eval_counting(nb, q)

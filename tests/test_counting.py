"""Counting polynomials, basis transforms, zeta factors, and the oracles."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAN_CORPUS, compositions, singular_fan
from references import binomial_to_delta_basis, binomial_to_monomial_basis

from torified import counting
from torified.counting import (
    CountingPolynomial,
    counting_polynomial,
    eval_counting,
    gaussian_binomial,
    oracle_point_count,
    q_multinomial,
    sl_group_order,
    to_monomial_basis,
    verify_counting,
    zeta,
)
from torified.errors import UnknownFamily
from torified.torify import (
    chevalley_data_sl,
    delta_vector,
    product,
    to_delta_basis,
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


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=40))
def test_taylor_shifts_match_the_binomial_sums(coeffs):
    coeffs = tuple(coeffs)
    assert to_delta_basis(coeffs) == binomial_to_delta_basis(coeffs)
    assert to_monomial_basis(coeffs) == binomial_to_monomial_basis(coeffs)


@settings(max_examples=120)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8))
def test_transform_round_trip(delta):
    delta = tuple(delta)
    mono = to_monomial_basis(delta)
    assert to_delta_basis(mono) == delta
    n_poly = CountingPolynomial(delta)
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


def test_a_counting_polynomial_stores_its_delta_vector_only():
    with pytest.raises(TypeError):
        CountingPolynomial((1,), (5,))  # a second basis could disagree with delta
    n_poly = CountingPolynomial([2, 3, 1])  # 2 + 3(q-1) + (q-1)^2
    assert n_poly == CountingPolynomial((2, 3, 1)) and n_poly.delta == (2, 3, 1)
    assert n_poly.mono == (0, 1, 1) and n_poly.mono is n_poly.mono  # shifted once
    assert n_poly.poly_string() == "q^2 + q" and eval_counting(n_poly, 3) == 12


def test_n_at_one_is_delta0():
    for t in [
        torify_grassmannian(2, 4),
        torify_chevalley(chevalley_data_sl(2)),
        torify_toric(FAN_CORPUS["P2"]),
    ]:
        n_poly = counting_polynomial(t)
        assert eval_counting(n_poly, 1) == n_poly.delta[0]
        assert len(n_poly.delta) - 1 == t.dim


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


@given(st.integers(0, 60), st.integers(2, 9))
def test_sl_group_order_tree_equals_the_running_product(n, q):
    running = q ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        running *= q**i - 1
    assert sl_group_order(n, q) == running


def running_quotient(tops, bottoms, q):
    """prod(q^i - 1 for i in tops) / prod(q^i - 1 for i in bottoms), one
    factor at a time."""
    num = den = 1
    for i in tops:
        num *= q**i - 1
    for i in bottoms:
        den *= q**i - 1
    assert num % den == 0
    return num // den


@given(st.integers(0, 60), st.data(), st.integers(2, 9))
def test_gaussian_binomial_tree_equals_the_running_product(n, data, q):
    k = data.draw(st.integers(0, n))
    expected = running_quotient(range(n - k + 1, n + 1), range(1, k + 1), q)
    assert gaussian_binomial(n, k, q) == expected


@given(st.lists(st.integers(0, 12), max_size=6), st.integers(2, 9))
def test_q_multinomial_tree_equals_the_running_product(composition, q):
    bottoms = [i for d in composition for i in range(1, d + 1)]
    expected = running_quotient(range(1, sum(composition) + 1), bottoms, q)
    assert q_multinomial(composition, q) == expected


def test_oracle_unknown_family():
    with pytest.raises(UnknownFamily):
        oracle_point_count("elliptic", 1, 5)


def test_oracle_requires_q_at_least_two():
    with pytest.raises(ValueError):
        oracle_point_count("gm", 1, 1)


def test_torus_and_gm_name_one_family():
    # `verify --family torus` and the oracle read one record under both names
    assert counting._FAMILIES["torus"] is counting._FAMILIES["gm"]
    assert oracle_point_count("torus", 3, 4) == oracle_point_count("gm", 3, 4) == 27
    assert verify_counting(torify_torus(3), "torus", 3, (2, 5)).ok


# every built-in family in the documented scope of its rows, by record name
RECORD_PARAMS = {
    "affine": range(41),
    "projective": range(41),
    "gm": range(41),
    "grassmannian": [(k, n) for n in range(13) for k in range(n + 1)],
    "flag": [c for n in range(8) for c in compositions(n)],
    "sl": range(1, 9),
}


@pytest.mark.parametrize("family", list(RECORD_PARAMS))
def test_family_records_give_one_polynomial_in_two_bases(family):
    """A record's rows, from cells or binomials, are one polynomial: each is
    the other's Taylor shift, and the monomial row sums to the formula; where
    the listing has at most 20,160 tori, delta counts them."""
    record = counting._FAMILIES[family]
    for params in RECORD_PARAMS[family]:
        record.check(params)
        mono = tuple(record.mono(params))
        delta = record.delta(params) if record.delta else to_delta_basis(mono)
        assert to_delta_basis(mono) == delta and to_monomial_basis(delta) == mono, params
        for q in (2, 3, 4, 5, 7, 8, 9):
            n_q = oracle_point_count(family, params, q)
            assert sum(a * q**l for l, a in enumerate(mono)) == n_q == record.formula(params, q)
        if sum(delta) <= 20160:
            t = record.build(params)
            assert sum(delta) == len(t) and delta == delta_vector(t), params


@pytest.mark.parametrize("family", list(RECORD_PARAMS))
def test_family_records_give_the_ranks_of_their_listing(family):
    """A record's ranks, read from the cells with no label made, are its
    listing's in order where that has at most 20,160 tori, and count delta by
    rank where it has at most 200,000."""
    record = counting._FAMILIES[family]
    for params in RECORD_PARAMS[family]:
        record.check(params)
        delta = record.delta(params) if record.delta else to_delta_basis(record.mono(params))
        if sum(delta) <= 200_000:
            ranks = record.ranks(params)
            counts = Counter(ranks)
            assert len(ranks) == sum(delta) and all(counts[r] == d for r, d in enumerate(delta))
            if sum(delta) <= 20160:
                assert tuple(ranks) == tuple(record.build(params).ranks()), params


# --- verification -----------------------------------------------------------------


QS = [2, 3, 4, 5, 7, 8, 9]


def test_verify_gr24():
    rep = verify_counting(torify_grassmannian(2, 4), "grassmannian", (2, 4), QS)
    assert rep.ok and all(c.ok for c in rep.checks)


def test_verify_sl2():
    t = torify_chevalley(chevalley_data_sl(2))
    assert verify_counting(t, "sl", 2, range(2, 10)).ok


def test_verify_toric_p2():
    t = torify_toric(FAN_CORPUS["P2"])
    assert verify_counting(t, "projective", 2, QS).ok


def test_verify_reports_mismatch():
    rep = verify_counting(torify_point(), "gm", 1, [3, 4])
    assert not rep.ok
    assert [(c.q, c.counted, c.oracle, c.ok) for c in rep.checks] == [(3, 1, 2, False), (4, 1, 3, False)]


def test_product_counting_is_pointwise_product():
    a = torify_grassmannian(1, 3)
    b = torify_affine_space(2)
    na, nb = counting_polynomial(a), counting_polynomial(b)
    nprod = counting_polynomial(product(a, b))
    for q in range(-9, 11):
        assert eval_counting(nprod, q) == eval_counting(na, q) * eval_counting(nb, q)

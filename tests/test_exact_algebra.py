"""Tests for exact rational scalars, dense polynomials, and truncated series."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydc.exact_algebra import (
    IntegerRow,
    exp_series,
    format_rational,
    alternating_power_sums,
    horner,
    log1p_series,
    parse_rational,
    poly_affine,
    poly_eval,
    poly_mul,
    poly_normalize,
    residue_moments,
    series_compose,
    series_mul,
    series_reciprocal,
)
from polydc.sequences import euler_poly, genocchi_poly, poly_euler_poly, poly_genocchi_poly

from oracles import (
    affine_distribution,
    alternating_distribution,
    alternating_power_sums_by_term,
    fraction_horner,
    integer_coefficients,
    poly_combination,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=16)
small_polys = st.lists(rationals, min_size=1, max_size=7)


# --- rational wire format ---------------------------------------------------


@pytest.mark.parametrize(
    "num, den, text",
    [(3, -6, "-1/2"), (5, 1, "5"), (0, 7, "0"), (-9, -3, "3"), (22, 4, "11/2")],
)
def test_make_and_format_rational(num, den, text):
    assert format_rational(Fraction(num, den)) == text


@pytest.mark.parametrize(
    "text, value", [("-3/2", Fraction(-3, 2)), ("5", 5), ("0", 0), ("-0.25", Fraction(-1, 4))]
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


# An exponent is refused: a few characters of one could ask for any size.  So
# is a digit separator, which Fraction accepts from Python 3.11 on only.
@pytest.mark.parametrize(
    "text",
    [
        "",
        "a/b",
        "3/2/1",
        "1/0",
        "--2",
        "1 2",
        "1e9",
        "-2E-5",
        "3/1e2",
        "1e100000000",
        "1_000",
        "1_0/3",
        "2_5.5",
    ],
)
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


# --- polynomials -------------------------------------------------------------


def test_poly_normalize_strips_trailing_zeros():
    assert poly_normalize([Fraction(1), Fraction(0), Fraction(0)]) == [Fraction(1)]
    assert poly_normalize([Fraction(0), Fraction(0)]) == [Fraction(0)]


def test_poly_eval_horner():
    # 1 - 2x + 3x^2 at x = 1/2
    p = [Fraction(1), Fraction(-2), Fraction(3)]
    assert poly_eval(p, Fraction(1, 2)) == Fraction(3, 4)


# --- Horner evaluation in integers ---------------------------------------------
#
# `poly_eval` runs the one integer Horner loop, `horner`, over the numerators
# of the coefficients at x = a/b; the reference (`fraction_horner`) is Horner's
# rule on Fractions.


@pytest.mark.parametrize(
    "p, x, value",
    [
        ([], Fraction(3, 7), 0),
        ([], 5, 0),
        ([0], Fraction(-2, 9), 0),
        ([Fraction(0)], 4, 0),
        ([2, 0, 0], Fraction(5, 3), 2),
        ([1, 2, 3], 2, 17),
        ([1, 2, 3], -2, 9),
        ([Fraction(1, 2), 3], Fraction(-1, 6), 0),
    ],
)
def test_poly_eval_always_returns_a_fraction(p, x, value):
    result = poly_eval(p, x)
    assert type(result) is Fraction
    assert result == value == fraction_horner(p, x)


coefficients = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.fractions(max_denominator=10**9),
)
points = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=64),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)


@given(
    st.lists(coefficients, max_size=14),
    st.integers(min_value=0, max_value=3),
    points,
)
@settings(deadline=None)
def test_poly_eval_matches_the_fraction_horner_oracle(p, trailing_zeros, x):
    p = p + [0] * trailing_zeros
    result = poly_eval(p, x)
    assert type(result) is Fraction
    assert result == fraction_horner(p, x)


@given(
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=12),
    points.filter(lambda x: x.denominator == 1 or x.denominator < 10**6),
)
def test_horner_is_the_homogeneous_sum(numerators, x):
    a, b = x.numerator, x.denominator
    d = len(numerators) - 1
    expected = sum(c * a**i * b ** (d - i) for i, c in enumerate(numerators))
    assert horner(numerators, a, b) == expected
    if numerators:
        assert IntegerRow(tuple(numerators), 7).value_at(x) == Fraction(expected, 7 * b**d)


#: The seq-build points ±(2n+1+2c)/5, c = 0, 1, of the served rows of degree n.
SERVED_FAMILIES = {"poly-euler": poly_euler_poly, "poly-genocchi": poly_genocchi_poly}


@pytest.mark.parametrize("family", SERVED_FAMILIES)
@pytest.mark.parametrize("k", range(-4, 6))
def test_poly_eval_matches_the_oracle_on_the_served_rows(family, k):
    for n in range(61):
        poly = SERVED_FAMILIES[family](k, n)
        for c in (0, 1):
            for sign in (1, -1):
                x = Fraction(sign * (2 * n + 1 + 2 * c), 5)
                assert poly_eval(poly, x) == fraction_horner(poly, x), (k, n, x)


@given(small_polys, small_polys, rationals)
def test_poly_add_matches_pointwise_sum(p, q, x):
    assert poly_eval(poly_combination([(1, p), (1, q)]), x) == poly_eval(p, x) + poly_eval(q, x)


@given(small_polys, rationals, rationals)
def test_poly_scale_is_scalar_multiplication(p, c, x):
    assert poly_eval(poly_combination([(c, p)]), x) == c * poly_eval(p, x)


@given(st.lists(st.tuples(rationals, small_polys), max_size=4), rationals)
def test_poly_combination_matches_pointwise_linear_combination(terms, x):
    combined = poly_combination(terms)
    assert poly_eval(combined, x) == sum((c * poly_eval(p, x) for c, p in terms), Fraction(0))
    assert combined == poly_normalize(combined)


@given(small_polys, small_polys, rationals)
def test_poly_mul_matches_pointwise_product(p, q, x):
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


@given(small_polys, rationals, rationals, rationals)
@settings(deadline=None)
def test_poly_affine_matches_substitution(p, a, b, x):
    assert poly_eval(poly_affine(p, a, b), x) == poly_eval(p, a * x + b)


def test_integer_coefficients_share_the_least_common_denominator():
    poly = [Fraction(1, 4), Fraction(-5, 6), Fraction(3)]
    assert integer_coefficients(poly) == ([3, -10, 36], 12)
    assert integer_coefficients([Fraction(0)]) == ([0], 1)


# --- the odd-modulus distribution sum ------------------------------------------
#
# The served sum reads integer alternating power sums; the reference
# (`affine_distribution`) expands each term p((x + s)/m) by affine
# substitution, a route that shares no kernel with it.


DISTRIBUTION_MODULI = [*range(1, 16, 2), 2, 4, 6]
DISTRIBUTION_FAMILIES = {
    "euler": euler_poly,
    "genocchi": genocchi_poly,
    **{f"poly-euler-k{k}": partial(poly_euler_poly, k) for k in range(-2, 4)},
}


@pytest.mark.parametrize("family", DISTRIBUTION_FAMILIES)
def test_alternating_distribution_matches_reference(family):
    for n in range(15):
        poly = DISTRIBUTION_FAMILIES[family](n)
        for m in DISTRIBUTION_MODULI:
            served = alternating_distribution(poly, m)
            assert served == affine_distribution(poly, m), (family, n, m)


@given(small_polys, st.integers(min_value=1, max_value=15))
@settings(deadline=None)
def test_alternating_distribution_matches_reference_on_random_polys(p, m):
    assert alternating_distribution(p, m) == affine_distribution(p, m)


@pytest.mark.parametrize("m", [1, 2, 7, 10])
def test_alternating_power_sums_match_direct_sums(m):
    expected = [sum((-1) ** s * s**t for s in range(m)) for t in range(9)]
    assert alternating_power_sums(m, 8) == expected


@pytest.mark.parametrize("m", range(41))
def test_alternating_power_sums_match_the_per_term_loop(m):
    # The residue-moment kernel against the per-term loop it replaced, at
    # every degree up to 40 (each degree's list, not only its prefix).
    for degree in range(41):
        assert alternating_power_sums(m, degree) == alternating_power_sums_by_term(m, degree)


@given(
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=40),
    st.integers(min_value=0, max_value=12),
)
@example([], 0)
@example([], 5)
@example([7], 0)
@example([-3], 4)
@example([0, 0, 5], 0)
@settings(deadline=None)
def test_residue_moments_are_the_weighted_power_sums(weights, degree):
    # Python's 0**0 is 1, so the residue 0 counts its weight at degree 0 only.
    expected = [sum(w * r**i for r, w in enumerate(weights)) for i in range(degree + 1)]
    assert residue_moments(weights, degree) == expected
    assert len(expected) == degree + 1


@pytest.mark.parametrize("m", [0, -1, -3])
def test_alternating_distribution_rejects_nonpositive_modulus(m):
    with pytest.raises(ValueError):
        alternating_distribution([Fraction(1), Fraction(2)], m)


# --- truncated series --------------------------------------------------------


def _pad(values, order):
    coeffs = [Fraction(v) for v in values]
    return coeffs + [Fraction(0)] * (order + 1 - len(coeffs))


@given(st.lists(rationals, min_size=1, max_size=6), st.lists(rationals, min_size=1, max_size=6))
def test_series_mul_commutative(a, b):
    order = max(len(a), len(b)) - 1
    a, b = _pad(a, order), _pad(b, order)
    assert series_mul(a, b) == series_mul(b, a)


@given(
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
)
@settings(deadline=None)
def test_series_mul_associative(a, b, c):
    order = max(len(a), len(b), len(c)) - 1
    a, b, c = _pad(a, order), _pad(b, order), _pad(c, order)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


def test_series_mul_rejects_order_mismatch():
    with pytest.raises(ValueError):
        series_mul([Fraction(1)], [Fraction(1), Fraction(2)])


@given(st.lists(rationals, min_size=1, max_size=7))
@settings(deadline=None)
def test_series_reciprocal_is_inverse(a):
    if a[0] == 0:
        a[0] = Fraction(1)
    one = _pad([1], len(a) - 1)
    assert series_mul(a, series_reciprocal(a)) == one


def test_series_reciprocal_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        series_reciprocal([Fraction(0), Fraction(1)])


def test_series_compose_inverse_pair():
    # exp(log(1+t)) = 1 + t and log(1 + (e^t - 1)) = t, exactly to order 12.
    order = 12
    expm1 = exp_series(order)
    expm1[0] = Fraction(0)
    identity = _pad([0, 1], order)
    assert series_compose(exp_series(order), log1p_series(order)) == _pad([1, 1], order)
    assert series_compose(log1p_series(order), expm1) == identity


def test_series_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        series_compose([Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)])


def test_series_compose_rejects_order_mismatch():
    with pytest.raises(ValueError):
        series_compose([Fraction(1)], [Fraction(0), Fraction(1)])


def test_exp_and_log_series_values():
    assert exp_series(3) == [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]
    assert log1p_series(3) == [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3)]
    with pytest.raises(ValueError):
        exp_series(-1)
    with pytest.raises(ValueError):
        log1p_series(-1)

"""Tests for the Stirling/Euler/Genocchi families and their poly generalizations."""

import functools
import inspect
import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydc import sequences
from polydc.exact_algebra import (
    IntegerRow,
    exp_series,
    log1p_series,
    poly_eval,
    poly_mul,
    poly_normalize,
    series_mul,
    series_reciprocal,
)
from polydc.identity_suite import verify
from polydc.sequences import (
    euler_numbers,
    euler_poly,
    euler_poly_row,
    genocchi_numbers,
    genocchi_poly,
    genocchi_poly_row,
    poly_euler_numbers,
    poly_euler_poly,
    poly_euler_poly_row,
    poly_euler_via_corollary7,
    poly_euler_via_theorem3,
    poly_genocchi_numbers,
    poly_genocchi_poly,
    poly_genocchi_poly_row,
    polyexp_series,
    sawtooth,
    stirling1,
    stirling1_row,
    stirling_weights,
    theorem3_integer_weights,
)

from oracles import (
    bar_eval,
    binomial_convolution,
    integer_coefficients,
    poly_genocchi_sums,
    stirling_weight,
    theorem3_weights,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=24)

# Order of the series oracles below, beyond every acceptance grid (n <= 13).
ORACLE_ORDER = 60


@pytest.fixture(scope="module")
def series_oracle():
    """The powers (log(1+t))^m for m = 0..N and 2/(e^t + 1), truncated at order N."""
    log = log1p_series(ORACLE_ORDER)
    powers = [[Fraction(1)] + [Fraction(0)] * ORACLE_ORDER]
    for _ in range(ORACLE_ORDER):
        powers.append(series_mul(powers[-1], log))
    denom = exp_series(ORACLE_ORDER)
    denom[0] += 1
    return powers, [2 * c for c in series_reciprocal(denom)]


@pytest.fixture
def empty_caches():
    """Every `functools.cache` of `sequences`, `_family` and each row and entry
    fill, empty when the test starts and emptied again when it ends, so no row
    or entry outlives the family it was read from; the test may call the
    yielded function to empty them once more."""

    def clear():
        for memo in vars(sequences).values():
            if hasattr(memo, "cache_clear"):
                memo.cache_clear()

    clear()
    yield clear
    clear()


# --- Stirling numbers of the first kind (signed) ------------------------------


def test_stirling1_triangle_rows():
    assert stirling1_row(0) == [1]
    assert stirling1_row(1) == [0, 1]
    assert stirling1_row(4) == [0, -6, 11, -6, 1]
    assert stirling1_row(5) == [0, 24, -50, 35, -10, 1]


def test_stirling1_lookups_read_a_filled_row_without_growing(monkeypatch):
    stirling1_row(12)

    def refuse(n):
        raise AssertionError(f"grew the triangle for a filled row {n}")

    monkeypatch.setattr(sequences, "_grow_stirling", refuse)
    assert [stirling1(12, m) for m in range(13)] == stirling1_row(12)
    assert stirling1(4, 2) == 11


def test_stirling1_out_of_triangle():
    assert stirling1(3, 5) == 0
    with pytest.raises(ValueError):
        stirling1(-1, 0)
    with pytest.raises(ValueError):
        stirling1(2, -1)


@pytest.mark.parametrize("n", range(1, 11))
def test_stirling1_generates_falling_factorial(n):
    # Σ_m S_1(n, m) x^m = x (x-1) (x-2) ... (x-n+1), coefficientwise.
    falling = [Fraction(1)]
    for i in range(n):
        falling = poly_mul(falling, [Fraction(-i), Fraction(1)])
    assert poly_normalize([Fraction(c) for c in stirling1_row(n)]) == falling


@pytest.mark.parametrize("n", range(2, 12))
def test_stirling1_row_sums_vanish(n):
    assert sum(stirling1_row(n)) == 0


def test_stirling1_row_sum_n1():
    assert sum(stirling1_row(1)) == 1


@pytest.mark.parametrize("m", range(0, 5))
def test_stirling1_egf_column(m):
    # (log(1+t))^m = Σ_n S_1(n, m) m! t^n / n!, checked through order 10.
    from polydc.exact_algebra import log1p_series, series_mul

    order = 10
    power = [Fraction(0)] * (order + 1)
    power[0] = Fraction(1)
    for _ in range(m):
        power = series_mul(power, log1p_series(order))
    for n in range(order + 1):
        assert power[n] == Fraction(stirling1(n, m) * factorial(m), factorial(n))


# --- Stirling weight rows ----------------------------------------------------


@pytest.mark.parametrize("k", range(-4, 6))
def test_stirling_weights_are_first_kind_sums(k):
    # w_n(k) = Σ_j S_1(n, j)·j^(1-k), rebuilt term by term from the triangle.
    rows = [stirling1_row(n) for n in range(41)]
    expected = [
        sum((row[j] * Fraction(j) ** (1 - k) for j in range(1, len(row))), Fraction(0))
        for row in rows
    ]
    assert stirling_weights(k, 40) == expected


def test_stirling_weight_row_grows_by_its_missing_entries(empty_caches):
    pieces = [stirling_weights(3, n) for n in (0, 4, 4, 11, 2, 25)]
    whole = stirling_weights(3, 25)
    assert len(sequences._family(3).weights) == 26
    assert all(piece == whole[: len(piece)] for piece in pieces)


def test_stirling_weight_row_cache_is_not_shared_with_callers():
    first = stirling_weights(2, 6)
    expected = list(first)
    first[5] = Fraction(999)
    first.append(Fraction(7))
    assert stirling_weights(2, 6) == expected


def test_stirling_weight_row_fill_check_catches_a_wrong_stirling_number(
    monkeypatch, empty_caches
):
    # S_1(5, 2) + 7 puts w_5(2) off by 7/2; Stirling inversion over the
    # second-kind triangle must see it as soon as the k = 2 row passes n = 5.
    rows = [stirling1_row(n) for n in range(6)]
    rows[5][2] += 7
    monkeypatch.setattr(sequences, "_stirling_rows", rows)
    stirling_weights(2, 4)  # rows 0..4 are intact
    with pytest.raises(RuntimeError):
        stirling_weights(2, 6)
    assert len(sequences._family(2).weights) == 5


@pytest.mark.parametrize("k", [-3, 0, 1, 4])
def test_theorem3_weights_are_the_stirling_ratios(k):
    for n in range(12):
        weights = stirling_weights(k, n + 1)
        expected = [comb(n + 1, l) * weights[n + 1 - l] / (n + 1) for l in range(n + 1)]
        assert theorem3_weights(k, n) == expected
        assert expected[n] == 1


@pytest.mark.parametrize("k", range(-4, 6))
def test_theorem3_integer_weights_equal_the_fraction_weights(k):
    for n in range(41):
        weights, den = theorem3_integer_weights(k, n)
        assert [Fraction(a, den) for a in weights] == theorem3_weights(k, n), (k, n)


@pytest.mark.parametrize("k", [-3, 0, 1, 3, 16])
def test_theorem3_integer_weights_do_not_depend_on_the_fill(empty_caches, k):
    # The weights are read off W_1..W_{n+1} and reduced, so a row filled far
    # past n + 1 (a larger scale L) gives the same integers.
    fresh = [theorem3_integer_weights(k, n) for n in range(8)]
    stirling_weights(k, 60)
    theorem3_integer_weights.cache_clear()  # read them again off the longer row
    assert [theorem3_integer_weights(k, n) for n in range(8)] == fresh
    for n, (weights, den) in enumerate(fresh):
        assert (list(weights), den) == integer_coefficients(theorem3_weights(k, n)), n


def test_a_repeated_theorem3_weight_read_is_a_cache_hit(empty_caches):
    first = theorem3_integer_weights(-2, 6)
    info = theorem3_integer_weights.cache_info()
    assert theorem3_integer_weights(-2, 6) is first
    after = theorem3_integer_weights.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)
    assert after.currsize == 1 and isinstance(first, IntegerRow)


def test_theorem3_integer_weights_pinned_value(empty_caches):
    stirling_weights(3, 60)
    assert theorem3_integer_weights(3, 3) == IntegerRow((-555, 784, -648, 576), 576)


# --- the integer fill against the Fraction loops --------------------------------


def _fill_orders(n):
    jumping = list(range(n + 1))
    random.Random(n).shuffle(jumping)
    return {
        "ascending": list(range(n + 1)),
        "descending": list(range(n, -1, -1)),
        "jumping": jumping,
    }


@functools.lru_cache(maxsize=None)
def _fraction_fill(k, n):
    """The weights, the poly-Genocchi numbers and the poly-Euler numbers to n + 1,
    summed in Fractions."""
    weights = [stirling_weight(k, j) for j in range(n + 2)]
    genocchi = poly_genocchi_sums(k, n + 1)
    return weights, genocchi, [genocchi[i + 1] / (i + 1) for i in range(n + 1)]


@pytest.mark.parametrize("order", ["ascending", "descending", "jumping"])
@pytest.mark.parametrize(
    "k, n", [(k, 60) for k in range(-4, 6)] + [(16, 100), (-16, 100)], ids=str
)
def test_integer_fill_matches_the_fraction_loops(empty_caches, k, n, order):
    # Every order grows the row and the numbers from an empty cache; the
    # ascending and jumping ones grow the scale L while entries are kept.
    weights, genocchi, euler = _fraction_fill(k, n)
    for m in _fill_orders(n)[order]:
        assert stirling_weights(k, m) == weights[: m + 1], m
        assert poly_genocchi_numbers(k, m) == genocchi[: m + 1], m
        assert poly_euler_numbers(k, m) == euler[: m + 1], m
        poly_euler = binomial_convolution(euler, m)
        assert poly_euler_poly(k, m) == poly_euler, m
        assert poly_euler_poly_row(k, m) == _integer_row(poly_euler), m
        poly_genocchi = binomial_convolution(genocchi, m)
        assert poly_genocchi_poly(k, m) == poly_genocchi, m
        assert poly_genocchi_poly_row(k, m) == _integer_row(poly_genocchi), m
        assert theorem3_integer_weights(k, m) == _integer_row(theorem3_weights(k, m)), m


# --- integer rows of the cached polynomials -------------------------------------


def _integer_row(poly):
    numerators, den = integer_coefficients(poly)
    return IntegerRow(tuple(numerators), den)


@pytest.mark.parametrize("k", range(-4, 6))
def test_poly_euler_rows_are_the_integer_coefficients(k):
    for n in range(41):
        assert poly_euler_poly_row(k, n) == _integer_row(poly_euler_poly(k, n)), (k, n)


@pytest.mark.parametrize("k", range(-4, 6))
def test_poly_genocchi_rows_are_the_integer_coefficients(k):
    for n in range(41):
        assert poly_genocchi_poly_row(k, n) == _integer_row(poly_genocchi_poly(k, n)), (k, n)


def test_poly_genocchi_poly_is_built_once_per_index_and_degree(monkeypatch):
    poly_genocchi_poly(2, 9)
    calls = []
    monkeypatch.setattr(
        sequences, "_convolution_row", lambda *args: calls.append(args) or IntegerRow((0,), 1)
    )
    poly_genocchi_poly(2, 9)
    poly_genocchi_poly_row(2, 9)
    assert calls == []


def test_euler_and_genocchi_rows_are_the_integer_coefficients():
    for n in range(61):
        assert euler_poly_row(n) == _integer_row(euler_poly(n)), n
        assert genocchi_poly_row(n) == _integer_row(genocchi_poly(n)), n


@pytest.mark.parametrize(
    "poly, row",
    [
        (lambda: euler_poly(7), lambda: euler_poly_row(7)),
        (lambda: genocchi_poly(7), lambda: genocchi_poly_row(7)),
        (lambda: poly_euler_poly(-3, 7), lambda: poly_euler_poly_row(-3, 7)),
        (lambda: poly_genocchi_poly(-3, 7), lambda: poly_genocchi_poly_row(-3, 7)),
    ],
    ids=["euler", "genocchi", "poly-euler", "poly-genocchi"],
)
def test_mutating_a_returned_polynomial_changes_neither_cache(poly, row):
    expected = poly()
    first = poly()
    first[0] += 1
    first.append(Fraction(7))
    assert poly() == expected
    assert row() == _integer_row(expected)
    assert isinstance(row().numerators, tuple)


# --- Euler numbers and polynomials --------------------------------------------


def test_euler_numbers_initial_segment():
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 4),
        Fraction(0),
        Fraction(-1, 2),
    ]
    assert euler_numbers(5) == expected


def test_euler_numbers_rejects_negative():
    with pytest.raises(ValueError):
        euler_numbers(-1)


def test_euler_numbers_match_the_binomial_recurrence():
    assert euler_numbers(400) == sequences._euler_numbers_recurrence(400)


def test_euler_numbers_match_the_series_inversion():
    # 2/(e^t + 1) = Σ_n E_n t^n/n!, inverted in Fractions by the series engine.
    order = 200
    denom = exp_series(order)
    denom[0] += 1
    inverse = series_reciprocal(denom)
    assert euler_numbers(order) == [2 * factorial(n) * inverse[n] for n in range(order + 1)]


def test_euler_integers_are_the_scaled_euler_numbers():
    # e_n = 2^n·E_n, the integers the DC sums' Euclid route and every row read.
    expected = [value * 2**n for n, value in enumerate(sequences._euler_numbers_recurrence(60))]
    assert sequences.euler_integers(60) == expected
    first = sequences.euler_integers(5)
    first[1] = 999
    assert sequences.euler_integers(5) == expected[:6]


def test_tangent_numbers_initial_segment():
    expected = [1, 2, 16, 272, 7936, 353792]
    assert sequences._tangent_numbers(6) == expected
    assert sequences._zigzag_tangent_numbers(6) == expected


def test_euler_fill_check_catches_a_wrong_tangent_number(monkeypatch):
    # T_7 + 1 puts E_7 off by 1/2^7; the zigzag triangle must see it at the next fill.
    tangent = sequences._tangent_numbers

    def perturbed(count):
        numbers = tangent(count)
        numbers[3] += 1
        return numbers

    monkeypatch.setattr(sequences, "_tangent_numbers", perturbed)
    monkeypatch.setattr(sequences, "_euler_cache", [])
    with pytest.raises(RuntimeError):
        euler_numbers(10)
    assert sequences._euler_cache == []


def test_euler_numbers_grow_by_the_doubling_policy(monkeypatch):
    monkeypatch.setattr(sequences, "_euler_cache", [])
    euler_numbers(3)
    assert len(sequences._euler_cache) == 5  # order max(3, 2·0 + 4)
    euler_numbers(5)
    assert len(sequences._euler_cache) == 15  # order max(5, 2·5 + 4)
    euler_numbers(30)
    assert len(sequences._euler_cache) == 35  # order max(30, 2·15 + 4)


@pytest.mark.parametrize("n", range(0, 16))
def test_euler_poly_at_one_plus_number(n):
    # E_n(1) + E_n = 2·[n == 0]
    value = poly_eval(euler_poly(n), Fraction(1)) + euler_numbers(n)[n]
    assert value == (2 if n == 0 else 0)


@pytest.mark.parametrize("n", range(0, 13))
def test_euler_poly_reflection(n):
    # E_n(1 - x) = (-1)^n E_n(x) at several rational points.
    p = euler_poly(n)
    for x in (Fraction(0), Fraction(1, 3), Fraction(7, 5), Fraction(-2)):
        assert poly_eval(p, 1 - x) == (-1) ** n * poly_eval(p, x)


@pytest.mark.parametrize("poly, fill", [(euler_poly, "_euler_row"), (genocchi_poly, "_genocchi_row")])
def test_euler_and_genocchi_poly_cache_is_not_shared_with_callers(poly, fill):
    first = poly(5)
    expected = list(first)
    first[0] = Fraction(999)
    first.append(Fraction(7))
    assert poly(5) == expected
    assert getattr(sequences, fill)(5).fractions == tuple(expected)


def test_euler_poly_known_values():
    assert euler_poly(0) == [Fraction(1)]
    assert euler_poly(1) == [Fraction(-1, 2), Fraction(1)]
    assert euler_poly(3) == [Fraction(1, 4), Fraction(0), Fraction(-3, 2), Fraction(1)]


# --- Genocchi numbers and polynomials ------------------------------------------


def test_genocchi_numbers_initial_segment():
    expected = [0, 1, -1, 0, 1, 0, -3]
    assert genocchi_numbers(6) == [Fraction(v) for v in expected]
    more = genocchi_numbers(12)
    assert more[8] == 17 and more[10] == -155 and more[12] == 2073


@pytest.mark.parametrize("n", range(0, 31))
def test_genocchi_numbers_are_integers(n):
    assert genocchi_numbers(n)[n].denominator == 1


def test_genocchi_relates_to_euler():
    # G_n = n·E_{n-1} for n >= 1.
    g = genocchi_numbers(12)
    e = euler_numbers(11)
    for n in range(1, 13):
        assert g[n] == n * e[n - 1]


def test_genocchi_numbers_match_generating_function(series_oracle):
    # 2t/(e^t + 1): the coefficients of 2/(e^t + 1) shifted up one power of t.
    _, euler_egf = series_oracle
    expected = [Fraction(0)] + [
        factorial(n) * euler_egf[n - 1] for n in range(1, ORACLE_ORDER + 1)
    ]
    assert genocchi_numbers(ORACLE_ORDER) == expected


def test_genocchi_poly_low_degrees():
    assert genocchi_poly(0) == [Fraction(0)]
    assert genocchi_poly(1) == [Fraction(1)]
    assert genocchi_poly(2) == [Fraction(-1), Fraction(2)]


# --- polyexponential series ------------------------------------------------


def test_polyexp_index_one_is_expm1():
    # Ei_1(x) = e^x - 1: weight 1/(n·(n-1)!) = 1/n!.
    coeffs = polyexp_series(1, 8)
    assert coeffs[0] == 0
    for n in range(1, 9):
        assert coeffs[n] == Fraction(1, factorial(n))


def test_polyexp_negative_index_weights():
    coeffs = polyexp_series(-2, 5)
    for n in range(1, 6):
        assert coeffs[n] == Fraction(n**2, factorial(n - 1))


# --- poly-Genocchi / poly-Euler families -------------------------------------


@pytest.mark.parametrize("k", range(-2, 5))
def test_poly_genocchi_low_entries(k):
    numbers = poly_genocchi_numbers(k, 2)
    assert numbers[0] == 0
    assert numbers[1] == 1
    assert numbers[2] == -2 + Fraction(2) ** (1 - k)


def test_poly_genocchi_numbers_grow_by_their_missing_entries(empty_caches):
    pieces = [poly_genocchi_numbers(3, n) for n in (0, 4, 4, 11, 2, 25)]
    whole = poly_genocchi_numbers(3, 25)
    assert len(sequences._family(3).numbers) == 26
    assert all(piece == whole[: len(piece)] for piece in pieces)
    # The cached list is extended in place, so no caller may hold it.
    whole[5] = Fraction(999)
    whole.append(Fraction(7))
    assert poly_genocchi_numbers(3, 25) == pieces[-1]
    assert len(sequences._family(3).numbers) == 26


@pytest.mark.parametrize("k", range(-4, 6))
def test_poly_genocchi_numbers_match_series_composition(k, series_oracle):
    # The generating function itself, with no Stirling number: Ei_k composed
    # with log(1+t) as Σ_m c_m (log(1+t))^m, times 2/(e^t + 1).
    powers, euler_egf = series_oracle
    composed = [Fraction(0)] * (ORACLE_ORDER + 1)
    for c, power in zip(polyexp_series(k, ORACLE_ORDER), powers):
        for i, a in enumerate(power):
            composed[i] += c * a
    series = series_mul(composed, euler_egf)
    expected = [factorial(n) * series[n] for n in range(ORACLE_ORDER + 1)]
    assert poly_genocchi_numbers(k, ORACLE_ORDER) == expected


def test_poly_families_collapse_at_index_one():
    assert poly_genocchi_numbers(1, 20) == genocchi_numbers(20)
    assert poly_euler_numbers(1, 20) == euler_numbers(20)
    for n in range(0, 9):
        assert poly_euler_poly(1, n) == euler_poly(n)
        assert poly_genocchi_poly(1, n) == genocchi_poly(n)


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3])
def test_poly_euler_numbers_are_genocchi_quotients(k):
    euler_k = poly_euler_numbers(k, 10)
    genocchi_k = poly_genocchi_numbers(k, 11)
    for n in range(11):
        assert euler_k[n] == genocchi_k[n + 1] / (n + 1)


def _counted(monkeypatch, owner, name: str) -> list:
    """Replace owner.name by a wrapper that records each call's arguments in the returned list."""
    calls, function = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_read_of_a_number_list_is_one_growth_call(monkeypatch, empty_caches):
    # Each list reads its integer list, and its scale, from one growth call,
    # cold or warm, and keeps no memo per entry.  The last k = 2 and k = 3
    # reads pass the prime powers 7 and 8, so the scale L grows between reads.
    monkeypatch.setattr(sequences, "_euler_cache", [])
    tangent = _counted(monkeypatch, sequences, "_signed_tangent_numbers")
    numbers = _counted(monkeypatch, sequences._IndexFamily, "grow_numbers")
    reads = [
        (euler_numbers, tangent, (6, 6, 9)),
        (lambda n: poly_genocchi_numbers(2, n), numbers, (6, 6, 8)),
        (lambda n: poly_euler_numbers(3, n), numbers, (5, 5, 7)),
        (lambda n: poly_euler_numbers(-2, n), numbers, (5, 5, 7)),
    ]
    for read, calls, sizes in reads:
        for max_n in sizes:
            calls.clear()
            values = read(max_n)
            assert len(calls) == 1 and len(values) == max_n + 1
    # L = lcm(1..8)^(k-1), up from lcm(1..6)^(k-1) = 60^(k-1).
    assert (sequences._family(2).scale, sequences._family(3).scale) == (840, 840**2)
    assert euler_numbers(9) == sequences._euler_numbers_recurrence(9)
    assert poly_genocchi_numbers(2, 8) == poly_genocchi_sums(2, 8)
    for k in (3, -2):
        genocchi = poly_genocchi_sums(k, 8)
        assert poly_euler_numbers(k, 7) == [genocchi[n + 1] / (n + 1) for n in range(8)]


def test_sequences_keeps_seven_memos():
    # The family, the Stirling weights, the four row fills and the Theorem 3
    # weights; the number lists are read off the integer lists on each call.
    memos = sorted(name for name, value in vars(sequences).items() if hasattr(value, "cache_info"))
    assert memos == [
        "_euler_row",
        "_family",
        "_genocchi_row",
        "_poly_euler_row",
        "_poly_genocchi_row",
        "_weight",
        "theorem3_integer_weights",
    ]


@pytest.mark.parametrize("k", [-2, 0, 2])
@pytest.mark.parametrize("n", [0, 1, 4, 7])
def test_poly_euler_route_stirling(k, n):
    assert poly_normalize(poly_euler_via_theorem3(k, n)) == poly_euler_poly(k, n)


@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("k", [-1, 1, 3])
def test_poly_euler_route_distribution(k, m):
    for n in (0, 2, 5):
        assert poly_normalize(poly_euler_via_corollary7(k, n, m)) == poly_euler_poly(k, n)


def test_poly_euler_distribution_route_rejects_even_modulus():
    with pytest.raises(ValueError):
        poly_euler_via_corollary7(1, 3, 2)


@pytest.mark.parametrize(
    "verifier_id, params",
    [
        ("thm3", {"k": 2, "n": 6}),
        ("cor7", {"k": 2, "n": 6, "m": 3}),
        ("oracle_equivalence", {"k": 2, "n": 6, "m": 3}),
        ("thm1", {"n": 7, "k": 2}),
        ("cor2", {"n": 7, "k": 2}),
    ],
)
def test_the_identities_catch_a_wrong_poly_genocchi_number(empty_caches, verifier_id, params):
    # The poly-Euler polynomials are built once, with no fill-time check; a
    # G_7^(2) off by 5/3 reaches E_6^(2)(x) and G_7^(2)(x), and these
    # identities compare both with sides that never read it.  The fault goes
    # into the integer numbers g_n = L·2^n·G_n^(2) before any entry or row is derived.
    family = sequences._family(2)
    family.grow_numbers(20)
    fault = Fraction(5, 3) * family.scale * 2**7
    assert fault.denominator == 1
    family.numbers[7] += fault.numerator
    assert poly_genocchi_numbers(2, 7)[7] == poly_genocchi_sums(2, 7)[7] + Fraction(5, 3)
    assert verify(verifier_id, params).holds is False


def test_poly_euler_poly_cache_is_not_shared_with_callers():
    first = poly_euler_poly(2, 3)
    expected = list(first)
    first[0] = Fraction(999)
    assert poly_euler_poly(2, 3) == expected


def test_poly_euler_poly_degree_and_leading_coefficient():
    for k in (-2, 0, 3):
        p = poly_euler_poly(k, 6)
        assert len(p) == 7 and p[6] == 1  # monic of degree n (E_0^(k) = 1)


# --- arguments and threads ---------------------------------------------------

#: Each public function of `sequences` that takes n or max_n: valid arguments
#: but for n or max_n = -1, and the message of the ValueError it raises.
NEGATIVE_CALLS = {
    "stirling1": ((-1, 0), "stirling1 requires nonnegative n and m"),
    "stirling1_row": ((-1,), "stirling1 requires nonnegative n"),
    "stirling_weights": ((2, -1), "max_n must be nonnegative"),
    "euler_integers": ((-1,), "max_n must be nonnegative"),
    "euler_numbers": ((-1,), "max_n must be nonnegative"),
    "euler_poly": ((-1,), "n must be nonnegative"),
    "euler_poly_row": ((-1,), "n must be nonnegative"),
    "genocchi_numbers": ((-1,), "max_n must be nonnegative"),
    "genocchi_poly": ((-1,), "n must be nonnegative"),
    "genocchi_poly_row": ((-1,), "n must be nonnegative"),
    "poly_genocchi_numbers": ((2, -1), "max_n must be nonnegative"),
    "poly_genocchi_poly": ((2, -1), "n must be nonnegative"),
    "poly_genocchi_poly_row": ((2, -1), "n must be nonnegative"),
    "poly_euler_numbers": ((2, -1), "max_n must be nonnegative"),
    "poly_euler_poly": ((2, -1), "n must be nonnegative"),
    "poly_euler_poly_row": ((2, -1), "n must be nonnegative"),
    "theorem3_integer_weights": ((2, -1), "n must be nonnegative"),
    "theorem3_combination": ((2, -1, euler_poly_row, 1), "n must be nonnegative"),
    "poly_euler_via_theorem3": ((2, -1), "n must be nonnegative"),
    "poly_euler_via_corollary7": ((2, -1, 3), "n must be nonnegative"),
}


@pytest.mark.parametrize(
    "name",
    sorted(
        name
        # A public function kept by functools.cache is a function once unwrapped.
        for name, function in inspect.getmembers(sequences, callable)
        if inspect.isfunction(inspect.unwrap(function))
        and not name.startswith("_")
        and function.__module__ == sequences.__name__
        and {"n", "max_n"} & set(inspect.signature(function).parameters)
    ),
)
def test_a_negative_n_is_rejected_with_its_message(name):
    args, message = NEGATIVE_CALLS[name]
    with pytest.raises(ValueError) as raised:
        getattr(sequences, name)(*args)
    assert str(raised.value) == message


def test_threads_fill_the_integer_lists_as_one_thread_does(monkeypatch, empty_caches):
    # Threads that meet empty Stirling, Euler and index-k lists at once, each
    # asking a different size, must leave every list as one thread fills it:
    # a stale start, a scale multiplied once per thread, or numbers read with
    # the scale of another growth step shows in the values or in later reads.
    def reads(i):
        return (
            stirling1_row(300 - 9 * i),
            euler_numbers(200 - 9 * i),
            [poly_genocchi_numbers(k, 120 - 9 * i) for k in (3, -2)],
            [poly_euler_numbers(k, 110 - 9 * i) for k in (3, -2)],
            [poly_euler_poly(k, 90 - 9 * i) for k in (3, -2)],
        )

    def work(barrier, i):
        try:
            barrier.wait(timeout=60)
            results[i] = reads(i)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    expected = [reads(i) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(sequences, "_stirling_rows", [[1]])
            monkeypatch.setattr(sequences, "_stirling2_rows", [[1]])
            monkeypatch.setattr(sequences, "_euler_cache", [])
            empty_caches()
            barrier, errors, results = threading.Barrier(4), [], {}
            threads = [threading.Thread(target=work, args=(barrier, i)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads) and errors == []
            assert [results[i] for i in range(4)] == expected
            assert [reads(i) for i in range(4)] == expected
    finally:
        sys.setswitchinterval(interval)


# --- periodic bar evaluation and sawtooth -------------------------------------


def test_bar_eval_pinned_values():
    e1 = euler_poly(1)
    assert bar_eval(e1, Fraction(7, 3)) == Fraction(-1, 6)
    assert bar_eval(e1, Fraction(-1, 4)) == Fraction(1, 4)
    assert bar_eval(e1, Fraction(2)) == Fraction(-1, 2)


@given(rationals)
@settings(deadline=None)
def test_bar_eval_is_periodic(x):
    p = euler_poly(3)
    assert bar_eval(p, x + 1) == bar_eval(p, x)
    assert bar_eval(p, x) == poly_eval(p, x - (x.numerator // x.denominator))


def test_sawtooth_values():
    assert sawtooth(Fraction(0)) == 0
    assert sawtooth(Fraction(5)) == 0
    assert sawtooth(Fraction(-3)) == 0
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(2, 3)) == Fraction(1, 6)
    assert sawtooth(Fraction(-3, 2)) == 0


@given(rationals)
def test_sawtooth_is_periodic_and_odd(x):
    assert sawtooth(x + 1) == sawtooth(x)
    assert sawtooth(-x) == -sawtooth(x)

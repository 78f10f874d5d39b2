"""Tests for Dedekind-type DC sums and the reciprocity-law machinery."""

import random
import sys
import threading
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydc import dc_sums, identity_suite
from polydc.dc_sums import (
    corollary15_rhs,
    corollary15_sides,
    dc_sum,
    k1_collapse_sides,
    poly_dc_sum,
    reciprocity_closed_form_sides,
    reciprocity_sides,
    s_pk_of_1_m,
    theorem11_sides,
    theorem12_sides,
    theorem13_sides,
)
from polydc.exact_algebra import horner
from polydc.identity_suite import verify
from polydc.sequences import (
    euler_poly,
    euler_poly_row,
    poly_euler_poly,
    poly_euler_poly_row,
    poly_euler_via_corollary7,
    stirling1_row,
)

from oracles import (
    alternating_bar_eval,
    bar_eval,
    dc_sum_by_term,
    declared_checks,
    double_moments_by_term,
    euler_alt_bar,
    recorded_checks,
    single_moments_by_term,
    theorem13_lhs_by_term,
    theorem3_weights,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=24)


# --- alternating bar evaluation ----------------------------------------------


def test_alternating_bar_eval_values():
    e1 = euler_poly(1)
    # On [0, 1) it is the polynomial itself.
    assert alternating_bar_eval(e1, Fraction(1, 3)) == Fraction(-1, 6)
    # On [1, 2) the sign flips: -E_1(1/3) = 1/6.
    assert alternating_bar_eval(e1, Fraction(4, 3)) == Fraction(1, 6)
    # Two unit steps restore the sign.
    assert alternating_bar_eval(e1, Fraction(7, 3)) == Fraction(-1, 6)
    # Negative arguments: floor(-1/4) = -1, so the sign flips once.
    assert alternating_bar_eval(e1, Fraction(-1, 4)) == Fraction(-1, 4)


@given(rationals)
@settings(deadline=None)
def test_alternating_bar_eval_antiperiodic(x):
    p = euler_poly(4)
    assert alternating_bar_eval(p, x + 1) == -alternating_bar_eval(p, x)
    assert alternating_bar_eval(p, x + 2) == alternating_bar_eval(p, x)


@given(st.fractions(min_value=0, max_value=1, max_denominator=24).filter(lambda q: q < 1))
def test_alternating_bar_matches_bar_on_unit_interval(x):
    p = euler_poly(3)
    assert alternating_bar_eval(p, x) == bar_eval(p, x)


@given(st.integers(0, 8), rationals)
@settings(deadline=None)
def test_the_memoized_alt_bar_is_the_alternating_extension(degree, x):
    # The benchmark reads the cache of dc_sums._euler_alt_bar; its values stay Ê.
    assert dc_sums._euler_alt_bar(degree, x) == alternating_bar_eval(euler_poly(degree), x)


# --- reference routes: the defining Fraction loops ------------------------------
#
# The served sums read integer moments; these evaluate each definition term by
# term with `alternating_bar_eval` (over E_n(x), memoized as `euler_alt_bar`),
# a route that shares no kernel with them.


def reference_poly_dc_sum(k, p, h, m):
    """T_p^(k)(h, m), the same loop over E_p^(k)(x)."""
    poly = poly_euler_poly(k, p)
    total = Fraction(0)
    for mu in range(1, m):
        term = Fraction(mu, m) * alternating_bar_eval(poly, Fraction(h * mu, m))
        total += -term if mu % 2 else term
    return 2 * total


def reference_reciprocity_rhs(k, p, h, m):
    """The reciprocity right side as the (l, μ, ν) triple loop of its docstring."""
    total = Fraction(0)
    for l in range(p + 1):
        n1 = p - l + 1
        row = stirling1_row(n1)
        jsum = sum((row[j] * Fraction(j) ** (1 - k) for j in range(1, n1 + 1)), Fraction(0))
        if jsum == 0:
            continue
        base = Fraction(m * h) ** (l - 1) * (comb(p, l) * jsum / n1)
        m_pow = Fraction(m) ** (p - l)
        h_pow = Fraction(h) ** (p - l)
        for mu in range(m):
            for nu in range(h):
                weight = (mu * h) * m_pow + (nu * m) * h_pow
                if weight == 0:
                    continue
                term = base * weight * euler_alt_bar(l, Fraction(nu, h) + Fraction(mu, m))
                total += -term if (mu + nu) % 2 else term
    return 2 * total


def reference_corollary15_rhs(p, h, m):
    """2·(mh)^(p-1) Σ_{μ,ν} (-1)^(μ+ν) (μh + νm) Ê_p(ν/h + μ/m)."""
    total = Fraction(0)
    for mu in range(m):
        for nu in range(h):
            weight = mu * h + nu * m
            if weight == 0:
                continue
            term = weight * euler_alt_bar(p, Fraction(nu, h) + Fraction(mu, m))
            total += -term if (mu + nu) % 2 else term
    return 2 * Fraction(m * h) ** (p - 1) * total


SMALL = range(1, 12)
ODD_SMALL = range(1, 12, 2)


@pytest.mark.parametrize("k", range(-2, 4))
def test_poly_dc_sum_matches_reference(k):
    for p in range(1, 7):
        for h in SMALL:
            for m in SMALL:
                assert poly_dc_sum(k, p, h, m) == reference_poly_dc_sum(k, p, h, m), (k, p, h, m)


@pytest.mark.parametrize("p", range(1, 8))
def test_dc_sum_matches_reference(p):
    for h in range(1, 16):
        for m in range(1, 16):
            assert dc_sum(p, h, m) == dc_sum_by_term(p, h, m), (p, h, m)


@pytest.mark.parametrize("k", range(-2, 4))
def test_reciprocity_rhs_matches_reference(k):
    for p in range(1, 7):
        for h in ODD_SMALL:
            for m in ODD_SMALL:
                served = reciprocity_sides(k, p, h, m).rhs
                assert served == reference_reciprocity_rhs(k, p, h, m), (k, p, h, m)


def test_corollary15_rhs_matches_reference():
    for p in range(1, 8):
        for h in ODD_SMALL:
            for m in ODD_SMALL:
                assert corollary15_rhs(p, h, m) == reference_corollary15_rhs(p, h, m), (p, h, m)


@pytest.mark.parametrize("k", range(-2, 4))
def test_theorem13_lhs_matches_reference(k):
    for p in range(1, 8):
        for h in SMALL:
            for m in ODD_SMALL:
                if gcd(h, m) == 1:
                    served = theorem13_sides(k, p, h, m).lhs
                    assert served == theorem13_lhs_by_term(k, p, h, m), (k, p, h, m)


def test_theorem13_lhs_matches_reference_at_seeded_points():
    rng = random.Random(20261021)
    points = [(16, 12, 40, 41)]
    while len(points) < 101:
        k, p = rng.randint(-4, 5), rng.randint(1, 8)
        h, m = rng.randint(1, 61), rng.randrange(1, 62, 2)
        if gcd(h, m) == 1:
            points.append((k, p, h, m))
    for point in points:
        assert theorem13_sides(*point).lhs == theorem13_lhs_by_term(*point), point


def test_large_points_match_reference():
    assert poly_dc_sum(2, 10, 7, 4001) == reference_poly_dc_sum(2, 10, 7, 4001)
    assert dc_sum(10, 7, 4001) == dc_sum_by_term(10, 7, 4001)
    # Even arguments at a large modulus run the O(m) moment kernel.
    assert dc_sum(10, 8, 4001) == dc_sum_by_term(10, 8, 4001)
    assert dc_sum(10, 7, 4000) == dc_sum_by_term(10, 7, 4000)
    assert poly_dc_sum(2, 10, 8, 4001) == reference_poly_dc_sum(2, 10, 8, 4001)
    assert reciprocity_sides(2, 3, 41, 43).rhs == reference_reciprocity_rhs(2, 3, 41, 43)
    assert corollary15_rhs(5, 39, 41) == reference_corollary15_rhs(5, 39, 41)
    assert theorem13_sides(2, 6, 40, 41).lhs == theorem13_lhs_by_term(2, 6, 40, 41)


def test_sums_leave_no_alt_bar_cache_entries():
    # A memoized Ê route keeps one entry per distinct argument for the life of
    # the process: 14,685 entries after these three calls.
    dc_sums._euler_alt_bar.cache_clear()
    dc_sum(3, 7, 4001)
    dc_sum(3, 11, 4001)
    reciprocity_sides(2, 3, 41, 43)
    assert dc_sums._euler_alt_bar.cache_info().currsize == 0


# --- the Euclid route against the O(m) kernels -----------------------------------
#
# For odd h and m the public sums take one step per link of `euclid_chain`
# through the closed-form classical reciprocity law (few links for most pairs,
# but (m - 2, m) has (m - 1)/2); the moment kernel they replace there is the
# oracle.  Even arguments still run the kernel, which the reference tests over
# SMALL and the large points cover.

ODD_TO_45 = range(1, 46, 2)
ODD_TO_25 = range(1, 26, 2)


@pytest.mark.parametrize("p", range(1, 9))
def test_dc_sum_euclid_route_matches_moment_kernel(p):
    row = euler_poly_row(p)
    for h in ODD_TO_45:
        for m in ODD_TO_45:
            assert dc_sum(p, h, m) == dc_sums._row_dc_sum(row, h, m), (p, h, m)


@pytest.mark.parametrize("k", range(-3, 5))
def test_poly_dc_sum_euclid_route_matches_moment_kernel(k):
    for p in range(1, 8):
        row = poly_euler_poly_row(k, p)
        for h in ODD_TO_25:
            for m in ODD_TO_25:
                served = poly_dc_sum(k, p, h, m)
                assert served == dc_sums._row_dc_sum(row, h, m), (k, p, h, m)


def test_euclid_degree_zero_matches_direct_loop():
    # T_0, which the public sums reject, enters every poly sum with weight a_0.
    for h in ODD_TO_45:
        for m in ODD_TO_45:
            (value,) = dc_sums._euclid_sums(h, m, [0])
            assert Fraction(value, m) == dc_sum_by_term(0, h, m), (h, m)


def test_euclid_route_returns_every_requested_degree():
    sums = dc_sums._euclid_sums(15, 49, range(7))
    assert sums == [dc_sums._euclid_sums(15, 49, [l])[0] for l in range(7)]


def test_euclid_route_raises_on_an_inexact_step(monkeypatch):
    law = dc_sums._classical_law
    monkeypatch.setattr(
        dc_sums, "_classical_law", lambda *args: lambda h, m: [n + 1 for n in law(*args)(h, m)]
    )
    with pytest.raises(RuntimeError, match="inexact"):
        dc_sum(3, 7, 11)


@given(
    k=st.integers(-3, 4),
    p=st.integers(1, 8),
    h=st.integers(0, 4_999).map(lambda v: 2 * v + 1),  # odd, < 10^4
    m=st.integers(0, 9_999).map(lambda v: 2 * v + 1),  # odd, < 2·10^4
)
@settings(max_examples=50, deadline=None)
def test_euclid_route_matches_the_kernels_at_large_moduli(k, p, h, m):
    assert dc_sum(p, h, m) == dc_sums._row_dc_sum(euler_poly_row(p), h, m)
    assert poly_dc_sum(k, p, h, m) == dc_sums._row_dc_sum(poly_euler_poly_row(k, p), h, m)


# --- the DC sums themselves ----------------------------------------------------


def test_dc_sum_pinned_values():
    assert dc_sum(1, 1, 3) == Fraction(1, 3)
    # Hand evaluation of T_1(3, 5) with the alternating extension:
    # 2·[-(1/5)(1/10) + (2/5)(3/10) - (3/5)(-3/10) + (4/5)(-1/10)] = 2/5.
    assert dc_sum(1, 3, 5) == Fraction(2, 5)


@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("h", [1, 4, 9])
def test_dc_sum_trivial_modulus(p, h):
    assert dc_sum(p, h, 1) == 0


def test_dc_sum_rejects_bad_parameters():
    for bad in [(0, 1, 3), (0, 7, 9), (0, 2, 3), (1, 0, 3), (1, 1, 0), (-2, 3, 5)]:
        with pytest.raises(ValueError):
            dc_sum(*bad)
    for bad in [(0, 1, 3), (0, 7, 9), (0, 2, 3)]:
        with pytest.raises(ValueError):
            poly_dc_sum(2, *bad)


@pytest.mark.parametrize("p, h, m", [(0, 7, 9), (1, 0, 3), (3, -3, 5), (1, 1, 0), (-2, -3, -5)])
def test_the_public_sums_reject_like_k1_collapse(p, h, m):
    # One declared Hypotheses value serves dc_sum, poly_dc_sum and k1_collapse.
    messages = set()
    for reject in (
        lambda: dc_sum(p, h, m),
        lambda: poly_dc_sum(2, p, h, m),
        lambda: verify("k1_collapse", {"p": p, "h": h, "m": m}),
    ):
        with pytest.raises(ValueError) as error:
            reject()
        messages.add(str(error.value))
    assert len(messages) == 1 and " must be >= 1" in messages.pop()


def test_euclid_chain_links():
    # Near h = m each link lowers the pair by m - h only; a common factor is
    # divided out first.
    assert sum(1 for _ in dc_sums.euclid_chain(9997, 9999)) == 4999
    assert len(list(dc_sums.euclid_chain(12345, 9999991))) == 20
    assert list(dc_sums.euclid_chain(3 * 12345, 3 * 9999991)) == list(
        dc_sums.euclid_chain(12345, 9999991)
    )
    assert list(dc_sums.euclid_chain(7, 1)) == list(dc_sums.euclid_chain(3, 3)) == []


def test_poly_dc_sum_pinned_value():
    # T_1^(2)(1, 3) = 2·(-(1/3)·E_1^(2)(1/3) + (2/3)·E_1^(2)(2/3)) with
    # E_1^(2)(x) = x - 3/4, i.e. 2·(-(1/3)(-5/12) + (2/3)(-1/12)) = 1/6.
    assert poly_dc_sum(2, 1, 1, 3) == Fraction(1, 6)


@pytest.mark.parametrize("p, h, m", [(1, 1, 3), (2, 3, 5), (4, 2, 6), (3, 5, 9)])
def test_poly_dc_sum_collapses_at_index_one(p, h, m):
    assert poly_dc_sum(1, p, h, m) == dc_sum(p, h, m)


# --- auxiliary closed forms -----------------------------------------------------


@pytest.mark.parametrize("k", [-2, 0, 1, 3])
def test_s_pk_closed_form_holds(k):
    for p, m in [(1, 1), (3, 5), (6, 7), (4, 3)]:
        sides = s_pk_of_1_m(k, p, m)
        assert sides.holds and sides.lhs == sides.rhs


def test_s_pk_rejects_even_modulus():
    with pytest.raises(ValueError):
        s_pk_of_1_m(1, 3, 4)


@pytest.mark.parametrize("k", [-2, 1, 2])
@pytest.mark.parametrize("p, m", [(3, 1), (5, 5), (9, 7), (7, 9)])
def test_odd_degree_expansions_hold(k, p, m):
    assert theorem11_sides(k, p, m).holds
    assert theorem12_sides(k, p, m).holds


@pytest.mark.parametrize("bad_p", [1, 2, 4])
def test_odd_degree_expansions_reject_bad_degree(bad_p):
    with pytest.raises(ValueError):
        theorem11_sides(1, bad_p, 3)
    with pytest.raises(ValueError):
        theorem12_sides(1, bad_p, 3)


def test_odd_degree_expansions_reject_even_modulus():
    with pytest.raises(ValueError):
        theorem11_sides(1, 3, 2)
    with pytest.raises(ValueError):
        theorem12_sides(1, 3, 2)


# --- coprime-modulus expansion ---------------------------------------------------


def test_coprime_expansion_reference_point():
    sides = theorem13_sides(1, 4, 3, 5)
    assert sides.holds
    assert sides.rhs == 1695


@pytest.mark.parametrize(
    "k, p, h, m", [(1, 1, 1, 1), (-2, 5, 4, 9), (2, 3, 8, 3), (0, 6, 5, 7), (3, 2, 2, 5)]
)
def test_coprime_expansion_holds(k, p, h, m):
    sides = theorem13_sides(k, p, h, m)
    assert sides.holds and sides.lhs == sides.rhs


def test_coprime_expansion_rejects_bad_parameters():
    with pytest.raises(ValueError):
        theorem13_sides(1, 3, 3, 9)  # gcd(3, 9) = 3
    with pytest.raises(ValueError):
        theorem13_sides(1, 3, 5, 4)  # even modulus
    with pytest.raises(ValueError):
        theorem13_sides(1, 0, 1, 3)


# --- reciprocity ---------------------------------------------------------------


def test_reciprocity_reference_points():
    sides = reciprocity_sides(1, 3, 1, 3)
    assert sides.holds and sides.lhs == Fraction(-13, 2)
    assert reciprocity_sides(-2, 5, 3, 5).holds
    assert reciprocity_sides(3, 4, 7, 9).holds


def test_reciprocity_holds_without_coprimality():
    assert reciprocity_sides(2, 3, 3, 9).holds
    assert reciprocity_sides(-1, 2, 5, 5).holds


def test_reciprocity_lhs_and_rhs_are_swap_symmetric():
    for k, p, h, m in [(1, 2, 3, 5), (-2, 4, 1, 9), (2, 5, 7, 3)]:
        a = reciprocity_sides(k, p, h, m)
        b = reciprocity_sides(k, p, m, h)
        assert a.lhs == b.lhs and a.rhs == b.rhs


def decomposed_reciprocity_rhs(k, p, h, m):
    """Σ_l a_l·(m^p·T_l(h, m) + h^p·T_l(m, h)) over the Theorem 3 weights a_l: the
    distribution relation applied to each half of the right side, degree by
    degree.  Each T_l with l ≥ 1 comes from the Euclid route (`dc_sum`), which
    shares no code with the double moments, and T_0 from its defining loop."""

    def t(l, h, m):
        return dc_sum(l, h, m) if l else dc_sum_by_term(0, h, m)

    weights = theorem3_weights(k, p)
    return sum(a * (m**p * t(l, h, m) + h**p * t(l, m, h)) for l, a in enumerate(weights) if a)


def test_reciprocity_rhs_is_the_distribution_relation_half_by_half():
    odd = range(1, 10, 2)
    points = [(k, p, h, m) for k in range(-2, 4) for p in range(1, 7) for h in odd for m in odd]
    rng = random.Random(20261020)
    points += [
        (rng.randint(-4, 5), rng.randint(1, 6), rng.randrange(1, 62, 2), rng.randrange(1, 62, 2))
        for _ in range(200)
    ]
    for point in points:
        assert reciprocity_sides(*point).rhs == decomposed_reciprocity_rhs(*point), point


def test_reciprocity_rejects_even_parameters():
    with pytest.raises(ValueError):
        reciprocity_sides(1, 3, 2, 3)
    with pytest.raises(ValueError):
        reciprocity_sides(1, 3, 3, 4)


def test_classical_reciprocity_matches_single_sum_form():
    for p, h, m in [(1, 1, 3), (2, 3, 5), (5, 7, 9), (3, 5, 5)]:
        lhs = Fraction(m) ** p * dc_sum(p, h, m) + Fraction(h) ** p * dc_sum(p, m, h)
        assert lhs == corollary15_rhs(p, h, m)


def test_classical_reciprocity_agrees_with_index_one_general_form():
    for p, h, m in [(1, 1, 3), (2, 3, 5), (4, 5, 3)]:
        general = reciprocity_sides(1, p, h, m)
        lhs = Fraction(m) ** p * dc_sum(p, h, m) + Fraction(h) ** p * dc_sum(p, m, h)
        assert general.lhs == lhs == corollary15_rhs(p, h, m)


def test_closed_form_reciprocity_degree_one():
    # For p = 1 the closed form reads (h + m)/2 - 1.
    for h, m in [(1, 1), (1, 3), (3, 5), (7, 9), (15, 49)]:
        sides = reciprocity_closed_form_sides(1, h, m)
        assert sides.holds and sides.rhs == Fraction(h + m, 2) - 1


def test_closed_form_reciprocity_rejects_non_coprime_pairs():
    with pytest.raises(ValueError, match="coprime"):
        reciprocity_closed_form_sides(2, 3, 9)


def test_corollary15_checks_its_hypotheses_once(monkeypatch):
    # corollary15_sides runs the unchecked body of corollary15_rhs after its
    # own check, which runs before either side is built; the error is the one
    # it always gave.  Every declared identity of dc_sums tests each of its
    # hypotheses once per call, in declared order, on the values at their
    # positions, positional and keyword calls alike, and builds no point dict
    # for Hypotheses.violation.
    def unused(self, point):
        raise AssertionError(f"violation({point}) was called")

    monkeypatch.setattr(dc_sums.Hypotheses, "violation", unused)
    identities = [
        (s_pk_of_1_m, {"k": 2, "p": 6, "m": 7}),
        (theorem11_sides, {"k": -1, "p": 7, "m": 5}),
        (theorem12_sides, {"k": 3, "p": 5, "m": 9}),
        (theorem13_sides, {"k": -2, "p": 5, "h": 4, "m": 9}),
        (reciprocity_sides, {"k": 0, "p": 4, "h": 5, "m": 9}),
        (corollary15_rhs, {"p": 5, "h": 7, "m": 9}),
        (reciprocity_closed_form_sides, {"p": 6, "h": 7, "m": 9}),
        (k1_collapse_sides, {"p": 6, "h": 4, "m": 10}),
    ]
    with recorded_checks(corollary15_sides, *(identity for identity, _ in identities)) as calls:
        assert corollary15_sides(3, 5, 7).holds
        assert calls == declared_checks(corollary15_sides, {"p": 3, "h": 5, "m": 7})
        for identity, point in identities:
            calls.clear()
            identity(*point.values())
            identity(**point)
            assert calls == 2 * declared_checks(identity, point), identity.__name__
        monkeypatch.setattr(dc_sums, "_reciprocity_lhs", None)
        calls.clear()
        with pytest.raises(ValueError, match="^h must be a positive odd integer$"):
            corollary15_sides(2, 2, 3)
        assert calls == declared_checks(corollary15_sides, {"p": 2, "h": 2, "m": 3})[:2]


def test_a_declared_identity_leaves_a_wrong_call_to_its_body():
    # A missing or unexpected argument raises the body's TypeError, not a
    # hypothesis error or a KeyError from the check.
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'm'"):
        reciprocity_sides(1, 3, 5)
    with pytest.raises(TypeError, match="unexpected keyword argument 'n'"):
        corollary15_sides(3, 5, 7, n=1)
    # As many arguments as parameters, one of them misnamed.
    with pytest.raises(TypeError, match="unexpected keyword argument 'n'"):
        corollary15_sides(3, 5, n=1)
    assert reciprocity_sides.params == ("k", "p", "h", "m")
    assert reciprocity_sides.hypotheses.violation({"k": 1, "p": 1, "h": 2, "m": 3})


def test_corollary15_rhs_rejects_even_parameters():
    with pytest.raises(ValueError):
        corollary15_rhs(2, 2, 3)
    with pytest.raises(ValueError):
        corollary15_rhs(2, 3, 6)


# --- hypotheses --------------------------------------------------------------


@pytest.mark.parametrize(
    "function, verifier_id, params",
    [
        (s_pk_of_1_m, "thm10", {"k": 1, "p": 3, "m": 4}),
        (theorem11_sides, "thm11", {"k": 1, "p": 4, "m": 3}),
        (theorem12_sides, "thm12", {"k": 1, "p": 1, "m": 3}),
        (theorem13_sides, "thm13", {"k": 1, "p": 3, "h": 3, "m": 9}),
        (reciprocity_sides, "thm14", {"k": 1, "p": 3, "h": 2, "m": 3}),
        (corollary15_rhs, "cor15", {"p": 2, "h": 3, "m": 6}),
        (poly_euler_via_corollary7, "cor7", {"k": 1, "n": 3, "m": 4}),
        (corollary15_sides, "cor15", {"p": 2, "h": 4, "m": 3}),
        (reciprocity_closed_form_sides, "recip_closed_form", {"p": 2, "h": 3, "m": 9}),
        (k1_collapse_sides, "k1_collapse", {"p": 0, "h": 2, "m": 3}),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_identity_rejects_like_its_verifier(function, verifier_id, params):
    with pytest.raises(ValueError) as direct:
        function(*params.values())
    with pytest.raises(ValueError) as verified:
        verify(verifier_id, params)
    assert str(direct.value) == str(verified.value)


# --- the moment kernels against the per-term loops ---------------------------

#: Odd and even moduli up to 61, coprime pairs and pairs with a common factor.
MOMENT_MODULI = (1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 21, 25, 33, 45, 60, 61)


@pytest.mark.parametrize("m", range(1, 62))
def test_single_moments_match_the_per_term_loop(m):
    for h in range(1, 62):
        assert dc_sums._single_moments(h, m, 8) == single_moments_by_term(h, m, 8), (h, m)
    for degree in range(8):
        assert dc_sums._single_moments(7, m, degree) == single_moments_by_term(7, m, degree)


def _both_orientations(h: int, m: int, degree: int) -> tuple[list[int], list[int]]:
    """A at (h, m) and at (m, h), which is B at (h, m): the per-term loop
    builds B by its own sum, so comparing with it also pins the symmetry."""
    return dc_sums._double_moments(h, m, degree), dc_sums._double_moments(m, h, degree)


@pytest.mark.parametrize("m", MOMENT_MODULI)
def test_double_moments_match_the_per_term_loop(m):
    for h in MOMENT_MODULI:
        for degree in (0, 1, 8):
            expected = double_moments_by_term(h, m, degree)
            assert _both_orientations(h, m, degree) == expected, (h, m, degree)


@given(data=st.data(), h=st.integers(1, 10_000), p=st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_moments_match_the_per_term_loops_at_large_moduli(data, h, p):
    m = data.draw(st.integers(1, 10_000 // h), label="m")
    assert _both_orientations(h, m, p) == double_moments_by_term(h, m, p)
    assert dc_sums._single_moments(h, m, p) == single_moments_by_term(h, m, p)


@pytest.mark.parametrize("h, m", [(100, 100), (99, 101), (1, 10_000), (10_000, 1), (2, 4999)])
def test_double_moments_match_the_per_term_loop_at_mh_10_000(h, m):
    assert _both_orientations(h, m, 6) == double_moments_by_term(h, m, 6)


@pytest.mark.parametrize("h", [1, 2, 9973, 12345])
def test_single_moments_match_the_per_term_loop_at_the_dcsum_cap(h):
    assert dc_sums._single_moments(h, 10_000, 6) == single_moments_by_term(h, 10_000, 6)


# --- the moment cache ---------------------------------------------------------

ODD_TO_61 = range(1, 62, 2)
SINGLE, DOUBLE = dc_sums._single_moments, dc_sums._double_moments


def _prefix(moments, degree: int) -> tuple:
    """A per-term loop's moments at degree, from its list at a higher one, as
    the cache returns them: one tuple."""
    return tuple(moments[: degree + 1])


def _charged_bits(cache) -> int:
    """The moments' bit_length, 256 bits per moment and 2560 per entry."""
    return 2560 * len(cache.entries) + sum(
        v.bit_length() + 256 for moments, _ in cache.entries.values() for v in moments
    )


@pytest.fixture
def moment_cache(monkeypatch):
    """A fresh moment cache in place of the module's."""
    cache = dc_sums._MomentCache()
    monkeypatch.setattr(dc_sums, "_MOMENT_CACHE", cache)
    return cache


@pytest.mark.parametrize("m", ODD_TO_61)
def test_cached_moments_match_the_per_term_loops(m):
    # Each pair reads a fresh cache in one order, and every h and every m meets
    # all three: ascending replaces the entry at every degree, descending
    # fills it once and reads prefixes, shuffled does both.
    # B is read as A at (m, h), so the double moments are read both ways.
    ascending = list(range(9))
    for h in ODD_TO_61:
        a, b = double_moments_by_term(h, m, 8)
        expected = {(SINGLE, h, m): single_moments_by_term(h, m, 8), (DOUBLE, h, m): a}
        expected[DOUBLE, m, h] = b
        shuffled = random.Random(h * 100 + m).sample(ascending, len(ascending))
        degrees = (ascending, ascending[::-1], shuffled)[(h + m) // 2 % 3]
        cache = dc_sums._MomentCache()
        for p in degrees:
            for key, moments in expected.items():
                assert cache.read(*key, p) == _prefix(moments, p), (key, p)


def test_cached_moments_match_the_per_term_loops_through_eviction(monkeypatch):
    # A budget of a few entries evicts and refills them mid-sequence.
    monkeypatch.setattr(dc_sums, "MOMENT_CACHE_BITS", 40_000)
    moduli = range(1, 22, 2)
    expected = {
        (kernel, h, m): moments
        for h in moduli
        for m in moduli
        for kernel, moments in (
            (SINGLE, single_moments_by_term(h, m, 8)),
            (DOUBLE, double_moments_by_term(h, m, 8)[0]),
        )
    }
    requests = [(key, p) for key in expected for p in range(9)] * 2
    random.Random(23).shuffle(requests)
    cache = dc_sums._MomentCache()
    for (kernel, h, m), p in requests:
        assert cache.read(kernel, h, m, p) == _prefix(expected[kernel, h, m], p)
        assert cache.bits == _charged_bits(cache) <= dc_sums.MOMENT_CACHE_BITS
    assert cache.misses > 2 * len(expected) and len(cache.entries) < len(expected) / 4
    assert cache.hits > 0


def test_a_moment_entry_above_the_budget_is_returned_unstored(monkeypatch):
    monkeypatch.setattr(dc_sums, "MOMENT_CACHE_BITS", 5_000)
    cache = dc_sums._MomentCache()
    assert cache.read(SINGLE, 3, 5, 1) == _prefix(single_moments_by_term(3, 5, 1), 1)
    assert len(cache.entries) == 1
    moments = cache.read(DOUBLE, 21, 23, 8)
    assert moments == _prefix(double_moments_by_term(21, 23, 8)[0], 8)
    # The larger entry is not stored, and it evicts nothing.
    assert list(cache.entries) == [(SINGLE, 3, 5)] and cache.bits == _charged_bits(cache)
    # Nor does a higher degree that outgrows the budget keep the old entry.
    cache.read(SINGLE, 3, 5, 20)
    assert not cache.entries and cache.bits == 0


def test_the_moment_cache_evicts_the_least_recently_read_entry(monkeypatch):
    monkeypatch.setattr(dc_sums, "MOMENT_CACHE_BITS", 7_000)  # two entries at degree 1
    cache = dc_sums._MomentCache()
    for h, m in [(3, 5), (5, 3), (3, 5), (7, 3)]:
        cache.read(SINGLE, h, m, 1)
    assert list(cache.entries) == [(SINGLE, 3, 5), (SINGLE, 7, 3)]
    assert (cache.hits, cache.misses) == (1, 3)


def test_threads_keep_the_moment_cache_within_its_bound(monkeypatch):
    monkeypatch.setattr(dc_sums, "MOMENT_CACHE_BITS", 12_000)
    cache = dc_sums._MomentCache()
    expected = {(h, m): single_moments_by_term(h, m, 6) for h in (1, 3, 5, 7) for m in (3, 5, 9)}
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(4000):
                (h, m), p = rng.choice(list(expected)), rng.randrange(7)
                assert cache.read(SINGLE, h, m, p) == _prefix(expected[h, m], p)
        except BaseException as error:  # reported by the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert cache.hits + cache.misses == 8 * 4000
    assert cache.bits == _charged_bits(cache) <= dc_sums.MOMENT_CACHE_BITS


def test_a_returned_moment_list_cannot_change_the_cache():
    made = []

    def kernel(h, m, degree):
        made.append(dc_sums._single_moments(h, m, degree))
        return made[-1]

    cache = dc_sums._MomentCache()
    expected = _prefix(single_moments_by_term(3, 7, 6), 6)
    moments = cache.read(kernel, 3, 7, 6)
    made[0][0] += 1  # the kernel's own list is not what the cache holds
    with pytest.raises(TypeError):
        moments[0] = 0
    assert cache.read(kernel, 3, 7, 6) == expected
    assert cache.read(kernel, 3, 7, 2) == _prefix(expected, 2)
    assert len(made) == 1


def test_each_moment_entry_holds_p_plus_one_integers_per_list(moment_cache):
    for k in (-1, 2):
        for p in (1, 4, 3):
            assert reciprocity_sides(k, p, 5, 9).holds
            assert corollary15_sides(p, 7, 3).holds
    # Both kernels are read at each pair and at its mirror.
    assert set(moment_cache.entries) == {
        (kernel, *pair)
        for pair in [(5, 9), (9, 5), (7, 3), (3, 7)]
        for kernel in (SINGLE, DOUBLE)
    }
    for moments, bits in moment_cache.entries.values():
        assert type(moments) is tuple and len(moments) == 5
        assert all(type(v) is int for v in moments)
    assert moment_cache.bits == _charged_bits(moment_cache)


def test_moment_cache_info_counts_entries_bits_hits_and_misses(moment_cache):
    assert dc_sums.moment_cache_info() == (0, 0, 0, 0)
    reciprocity_sides(2, 4, 5, 7)  # single and double, each at (5, 7) and (7, 5)
    info = dc_sums.moment_cache_info()
    assert info == (4, _charged_bits(moment_cache), 0, 4)
    reciprocity_sides(-3, 2, 5, 7)  # every degree-2 read is a prefix
    assert dc_sums.moment_cache_info() == (4, info.bits, 4, 4)
    reciprocity_sides(0, 6, 5, 7)  # above the stored degree: replaced
    replaced = dc_sums.moment_cache_info()
    assert replaced == (4, _charged_bits(moment_cache), 4, 8) and replaced.bits > info.bits


@pytest.mark.parametrize("h, m", [(5, 7), (3, 9), (1, 11), (15, 21)])
def test_a_mirrored_reciprocity_point_reads_only_cached_moments(moment_cache, h, m):
    # The right side reads A at (h, m) and B as A at (m, h), the left side S
    # at both, so the mirror (m, h) needs no kernel run.
    assert reciprocity_sides(2, 5, h, m).holds
    misses = moment_cache.misses
    assert reciprocity_sides(2, 5, m, h).holds and corollary15_sides(5, m, h).holds
    assert moment_cache.misses == misses


def test_a_long_sweep_keeps_the_moment_cache_within_its_bound(monkeypatch, moment_cache):
    # With room for a few entries at p = 8, the sweep evicts throughout.
    monkeypatch.setattr(dc_sums, "MOMENT_CACHE_BITS", 60_000)
    read, peak = moment_cache.read, []

    def bounded_read(*args):
        moments = read(*args)
        peak.append(moment_cache.bits)
        return moments

    monkeypatch.setattr(moment_cache, "read", bounded_read)
    moduli = [1, 3, 33, 67, 97, 99]
    result = identity_suite.sweep(
        "thm14", {"k": [-1, 1, 2], "p": range(1, 9), "h": moduli, "m": moduli}
    )
    assert result.passed == result.total == 3 * 8 * 36
    assert max(peak) <= dc_sums.MOMENT_CACHE_BITS and len(peak) == 4 * result.total
    assert moment_cache.misses > result.total and len(moment_cache.entries) < 2 * 36
    assert moment_cache.bits == _charged_bits(moment_cache)


def test_the_moment_cache_holds_a_k_slice_of_the_54_point_grid(moment_cache):
    # The sweep runs k outermost: with every (h, m) of one k resident, each
    # moment list is computed once, at p = 6, for all six k.  Both kernels are
    # read at the 17 distinct pairs (h, m) and (m, h) ((97, 97) is its own
    # mirror), four reads per point.
    grid = {"k": range(-2, 4), "p": [6], "h": [95, 97, 99], "m": [89, 91, 97]}
    assert identity_suite.sweep("thm14", grid).passed == 54
    info = dc_sums.moment_cache_info()
    assert info.misses == info.entries == 17 + 17 and info.hits == 4 * 54 - info.misses


def test_an_ascending_sweep_misses_once_per_kernel_and_pair(moment_cache):
    # The sweep runs from the top of its grid down, so each moment list is
    # first read at p = 8 and every lower degree reads a prefix of it.  Both
    # kernels are read at the 6 pairs (h, m) and their 5 other mirrors.
    grid = {"k": [1], "p": range(1, 9), "h": [3, 5, 7], "m": [7, 9]}
    result = identity_suite.sweep("thm14", grid)
    assert result.passed == result.total == 8 * 3 * 2
    info = dc_sums.moment_cache_info()
    assert info.misses == info.entries == 2 * 11 and info.hits == 4 * 48 - info.misses
    points = [tuple(report.params.values()) for report in result.reports]
    assert points == sorted(points) == list(product(*grid.values()))


THM13 = dc_sums._theorem13_moments
#: The catalogue's thm13 grid: k −2..3, p 1..6, h ≤ 9, odd m ≤ 9, gcd(h, m) = 1.
#: Its 37 pairs (h, m) and j = p - t ≤ 6 give 259 thm13 moment lists.
THM13_GRID = [
    (k, p, h, m)
    for k, p, h, m in product(range(-2, 4), range(1, 7), range(1, 10), range(1, 10, 2))
    if gcd(h, m) == 1
]


@pytest.fixture(scope="module")
def thm13_lhs():
    """`theorem13_lhs_by_term` at every point of the thm13 grid."""
    return {point: theorem13_lhs_by_term(*point) for point in THM13_GRID}


def test_theorem13_lhs_from_a_cold_moment_cache(monkeypatch, thm13_lhs):
    # Each point reads a fresh cache, so each of its p + 1 reads runs the kernel.
    for point in THM13_GRID:
        cache = dc_sums._MomentCache()
        monkeypatch.setattr(dc_sums, "_MOMENT_CACHE", cache)
        assert theorem13_sides(*point).lhs == thm13_lhs[point], point
        assert (cache.hits, cache.misses) == (0, point[1] + 1)


def test_theorem13_lhs_from_moments_stored_at_another_k_and_a_higher_p(monkeypatch, thm13_lhs):
    # Another k stored each list at a higher degree, so every read is a prefix.
    for k, p, h, m in THM13_GRID:
        cache = dc_sums._MomentCache()
        monkeypatch.setattr(dc_sums, "_MOMENT_CACHE", cache)
        theorem13_sides(k + 1, p + 2, h, m)
        misses = cache.misses
        assert theorem13_sides(k, p, h, m).lhs == thm13_lhs[k, p, h, m], (k, p, h, m)
        assert (cache.hits, cache.misses) == (p + 1, misses)


def test_theorem13_lhs_through_moment_cache_eviction(monkeypatch, moment_cache, thm13_lhs):
    # The budget holds the lists of about one pair (h, m), at most 25,403
    # bits at p = 6: the points of a pair read them, the next pair evicts them.
    monkeypatch.setattr(dc_sums, "MOMENT_CACHE_BITS", 30_000)
    for point in sorted(THM13_GRID, key=lambda point: point[2:]):
        assert theorem13_sides(*point).lhs == thm13_lhs[point], point
        assert moment_cache.bits == _charged_bits(moment_cache) <= dc_sums.MOMENT_CACHE_BITS
    assert len(moment_cache.entries) < 259 / 10 and moment_cache.hits > 0


def test_the_three_moment_kernels_never_share_a_key(moment_cache, thm13_lhs):
    # thm13 and thm14 read the same (h, m) in turn from one cache, and every
    # entry holds its own kernel's moments at its own point.
    for k, p, h, m in THM13_GRID:
        if h % 2:
            assert theorem13_sides(k, p, h, m).lhs == thm13_lhs[k, p, h, m], (k, p, h, m)
            assert reciprocity_sides(k, p, h, m).holds, (k, p, h, m)
    assert {key[0] for key in moment_cache.entries} == {SINGLE, DOUBLE, THM13}
    for (kernel, h, m, *extra), (moments, _) in moment_cache.entries.items():
        assert moments == tuple(kernel(h, m, len(moments) - 1, *extra)), (kernel, h, m, extra)


def test_a_thm13_sweep_at_another_k_reads_only_cached_moments(moment_cache):
    # The moments do not depend on k: the first sweep computes each of the
    # 259 lists once, at its top degree, and the second computes none.
    first = identity_suite.sweep(
        "thm13", {"k": [3], "p": range(1, 7), "h": range(1, 10), "m": range(1, 10, 2)}
    )
    info = dc_sums.moment_cache_info()
    assert info.misses == info.entries == 259
    second = identity_suite.sweep(
        "thm13", {"k": [-2], "p": range(1, 7), "h": range(1, 10), "m": range(1, 10, 2)}
    )
    assert first.passed == second.passed == first.total == second.total == 37 * 6
    after = dc_sums.moment_cache_info()
    reads = 37 * sum(p + 1 for p in range(1, 7))
    assert (after.misses, after.hits) == (info.misses, info.hits + reads)


def test_theorem13_lhs_at_h_far_above_m(monkeypatch, moment_cache):
    # The kernel evaluates E_j(h - d) once for each d = floor(hμ/m) of μ < m,
    # at most min(h, m) of them, and not for every d < h.
    for point in product((-1, 2), (1, 4, 6), range(1, 61), (1, 3, 5)):
        if gcd(point[2], point[3]) == 1:
            assert theorem13_sides(*point).lhs == theorem13_lhs_by_term(*point), point
    evaluated = []

    def counted(numerators, a, b=1):
        evaluated.append(a)
        return horner(numerators, a, b)

    monkeypatch.setattr(dc_sums, "horner", counted)
    for h, m in [(100, 1), (100, 3), (60, 5), (7, 9)]:
        evaluated.clear()
        THM13(h, m, 2, 3)
        assert sorted(evaluated) == sorted({h - h * mu // m for mu in range(m)}), (h, m)


# --- properties beyond the acceptance grid ------------------------------------

odd_moduli = st.integers(min_value=6, max_value=12).map(lambda v: 2 * v + 1)  # 13..25


@given(k=st.integers(-4, 5), p=st.integers(1, 8), h=odd_moduli, m=odd_moduli)
@settings(max_examples=50, deadline=None)
def test_reciprocity_holds_beyond_the_acceptance_grid(k, p, h, m):
    assert verify("thm14", {"k": k, "p": p, "h": h, "m": m}).holds


@given(
    k=st.integers(-4, 5),
    p=st.integers(1, 8),
    h=st.integers(1, 25),
    m=st.integers(5, 12).map(lambda v: 2 * v + 1),  # 11..25
)
@settings(max_examples=50, deadline=None)
def test_coprime_expansion_holds_beyond_the_acceptance_grid(k, p, h, m):
    assume(gcd(h, m) == 1)
    assert verify("thm13", {"k": k, "p": p, "h": h, "m": m}).holds


@given(p=st.integers(1, 8), h=odd_moduli, m=odd_moduli)
@settings(max_examples=50, deadline=None)
def test_classical_reciprocity_holds_beyond_the_acceptance_grid(p, h, m):
    assert verify("cor15", {"p": p, "h": h, "m": m}).holds


@given(p=st.integers(1, 10), h=odd_moduli, m=odd_moduli)
@settings(max_examples=50, deadline=None)
def test_closed_form_reciprocity_holds_beyond_the_acceptance_grid(p, h, m):
    assume(gcd(h, m) == 1)
    assert verify("recip_closed_form", {"p": p, "h": h, "m": m}).holds


odd_degrees = st.integers(1, 5).map(lambda v: 2 * v + 1)  # 3..11
odd_to_41 = st.integers(0, 20).map(lambda v: 2 * v + 1)


@given(k=st.integers(-4, 6), p=st.integers(1, 11), m=odd_to_41)
@settings(max_examples=50, deadline=None)
def test_s_pk_closed_form_holds_beyond_the_acceptance_grid(k, p, m):
    assert verify("thm10", {"k": k, "p": p, "m": m}).holds


@given(k=st.integers(-4, 6), p=odd_degrees, m=odd_to_41)
@settings(max_examples=50, deadline=None)
def test_odd_degree_expansions_hold_beyond_the_acceptance_grid(k, p, m):
    assert verify("thm11", {"k": k, "p": p, "m": m}).holds
    assert verify("thm12", {"k": k, "p": p, "m": m}).holds


@given(p=st.integers(1, 8), h=st.integers(13, 25), m=st.integers(13, 25))
@settings(max_examples=50, deadline=None)
def test_index_one_collapse_holds_beyond_the_acceptance_grid(p, h, m):
    assert verify("k1_collapse", {"p": p, "h": h, "m": m}).holds

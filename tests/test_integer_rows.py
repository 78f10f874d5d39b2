"""The polynomial identities on integer rows, against the Fraction routes they replaced.

`eq18`, `thm3`, `thm6`, `cor7` and `oracle_equivalence` compare integer rows
built by the one row kernel, `distributed_combination`, which combines the
terms first and distributes once.  The references here expand every
distribution term p((x + s)/m) by affine substitution (`affine_distribution`),
assemble with `poly_combination` over the `Fraction` Theorem 3 weights (all
three from `tests/oracles.py`), and pick the witness with the `Fraction`
witness the row witness replaced; none of them shares a kernel with the
served rows.  The grids (k -4..5, n <= 15, odd m <= 13) are wider than the
acceptance grids.  The per-row integer route the kernel replaced, one
distribution per term and then the combination (`per_row_theorem3`), is the
differential oracle of `theorem3_combination` on wider grids still (n <= 40,
odd m <= 15, and |k| = 16 at n = 60 and 100).
"""

from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydc import identity_suite
from polydc.dc_sums import IdentitySides
from polydc.exact_algebra import (
    IntegerRow,
    distributed_combination,
    poly_eval,
    poly_normalize,
)
from polydc.identity_suite import verify
from polydc.sequences import (
    euler_poly,
    euler_poly_row,
    genocchi_poly,
    genocchi_poly_row,
    poly_euler_poly,
    poly_euler_poly_row,
    poly_euler_via_corollary7,
    poly_euler_via_theorem3,
    poly_genocchi_poly,
    theorem3_combination,
)

from oracles import (
    affine_distribution,
    integer_coefficients,
    per_row_theorem3,
    poly_combination,
    row_distribution,
    theorem3_weights,
)

INDICES = range(-4, 6)
DEGREES = range(16)
ODD_MODULI = range(1, 14, 2)

FAMILIES = {
    "euler": (euler_poly, euler_poly_row),
    "genocchi": (genocchi_poly, genocchi_poly_row),
    **{
        f"poly-euler-k{k}": (partial(poly_euler_poly, k), partial(poly_euler_poly_row, k))
        for k in INDICES
    },
}


@cache
def reference_distribution(family: str, n: int, m: int) -> tuple[Fraction, ...]:
    """`affine_distribution` of the family's degree-n member, kept per (family, n, m)."""
    return tuple(affine_distribution(FAMILIES[family][0](n), m))


def reference_theorem3(k, n):
    return poly_combination(zip(theorem3_weights(k, n), map(euler_poly, range(n + 1))))


def reference_corollary7(k, n, m):
    return poly_combination(
        (a * m**l, list(reference_distribution("euler", l, m)))
        for l, a in enumerate(theorem3_weights(k, n))
    )


def reference_theorem6(k, n, m):
    return poly_combination(
        (a * Fraction(m**l, m), list(reference_distribution("genocchi", l, m)))
        for l, a in enumerate(theorem3_weights(k, n))
    )


def fraction_witness(lhs_poly, rhs_poly):
    """The Fraction witness the row witness replaced, kept as its oracle."""
    lhs_poly = poly_normalize(lhs_poly)
    rhs_poly = poly_normalize(rhs_poly)
    if lhs_poly == rhs_poly:
        value = poly_eval(lhs_poly, Fraction(1))
        return IdentitySides.compare(value, value)
    diff = poly_combination([(1, lhs_poly), (-1, rhs_poly)])
    for x in map(Fraction, range(len(diff) + 1)):
        if poly_eval(diff, x) != 0:
            return IdentitySides.compare(poly_eval(lhs_poly, x), poly_eval(rhs_poly, x))
    raise RuntimeError("unequal polynomials with no witness point")


def as_row(poly) -> IntegerRow:
    numerators, den = integer_coefficients(poly)
    return IntegerRow(tuple(numerators), den)


# --- the kernels ----------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_row_distribution_matches_the_affine_reference(family):
    poly, row = FAMILIES[family]
    for n in DEGREES:
        degree = len(poly(n)) - 1
        for m in [*ODD_MODULI, 2, 4]:
            served = distributed_combination([(1, row(n))], m)
            expected = [c * m**degree for c in reference_distribution(family, n, m)]
            assert served.fractions() == expected, (family, n, m)
            assert served.den == row(n).den


small_rows = st.lists(st.integers(-50, 50), min_size=1, max_size=8).flatmap(
    lambda numerators: st.integers(1, 12).map(lambda den: IntegerRow(tuple(numerators), den))
)


@given(st.lists(st.tuples(st.integers(-9, 9), small_rows), max_size=5))
@settings(deadline=None)
def test_row_combination_matches_poly_combination(terms):
    served = distributed_combination(terms, 1)
    expected = poly_combination((c, row.fractions()) for c, row in terms)
    assert served.fractions() == expected
    assert served == served.trimmed()


def test_row_helpers():
    row = IntegerRow((3, -1, 2, 0, 0), 6)
    assert row.trimmed() == IntegerRow((3, -1, 2), 6)
    assert IntegerRow((0, 0), 5).trimmed() == IntegerRow((0,), 5)
    assert [row.value_at(x) for x in range(3)] == [Fraction(3, 6), Fraction(4, 6), Fraction(9, 6)]
    assert row.trimmed().fractions() == [Fraction(1, 2), Fraction(-1, 6), Fraction(1, 3)]


@given(small_rows, st.integers(1, 13))
@settings(deadline=None)
def test_row_distribution_matches_the_affine_reference_on_random_rows(row, m):
    poly = row.fractions()
    expected = [c * m ** (len(poly) - 1) for c in affine_distribution(poly, m)]
    assert distributed_combination([(1, row)], m).fractions() == expected


def _mixed_rows(size: int) -> st.SearchStrategy[IntegerRow]:
    """Rows of 1..size numerators over denominators 1..36, trailing zeros allowed."""
    return st.lists(st.integers(-60, 60), min_size=1, max_size=size).flatmap(
        lambda numerators: st.integers(1, 36).map(lambda den: IntegerRow(tuple(numerators), den))
    )


@given(st.lists(st.tuples(st.integers(-9, 9), _mixed_rows(9)), max_size=6), st.integers(1, 12))
@settings(deadline=None)
def test_distributed_combination_matches_the_affine_reference_on_many_terms(terms, m):
    # Rows of mixed degree and denominator; m = 1 is the plain combination,
    # and an even m is a valid input of the kernel.
    served = distributed_combination(terms, m)
    expected = poly_combination(
        (c * m ** (len(row.numerators) - 1), affine_distribution(row.fractions(), m))
        for c, row in terms
    )
    assert served.fractions() == expected
    assert served == served.trimmed()


# --- the Theorem 3, Corollary 7 and Theorem 6 rows ----------------------------------

#: The rows that theorem3_combination reads for Corollary 7 and Theorem 6.
ROW_FAMILIES = {"euler": euler_poly_row, "genocchi": genocchi_poly_row}


@cache
def per_row_distribution(family: str, l: int, m: int) -> IntegerRow:
    """The per-row route's distribution of the family's degree-l row, kept per (family, l, m)."""
    return row_distribution(ROW_FAMILIES[family](l), m)


def assert_matches_the_per_row_route(k, n, m):
    for family, rows in ROW_FAMILIES.items():
        expected = per_row_theorem3(k, n, partial(per_row_distribution, family, m=m))
        assert theorem3_combination(k, n, rows, m) == expected, (family, k, n, m)


@pytest.mark.parametrize("k", INDICES)
def test_theorem3_combination_matches_the_per_row_route(k):
    for n in range(41):
        for m in range(1, 16, 2):
            assert_matches_the_per_row_route(k, n, m)


@pytest.mark.parametrize("k", [-16, 16])
@pytest.mark.parametrize("n", [60, 100])
def test_theorem3_combination_matches_the_per_row_route_at_the_index_cap(k, n):
    for m in (3, 99):
        assert_matches_the_per_row_route(k, n, m)


@pytest.mark.parametrize("k", INDICES)
def test_theorem3_rows_match_the_fraction_route(k):
    for n in DEGREES:
        expected = reference_theorem3(k, n)
        assert theorem3_combination(k, n, euler_poly_row, 1).fractions() == expected, (k, n)
        assert poly_euler_via_theorem3(k, n) == expected, (k, n)


@pytest.mark.parametrize("k", INDICES)
def test_corollary7_rows_match_the_fraction_route(k):
    for n in DEGREES:
        for m in ODD_MODULI:
            expected = reference_corollary7(k, n, m)
            served = theorem3_combination(k, n, euler_poly_row, m)
            assert served.fractions() == expected, (k, n, m)
            assert poly_euler_via_corollary7(k, n, m) == expected, (k, n, m)


#: Each polynomial verifier's expected report along the reference routes.
REFERENCE_REPORTS = {
    "thm3": lambda k, n, m: fraction_witness(poly_euler_poly(k, n), reference_theorem3(k, n)),
    "cor7": lambda k, n, m: fraction_witness(
        poly_euler_poly(k, n), reference_corollary7(k, n, m)
    ),
    "thm6": lambda k, n, m: fraction_witness(
        poly_genocchi_poly(k, n), reference_theorem6(k, n, m)
    ),
}


@pytest.mark.parametrize("verifier_id", ["thm3", "cor7", "thm6", "oracle_equivalence"])
@pytest.mark.parametrize("k", INDICES)
def test_polynomial_verifiers_report_what_the_fraction_routes_report(verifier_id, k):
    for n in DEGREES:
        for m in [None] if verifier_id == "thm3" else ODD_MODULI:
            if verifier_id == "oracle_equivalence":
                expected = REFERENCE_REPORTS["thm3"](k, n, m)
                if expected.holds:
                    expected = REFERENCE_REPORTS["cor7"](k, n, m)
            else:
                expected = REFERENCE_REPORTS[verifier_id](k, n, m)
            params = {"k": k, "n": n} if m is None else {"k": k, "n": n, "m": m}
            report = verify(verifier_id, params)
            assert (report.lhs, report.rhs, report.holds) == expected, params
            assert expected.holds, params


def test_distribution_relation_reports_what_the_fraction_route_reports():
    for n in DEGREES:
        for m in ODD_MODULI:
            base = euler_poly(n)
            expected = fraction_witness(
                base, [c * m**n for c in reference_distribution("euler", n, m)]
            )
            report = verify("eq18", {"n": n, "m": m})
            assert (report.lhs, report.rhs, report.holds) == expected, (n, m)


# --- the witness -------------------------------------------------------------------

fraction_polys = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1, max_size=7
)


def _scaled(row: IntegerRow, factor: int, zeros: int) -> IntegerRow:
    """The same polynomial over factor·den, with zeros trailing zero numerators."""
    return IntegerRow(tuple(c * factor for c in row.numerators) + (0,) * zeros, row.den * factor)


@given(fraction_polys, fraction_polys, st.integers(1, 5), st.integers(0, 2))
@settings(deadline=None)
def test_row_witness_matches_the_fraction_witness_on_unequal_pairs(lhs, rhs, factor, zeros):
    assume(poly_normalize(lhs) != poly_normalize(rhs))
    served = identity_suite._row_witness(_scaled(as_row(lhs), factor, zeros), as_row(rhs))
    assert served == fraction_witness(lhs, rhs)
    assert not served.holds


@given(fraction_polys, st.integers(1, 5), st.integers(0, 2))
@settings(deadline=None)
def test_row_witness_matches_the_fraction_witness_on_equal_pairs(poly, factor, zeros):
    served = identity_suite._row_witness(as_row(poly), _scaled(as_row(poly), factor, zeros))
    assert served == fraction_witness(poly, poly)
    assert served.holds


def test_row_witness_picks_the_first_integer_where_rows_differ():
    # x·(x - 1) vanishes at 0 and 1, so the witness point is x = 2.
    served = identity_suite._row_witness(IntegerRow((0, -1, 1), 1), IntegerRow((0,), 1))
    assert served == IdentitySides.compare(Fraction(2), Fraction(0))

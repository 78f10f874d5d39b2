"""Machine verification of the identity catalogue.

Every identity is registered under a stable verifier id as an exact compute
function declared by its hypotheses (a `dc_sums.Hypotheses`: one predicate
per constrained parameter plus a coprimality flag, applied as a decorator).
The identities of `dc_sums` are registered themselves, the rest as
`Hypotheses(...)(_compute_*)`.  Each keeps `hypotheses`, `params` (the order
of parameters in reports and sweeps), `checks` and `check` (the hypotheses
by position in `params`) and `__wrapped__` (the unchecked body).  `verify`
and `sweep` share one check of names and integer values.  `verify` runs
`check`, then `__wrapped__`, and returns a report whose `holds` field is
exact rational equality — never approximate.  `sweep` filters each axis of
a grid once by the rules of one parameter and each remaining point by those
relating two, runs `__wrapped__` on the admissible points and returns their
reports in lexicographic order with the *complete* list of failing points.

For identities between polynomials, `holds` means coefficientwise equality of
the two polynomials; the scalar lhs/rhs fields of the report are then the two
polynomials evaluated at a common witness point (x = 1 when they agree, the
first integer where they differ otherwise), so `holds == (lhs == rhs)` still
holds for every report.  These identities (`eq18`, `thm3`, `thm6`, `cor7`,
`oracle_equivalence`) are checked end to end on integer rows: both sides are
an `IntegerRow` of the cached polynomials, the Theorem 3 weights and one
call of the row kernel `distributed_combination`, compared by
cross-multiplication, and only the two witness values are built as
Fractions.

The `sawtooth_t1_exploratory` verifier is expected to fail at some points:
it documents a genuine mismatch between the degree-1 sum and its sawtooth
rewriting (see README) and is quarantined from pass/fail gating by
`EXPLORATORY_IDS`.
"""

import time
from fractions import Fraction
from itertools import chain, product
from math import comb, prod
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .dc_sums import (
    BELOW_P,
    GE,
    ODD_POS,
    Hypotheses,
    IdentitySides,
    Params,
    corollary15_sides,
    dc_sum,
    k1_collapse_sides,
    reciprocity_closed_form_sides,
    reciprocity_sides,
    s_pk_of_1_m,
    theorem11_sides,
    theorem12_sides,
    theorem13_sides,
)
from .exact_algebra import IntegerRow, alternating_power_sums, distributed_combination
from .sequences import (
    euler_poly_row,
    genocchi_poly_row,
    poly_euler_poly_row,
    poly_genocchi_poly_row,
    sawtooth,
    stirling_weights,
    theorem3_combination,
    theorem3_integer_weights,
)


class VerificationReport(NamedTuple):
    """Outcome of one verifier at one parameter point (exact arithmetic)."""

    verifier: str
    params: dict[str, int]
    lhs: Fraction
    rhs: Fraction
    holds: bool
    elapsed: float


class SweepResult(NamedTuple):
    """Aggregate of a verifier over a full parameter grid.

    `failing` is never truncated; `reports` keeps every admissible point in
    canonical (lexicographic by parameter tuple) order.
    """

    verifier: str
    param_names: tuple[str, ...]
    total: int
    passed: int
    failed: int
    failing: list[VerificationReport]
    reports: list[VerificationReport]
    elapsed: float


#: The most parameter points a sweep grid may span; larger grids are rejected.
MAX_SWEEP_POINTS = 100_000


def brute_alternating_power_sum(n: int, l: int) -> Fraction:
    """2·Σ_{j=0..n-1} (-1)^j j^l by direct summation, with 0^0 = 1."""
    if n < 1 or l < 0:
        raise ValueError("requires n >= 1 and l >= 0")
    return Fraction(2 * sum((-1) ** j * j**l for j in range(n)))


def _row_witness(lhs: IntegerRow, rhs: IntegerRow) -> IdentitySides:
    """Scalar sides for a polynomial identity between two integer rows,
    preserving holds ⇔ lhs = rhs.

    The rows are equal when their trimmed numerators agree after each is
    multiplied by the other row's denominator; both sides are then the value
    at 1, the sum of the numerators over the denominator.  Unequal rows are
    evaluated, by `IntegerRow.value_at`, at the first integer x >= 0 where they
    differ (a nonzero polynomial of degree d cannot vanish at d+1 distinct
    points, so the search always terminates).
    """
    lhs, rhs = lhs.trimmed(), rhs.trimmed()
    (a, a_den), (b, b_den) = lhs, rhs
    if len(a) == len(b) and all(p * b_den == q * a_den for p, q in zip(a, b)):
        value = Fraction(sum(a), a_den)
        return IdentitySides.compare(value, value)
    for x in range(max(len(a), len(b)) + 1):
        left, right = lhs.value_at(x), rhs.value_at(x)
        if left != right:
            return IdentitySides.compare(left, right)
    raise RuntimeError("unequal polynomials with no witness point")


# --- compute functions -----------------------------------------------------


def _eq4_side(row: IntegerRow, x: int) -> Fraction:
    """E(0) + (-1)^(x-1)·E(x) for the polynomial E of the row at the integer x,
    the side of eq. (4); E(0) is the constant term (E_n = E_n(0), G_n^(k) = G_n^(k)(0))."""
    value = row.value_at(x)
    return Fraction(row.numerators[0], row.den) + (value if x % 2 else -value)


def _compute_eq4(n: int, l: int) -> IdentitySides:
    lhs = brute_alternating_power_sum(n, l)
    return IdentitySides.compare(lhs, _eq4_side(euler_poly_row(l), n))


def _compute_eq18(n: int, m: int) -> IdentitySides:
    # E_n(x) has degree n, so the kernel's m^n is the m^n of the relation.
    base = euler_poly_row(n)
    return _row_witness(base, distributed_combination([(1, base)], m))


def _compute_thm1(n: int, k: int) -> IdentitySides:
    lhs = 2 * stirling_weights(k, n)[n]
    numerators, den = poly_genocchi_poly_row(k, n)  # G_n^(k) is the constant term
    return IdentitySides.compare(lhs, Fraction(sum(numerators) + numerators[0], den))


def _at_one(k: int, n: int) -> Fraction:
    """E_n^(k)(1): the sum of the integer row of E_n^(k)(x) over its denominator."""
    numerators, den = poly_euler_poly_row(k, n)
    return Fraction(sum(numerators), den)


def _compute_cor2(n: int, k: int) -> IdentitySides:
    lhs = Fraction(2, n) * stirling_weights(k, n)[n]
    numerators, den = poly_euler_poly_row(k, n - 1)  # E_{n-1}^(k) is the constant term
    return IdentitySides.compare(lhs, Fraction(sum(numerators) + numerators[0], den))


def _compute_thm3(k: int, n: int) -> IdentitySides:
    return _row_witness(poly_euler_poly_row(k, n), theorem3_combination(k, n, euler_poly_row, 1))


def _alternating_moment_sum(x: int, n: int, k: int) -> Fraction:
    """Σ_l a_l P_l: the Theorem 3 weights a_l of degree n - 1 against P_l = Σ_{i<x} (-1)^i i^l.

    n times it is the moment sum Σ_{m=1..n} C(n,m) w_m(k) P_{n-m} of Theorem 4.
    """
    power_sums = alternating_power_sums(x, n - 1)
    weights, den = theorem3_integer_weights(k, n - 1)
    return Fraction(sum(a * s for a, s in zip(weights, power_sums)), den)


def _compute_thm4(x: int, n: int, k: int) -> IdentitySides:
    lhs = _eq4_side(poly_genocchi_poly_row(k, n), x)
    return IdentitySides.compare(lhs, 2 * n * _alternating_moment_sum(x, n, k))


def _compute_cor5(x: int, n: int, k: int) -> IdentitySides:
    lhs = _eq4_side(poly_euler_poly_row(k, n - 1), x)
    return IdentitySides.compare(lhs, 2 * _alternating_moment_sum(x, n, k))


def _compute_thm6(k: int, n: int, m: int) -> IdentitySides:
    # G_l(x) has degree l - 1 (and G_0 = 0), so the kernel's m^(l-1) is the
    # m^l/m of Theorem 6.
    rhs = theorem3_combination(k, n, genocchi_poly_row, m)
    return _row_witness(poly_genocchi_poly_row(k, n), rhs)


def _compute_cor7(k: int, n: int, m: int) -> IdentitySides:
    # E_l(x) has degree l, so the kernel's m^l is the m^l of Corollary 7.
    return _row_witness(poly_euler_poly_row(k, n), theorem3_combination(k, n, euler_poly_row, m))


def _compute_lemma8(k: int, p: int, s: int) -> IdentitySides:
    # The x^(p-ν) coefficient of E_p^(k)(x) is C(p,ν)·E_ν^(k).
    numerators, den = poly_euler_poly_row(k, p)
    lhs = Fraction(sum(comb(p - nu + 1, s) * numerators[p - nu] for nu in range(p + 1)), den)
    rhs = comb(p, s) * _at_one(k, p - s) + comb(p, s - 1) * _at_one(k, p - s + 1)
    return IdentitySides.compare(lhs, rhs)


def _compute_lemma9(k: int, p: int) -> IdentitySides:
    # Σ_ν C(p,ν) E_ν^(k)/(p-ν+2) equals ∫_0^1 x·E_p^(k)(x) dx expanded
    # binomially; the x^(p-ν) coefficient of E_p^(k)(x) is C(p,ν)·E_ν^(k), so
    # the sum reads the row of degree p, which the right side does not read.
    numerators, den = poly_euler_poly_row(k, p)
    lhs = sum((Fraction(c, i + 2) for i, c in enumerate(numerators)), Fraction(0)) / den
    # (E_{p+2}^(k) - E_{p+2}^(k)(1)) over the row of E_{p+2}^(k)(x).
    numerators, den = poly_euler_poly_row(k, p + 2)
    rhs = _at_one(k, p + 1) / (p + 1) + Fraction(
        numerators[0] - sum(numerators), den * (p + 1) * (p + 2)
    )
    return IdentitySides.compare(lhs, rhs)


def _compute_eq40(k: int) -> IdentitySides:
    numerators, den = poly_euler_poly_row(k, 1)
    return IdentitySides.compare(Fraction(sum(numerators) - numerators[0], den), Fraction(1))


def _compute_oracle_equivalence(k: int, n: int, m: int) -> IdentitySides:
    sides = _compute_thm3(k, n)
    return _compute_cor7(k, n, m) if sides.holds else sides


def _compute_sawtooth_exploratory(h: int, m: int) -> IdentitySides:
    lhs = dc_sum(1, h, m)
    rhs = 2 * sum(
        (
            (-1) ** mu * sawtooth(Fraction(mu, m)) * sawtooth(Fraction(h * mu, m))
            for mu in range(1, m)
        ),
        Fraction(0),
    )
    return IdentitySides.compare(lhs, rhs)


# --- registry --------------------------------------------------------------


#: The distribution relation's hypotheses, shared by eq18, thm6, cor7 and the oracle routes.
_DISTRIBUTION = Hypotheses({"n": GE(0), "m": ODD_POS})

VERIFIERS: dict[str, Callable[..., IdentitySides]] = {
    "eq4": Hypotheses({"n": GE(1), "l": GE(0)})(_compute_eq4),
    "eq18": _DISTRIBUTION(_compute_eq18),
    "thm1": Hypotheses({"n": GE(1)})(_compute_thm1),
    "cor2": Hypotheses({"n": GE(1)})(_compute_cor2),
    "thm3": Hypotheses({"n": GE(0)})(_compute_thm3),
    "thm4": Hypotheses({"x": GE(1), "n": GE(1)})(_compute_thm4),
    "cor5": Hypotheses({"x": GE(1), "n": GE(1)})(_compute_cor5),
    "thm6": _DISTRIBUTION(_compute_thm6),
    "cor7": _DISTRIBUTION(_compute_cor7),
    "lemma8": Hypotheses({"s": BELOW_P})(_compute_lemma8),
    "lemma9": Hypotheses({"p": GE(1)})(_compute_lemma9),
    "eq40": Hypotheses({})(_compute_eq40),
    "thm10": s_pk_of_1_m,
    "thm11": theorem11_sides,
    "thm12": theorem12_sides,
    "thm13": theorem13_sides,
    "thm14": reciprocity_sides,
    "cor15": corollary15_sides,
    "recip_closed_form": reciprocity_closed_form_sides,
    "k1_collapse": k1_collapse_sides,
    "oracle_equivalence": _DISTRIBUTION(_compute_oracle_equivalence),
    "sawtooth_t1_exploratory": Hypotheses({"h": ODD_POS, "m": ODD_POS}, coprime=True)(
        _compute_sawtooth_exploratory
    ),
}

VERIFIER_IDS: tuple[str, ...] = tuple(VERIFIERS)

EXPLORATORY_IDS: frozenset[str] = frozenset({"sawtooth_t1_exploratory"})


def hypotheses_text(verifier_id: str) -> str:
    """The verifier's hypotheses as the README "Verifiers" table states them."""
    named = _lookup(verifier_id).hypotheses.named()
    text = ", ".join(rule.text.format(name) for name, rule in named) or "—"
    return f"{text} (exploratory)" if verifier_id in EXPLORATORY_IDS else text


def _lookup(verifier_id: str) -> Any:
    try:
        return VERIFIERS[verifier_id]
    except KeyError:
        valid = ", ".join(VERIFIER_IDS)
        raise ValueError(f"unknown verifier {verifier_id!r}; valid ids: {valid}") from None


def _checked(
    verifier_id: str, given: Mapping[str, Any], grid: bool
) -> tuple[Any, dict[str, Any]]:
    """The verifier, and given in the verifier's parameter order.

    given maps each parameter name to its value, or to an iterable of values
    (read once, into a list) if grid is set (a sweep).  Raises ValueError,
    before any point runs, for an unknown id, a missing or unexpected name, or
    a value that is not an int.
    """
    spec = _lookup(verifier_id)
    if given.keys() != set(spec.params):
        missing = [name for name in spec.params if name not in given]
        names = ", ".join(missing or sorted(given.keys() - set(spec.params)))
        if grid:
            problem = "missing ranges for" if missing else "got unexpected ranges"
            raise ValueError(f"sweep of {verifier_id!r} {problem}: {names}")
        problem = "missing parameters" if missing else "got unexpected parameters"
        raise ValueError(f"verifier {verifier_id!r} {problem}: {names}")
    ordered = {name: list(given[name]) if grid else given[name] for name in spec.params}
    if not set(map(type, chain(*ordered.values()) if grid else ordered.values())) <= {int}:
        values = ((n, v) for n, vs in ordered.items() for v in vs) if grid else ordered.items()
        for name, value in values:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"parameter {name!r} must be an integer (got {value!r})")
    return spec, ordered


def verify(verifier_id: str, params: Params) -> VerificationReport:
    """Run one verifier at one parameter point, strictly and exactly.

    Raises ValueError for unknown ids, wrong parameter names, non-integer
    values, or parameter values outside the identity's stated hypotheses.
    """
    spec, point = _checked(verifier_id, params, grid=False)
    values = tuple(point.values())
    spec.check(values)
    start = time.perf_counter()
    lhs, rhs, holds = spec.__wrapped__(*values)
    elapsed = time.perf_counter() - start
    return VerificationReport(verifier_id, point, lhs, rhs, holds, elapsed)


def sweep(verifier_id: str, ranges: Mapping[str, Sequence[int]]) -> SweepResult:
    """Run a verifier over the cartesian product of per-parameter values.

    Values for every declared parameter are required, each an integer as in
    `verify`.  Inadmissible points are filtered out before computing: each
    axis by its parameter's own rule, once per value, then each point by the
    rules relating two parameters.  If nothing admissible remains, that is an
    error, and so is a grid of more than MAX_SWEEP_POINTS points (the product
    of the deduplicated axis lengths), rejected before any point runs.  Points
    run from the top of the grid down, so that each cached moment list is
    first read at the grid's top degree; the reports come in lexicographic
    order of the parameter tuple (parameters in their declared order, values
    ascending), and the result keeps every failing report.
    """
    spec, ordered = _checked(verifier_id, ranges, grid=True)
    axes: list[list[int]] = []
    for name, values in ordered.items():
        values = sorted(set(values))
        if not values:
            raise ValueError(f"empty range for parameter {name!r}")
        axes.append(values)
    points = prod(len(values) for values in axes)
    if points > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep of {verifier_id!r} spans {points} points, more than {MAX_SWEEP_POINTS}"
        )
    start = time.perf_counter()
    for test, _, i, j in spec.checks:
        if j is None:
            axes[i] = [value for value in axes[i] if test(value)]
    points: Iterable[tuple[int, ...]] = product(*(reversed(values) for values in axes))
    for test, _, i, j in spec.checks:
        if j is not None:
            points = [point for point in points if test(point[i], point[j])]
    reports: list[VerificationReport] = []
    for point in points:
        begin = time.perf_counter()
        sides = spec.__wrapped__(*point)
        elapsed = time.perf_counter() - begin
        params = dict(zip(spec.params, point))
        reports.append(VerificationReport(verifier_id, params, *sides, elapsed))
    if not reports:
        raise ValueError(f"sweep of {verifier_id!r} has no admissible parameter points")
    reports.reverse()
    elapsed = time.perf_counter() - start
    failing = [r for r in reports if not r.holds]
    total, failed = len(reports), len(failing)
    return SweepResult(
        verifier_id, spec.params, total, total - failed, failed, failing, reports, elapsed
    )

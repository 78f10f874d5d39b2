"""The reference routes the tests compare served values with.

No served value reads any of them.  All but the per-row route, the
per-term moment loops and the declared checks compute in `Fraction`s, along
a route that shares no kernel with the integer kernel they check:

- `fraction_horner`, Horner's rule on `Fraction`s, for `poly_eval` and the
  one integer Horner loop, `exact_algebra.horner`;
- `poly_combination`, the linear combination of `Fraction` polynomials, and
  `affine_distribution`, the distribution sum with each term p((x + s)/m)
  expanded by affine substitution, for the one row kernel
  `distributed_combination`; `alternating_distribution` is that kernel's
  one-term `Fraction` view;
- the per-row route the row kernel replaced, in integers: one
  `row_distribution` per term, then `row_combination`, and
  `per_row_theorem3`, the Theorem 3 combination along it, for
  `theorem3_combination` at every modulus;
- `integer_coefficients`, a `Fraction` list over its least common
  denominator, for the reduced integer rows of the caches;
- `stirling_weight`, the weight w_n(k) = Σ_j S_1(n, j)/j^(k-1) summed in
  `Fraction`s, for the integer weight rows; `poly_genocchi_sums`, the
  poly-Genocchi numbers Σ_j C(n,j)·w_j(k)·E_{n-j} over it, for the integer
  poly-Genocchi numbers; and `binomial_convolution`, Σ_l C(n,l) a_l x^(n-l)
  in `Fraction`s, for the integer rows of the four polynomial families;
- `theorem3_weights`, the Theorem 3 weights as `Fraction` products over
  `stirling_weight`, for `theorem3_integer_weights`;
- `bar_eval`, the plain 1-periodic extension p(x - floor(x)) by
  `fraction_horner`, for the `bar-*` kinds of `eval` and for
  `alternating_bar_eval`, the sign-alternating periodic extension Ê, which
  agrees with it on [0, 1); `euler_alt_bar`, Ê's memoized value over
  E_n(x), which the defining loops of the DC sums read; and `dc_sum_by_term`,
  the defining loop of T_p(h, m), for the served sums and for T_0, which
  `dc_sum` does not serve;
- `theorem13_lhs_by_term`, the left side of Theorem 13 summed over μ and s
  by `fraction_horner`, for `theorem13_sides`;
- the per-term moment loops, in integers, that `exact_algebra.residue_moments`
  replaced: `alternating_power_sums_by_term`, `single_moments_by_term` and
  `double_moments_by_term` step each term's power through every degree and
  add it there, for `alternating_power_sums` and the single and double
  moments of `dc_sums`;
- `declared_checks`, the hypotheses of a declared identity at a point, in
  declared order, read by name off its `Hypotheses`, for the checks located
  by position that its wrapper, `verify` and `sweep` run; `recorded_checks`
  makes those located checks record each test they run.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, lcm
from typing import Any, Callable, Iterable, Iterator

from polydc.dc_sums import COPRIME
from polydc.exact_algebra import (
    IntegerRow,
    alternating_power_sums,
    distributed_combination,
    poly_affine,
    poly_normalize,
)
from polydc.sequences import (
    euler_numbers,
    euler_poly,
    poly_euler_poly,
    stirling1_row,
    theorem3_integer_weights,
)


def fraction_horner(p: list[Fraction], x: Fraction) -> Fraction:
    """p(x) by Horner's rule on Fractions, one normalising step per coefficient."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def integer_coefficients(poly: list[Fraction]) -> tuple[list[int], int]:
    """The coefficients of poly as integers over their least common denominator."""
    den = lcm(*(c.denominator for c in poly))
    return [c.numerator * (den // c.denominator) for c in poly], den


def poly_combination(terms: Iterable[tuple[Fraction, list[Fraction]]]) -> list[Fraction]:
    """Σ c·p over the (c, p) terms, normalized.

    One integer pass over the common denominator of every product c·p_i, then
    one Fraction per output coefficient.
    """
    scalars = [(Fraction(c), p) for c, p in terms]
    den = lcm(*(c.denominator * a.denominator for c, p in scalars for a in p))
    out = [0] * max((len(p) for _, p in scalars), default=1)
    for c, p in scalars:
        for i, a in enumerate(p):
            out[i] += c.numerator * a.numerator * (den // (c.denominator * a.denominator))
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return [Fraction(c, den) for c in out]


def affine_distribution(p: list[Fraction], m: int) -> list[Fraction]:
    """Σ_{s=0..m-1} (-1)^s p((x + s)/m), one `poly_affine` expansion per s."""
    return poly_combination(
        ((-1) ** s, poly_affine(p, Fraction(1, m), Fraction(s, m))) for s in range(m)
    )


def alternating_distribution(p: list[Fraction], m: int) -> list[Fraction]:
    """Σ_{s=0..m-1} (-1)^s p((x + s)/m), expanded: the `Fraction` view of
    `distributed_combination` on the one term (1, p), normalized.  Requires m >= 1."""
    numerators, den = integer_coefficients(p)
    row = distributed_combination([(1, IntegerRow(tuple(numerators), den))], m)
    return [Fraction(c, den * m ** (len(numerators) - 1)) for c in row.numerators]


def row_combination(terms: Iterable[tuple[int, IntegerRow]]) -> IntegerRow:
    """Σ c·row over the (c, row) terms with integer c, trimmed, over the least
    common multiple of the row denominators."""
    terms = list(terms)
    den = lcm(*(row.den for _, row in terms))
    out = [0] * max((len(row.numerators) for _, row in terms), default=1)
    for c, (numerators, row_den) in terms:
        scale = c * (den // row_den)
        for i, a in enumerate(numerators):
            out[i] += scale * a
    return IntegerRow(tuple(out), den).trimmed()


def row_distribution(row: IntegerRow, m: int) -> IntegerRow:
    """m^d·Σ_{s=0..m-1} (-1)^s p((x + s)/m) for the polynomial p of row, d = len - 1,
    over row's denominator and trimmed: the x^j numerator is
    Σ_{i>=j} N_i m^(d-i) C(i,j) P_{i-j}, one O(d^2) pass per row.  Requires m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    numerators = row.numerators
    degree = len(numerators) - 1
    power_sums = alternating_power_sums(m, degree)
    scaled = [c * m ** (degree - i) for i, c in enumerate(numerators)]
    out = tuple(
        sum(scaled[i] * comb(i, j) * power_sums[i - j] for i in range(j, degree + 1))
        for j in range(degree + 1)
    )
    return IntegerRow(out, row.den).trimmed()


def per_row_theorem3(k: int, n: int, distributed: Callable[[int], IntegerRow]) -> IntegerRow:
    """Σ_l a_l·distributed(l) over the Theorem 3 weights of (k, n) by `row_combination`.

    With distributed(l) = row_distribution(rows(l), m) it is the per-row route
    to theorem3_combination(k, n, rows, m); distributed(l) is read only where
    a_l is nonzero.
    """
    weights, den = theorem3_integer_weights(k, n)
    total = row_combination((a, distributed(l)) for l, a in enumerate(weights) if a)
    return IntegerRow(total.numerators, total.den * den)


@lru_cache(maxsize=None)
def stirling_weight(k: int, n: int) -> Fraction:
    """w_n(k) = Σ_{j=1..n} S_1(n, j)·j^(1-k), summed term by term in Fractions."""
    row = stirling1_row(n)
    return sum((row[j] * Fraction(j) ** (1 - k) for j in range(1, n + 1)), Fraction(0))


def poly_genocchi_sums(k: int, max_n: int) -> list[Fraction]:
    """[G_0^(k), ..., G_max_n^(k)] with G_n^(k) = Σ_{j=1..n} C(n,j)·w_j(k)·E_{n-j}."""
    euler = euler_numbers(max_n)
    return [
        sum(
            (comb(n, j) * stirling_weight(k, j) * euler[n - j] for j in range(1, n + 1)),
            Fraction(0),
        )
        for n in range(max_n + 1)
    ]


def binomial_convolution(numbers: list[Fraction], n: int) -> list[Fraction]:
    """Σ_{l=0..n} C(n,l) a_l x^(n-l) for numbers = [a_0, ..., a_n, ...], normalized."""
    return poly_normalize([comb(n, n - i) * numbers[n - i] for i in range(n + 1)])


def theorem3_weights(k: int, n: int) -> list[Fraction]:
    """[a_0, ..., a_n] with a_l = C(n,l)·w_{n+1-l}(k)/(n+1-l): E_n^(k)(x) = Σ_l a_l E_l(x)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [comb(n, l) * stirling_weight(k, n + 1 - l) / (n + 1 - l) for l in range(n + 1)]


def bar_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """Evaluate p at the fractional part x - floor(x) (floor toward -infinity).

    The 1-periodic extension of p restricted to [0, 1): integers map to p(0),
    and bar_eval(p, -1/4) = p(3/4).
    """
    return fraction_horner(p, x - floor(x))


def alternating_bar_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """(-1)^floor(x) · p(x - floor(x)): the sign-alternating periodic extension.

    Agrees with p on [0, 1) and flips sign on each successive unit interval
    (period 2, antiperiod 1).
    """
    d = floor(x)
    value = fraction_horner(p, x - d)
    return -value if d % 2 else value


@lru_cache(maxsize=None)
def euler_alt_bar(degree: int, x: Fraction) -> Fraction:
    """Ê_degree(x) over the Euler polynomial E_degree(x), memoized."""
    return alternating_bar_eval(euler_poly(degree), x)


def dc_sum_by_term(p: int, h: int, m: int) -> Fraction:
    """T_p(h, m) = 2·Σ_{μ=1..m-1} (-1)^μ (μ/m) Ê_p(hμ/m), term by term."""
    total = Fraction(0)
    for mu in range(1, m):
        term = Fraction(mu, m) * euler_alt_bar(p, Fraction(h * mu, m))
        total += -term if mu % 2 else term
    return 2 * total


def theorem13_lhs_by_term(k: int, p: int, h: int, m: int) -> Fraction:
    """m^p Σ_μ (-1)^(hμ + d) Σ_s C(p,s) h^s E_s^(k)(μ/m) E_{p-s}(h - d), d = floor(hμ/m),
    term by term."""
    total = Fraction(0)
    for mu in range(m):
        d = (h * mu) // m
        inner = sum(
            (
                comb(p, s)
                * Fraction(h) ** s
                * fraction_horner(poly_euler_poly(k, s), Fraction(mu, m))
                * fraction_horner(euler_poly(p - s), Fraction(h - d))
                for s in range(p + 1)
            ),
            Fraction(0),
        )
        total += -inner if (h * mu + d) % 2 else inner
    return Fraction(m) ** p * total


def alternating_power_sums_by_term(m: int, degree: int) -> list[int]:
    """[P_0, ..., P_degree] with P_t = Σ_{s=0..m-1} (-1)^s s^t (0^0 = 1), term by term."""
    power_sums = [0] * (degree + 1)
    for s in range(m):
        term = -1 if s % 2 else 1
        for t in range(degree + 1):
            power_sums[t] += term
            term *= s
    return power_sums


def single_moments_by_term(h: int, m: int, degree: int) -> list[int]:
    """S_i = Σ_{μ=1..m-1} (-1)^(μ+d) μ r^i for i = 0..degree, d, r = divmod(hμ, m),
    term by term."""
    moments = [0] * (degree + 1)
    for mu in range(1, m):
        d, r = divmod(h * mu, m)
        term = -mu if (mu + d) % 2 else mu
        for i in range(degree + 1):
            moments[i] += term
            term *= r
    return moments


def double_moments_by_term(h: int, m: int, degree: int) -> tuple[list[int], list[int]]:
    """A_i = Σ ± μh r^i and B_i = Σ ± νm r^i for i = 0..degree, term by term, over
    μ = 0..m-1, ν = 0..h-1 with d, r = divmod(νm + μh, mh) and sign (-1)^(μ+ν+d)."""
    n = m * h
    a_moments = [0] * (degree + 1)
    b_moments = [0] * (degree + 1)
    for mu in range(m):
        for nu in range(h):
            d, r = divmod(nu * m + mu * h, n)
            a, b = (-mu * h, -nu * m) if (mu + nu + d) % 2 else (mu * h, nu * m)
            for i in range(degree + 1):
                a_moments[i] += a
                b_moments[i] += b
                a *= r
                b *= r
    return a_moments, b_moments


def declared_checks(identity: Any, point: dict[str, int]) -> list[tuple[str, tuple[int, ...]]]:
    """(message, values) of each hypothesis of a declared identity at point, in
    declared order (`COPRIME` last): the values its test reads, its own
    parameter's and then, for a rule relating two parameters, the other's."""
    hypotheses = identity.hypotheses
    rules = [*hypotheses.rules.items(), *[("h", COPRIME)] * hypotheses.coprime]
    return [
        (rule.message.format(name), (point[name],) + ((point[rule.other],) if rule.other else ()))
        for name, rule in rules
    ]


@contextmanager
def recorded_checks(*identities: Any) -> Iterator[list[tuple[str, tuple[int, ...]]]]:
    """Within the block, each located check of the declared identities appends
    (message, values) to the list it yields whenever its test runs."""
    calls: list[tuple[str, tuple[int, ...]]] = []
    saved = [(identity.checks, list(identity.checks)) for identity in identities]
    for checks, original in saved:
        for index, (test, message, i, j) in enumerate(original):

            def recorded(*values: int, test: Callable = test, message: str = message) -> bool:
                calls.append((message, values))
                return test(*values)

            checks[index] = (recorded, message, i, j)
    try:
        yield calls
    finally:
        for checks, original in saved:
            checks[:] = original

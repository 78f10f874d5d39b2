"""The reference routes the tests compare served values with.

No served value reads any of them.  Each computes in `Fraction`s, along a
route that shares no kernel with the integer kernel it checks:

- `poly_combination`, the linear combination of `Fraction` polynomials, for
  `row_combination`;
- `affine_distribution`, the odd-modulus distribution sum with each term
  p((x + s)/m) expanded by affine substitution, for `row_distribution`, and
  `alternating_distribution`, the `Fraction` view of `row_distribution`;
- `integer_coefficients`, a `Fraction` list over its least common
  denominator, for the reduced integer rows of the caches;
- `stirling_weight`, the weight w_n(k) = Σ_j S_1(n, j)/j^(k-1) summed in
  `Fraction`s, for the integer weight rows; `poly_genocchi_sums`, the
  poly-Genocchi numbers Σ_j C(n,j)·w_j(k)·E_{n-j} over it, for the integer
  poly-Genocchi numbers; and `binomial_convolution`, Σ_l C(n,l) a_l x^(n-l)
  in `Fraction`s, for the integer rows of the four polynomial families;
- `theorem3_weights`, the Theorem 3 weights as `Fraction` products over
  `stirling_weight`, for `theorem3_integer_weights`;
- `alternating_bar_eval`, the sign-alternating periodic extension Ê, and
  `euler_alt_bar`, its memoized value over E_n(x), which the defining loops
  of the DC sums read.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, floor, lcm
from typing import Iterable

from polydc.exact_algebra import (
    IntegerRow,
    poly_affine,
    poly_eval,
    poly_normalize,
    row_distribution,
)
from polydc.sequences import euler_numbers, euler_poly, stirling1_row


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
    `row_distribution`, normalized.  Requires m >= 1."""
    numerators, den = integer_coefficients(p)
    row = row_distribution(IntegerRow(tuple(numerators), den), m)
    return [Fraction(c, den * m ** (len(numerators) - 1)) for c in row.numerators]


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


def alternating_bar_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """(-1)^floor(x) · p(x - floor(x)): the sign-alternating periodic extension.

    Agrees with p on [0, 1) and flips sign on each successive unit interval
    (period 2, antiperiod 1).
    """
    d = floor(x)
    value = poly_eval(p, x - d)
    return -value if d % 2 else value


@lru_cache(maxsize=None)
def euler_alt_bar(degree: int, x: Fraction) -> Fraction:
    """Ê_degree(x) over the Euler polynomial E_degree(x), memoized."""
    return alternating_bar_eval(euler_poly(degree), x)

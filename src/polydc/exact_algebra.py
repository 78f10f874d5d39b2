"""Exact rational scalars, dense polynomials, and truncated formal power series.

Every computation in this package is exact, over Python integers and
`fractions.Fraction` rationals — there is no floating point anywhere.
Polynomials are dense coefficient lists in ascending degree; a truncated
series of order N is a list of N + 1 coefficients representing a power series
mod t^(N+1).

A cached family keeps each polynomial as a `RationalRow`: its `IntegerRow`,
the numerators over their least common denominator, built in integers, and
the `Fraction` tuple derived from it once, on the first read that wants it.
The odd-modulus distribution sum is one integer kernel on rows,
`row_distribution`, in moment form, and `row_combination` is the integer
linear combination of rows; the polynomial identities are checked on these
rows end to end.  Their `Fraction` references, the linear combination
`poly_combination` and the distribution sum expanded term by term, live in
`tests/oracles.py`.  `poly_affine`, `poly_mul` and the truncated series
primitives serve no value either (the Euler numbers come from integer
tangent numbers): the tests read them as oracles, and they stay here only
because the benchmark's size ladders time them.
"""

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm
from typing import Iterable, NamedTuple


def format_rational(q: Fraction) -> str:
    """Canonical wire form: "-3/2", integers without denominator, zero as "0"."""
    return str(q)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical wire form back to a Fraction.

    Accepts integer strings ("5", "-7"), "p/q" strings ("-3/2") and decimals.
    Raises ValueError on anything else, such as an exponent ("1e9"), which
    could ask for any size in a few characters.
    """
    try:
        if "e" in text.lower():
            raise ValueError(text)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


# ---------------------------------------------------------------------------
# Dense polynomials (ascending coefficient lists)
# ---------------------------------------------------------------------------

def poly_normalize(coeffs: list[Fraction]) -> list[Fraction]:
    """Strip trailing zero coefficients; the zero polynomial is [0]."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0:
        end -= 1
    out = [Fraction(c) for c in coeffs[:end]]
    return out if out else [Fraction(0)]


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """Evaluate p at x by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Product of two polynomials (schoolbook convolution)."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_normalize(out)


def poly_affine(p: list[Fraction], a: Fraction, b: Fraction) -> list[Fraction]:
    """The polynomial p(a·x + b), expanded by Horner on coefficients."""
    inner = [Fraction(b), Fraction(a)]
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out = poly_mul(out, inner)
        out[0] += c
    return poly_normalize(out)


class IntegerRow(NamedTuple):
    """Rationals as integer numerators over one common denominator.

    As a polynomial, numerators[i] / den is the x^i coefficient.
    """

    numerators: tuple[int, ...]
    den: int

    def trimmed(self) -> "IntegerRow":
        """The same polynomial without trailing zero numerators; zero is (0,)."""
        end = len(self.numerators)
        while end > 1 and self.numerators[end - 1] == 0:
            end -= 1
        return self if end == len(self.numerators) else IntegerRow(self.numerators[:end], self.den)

    def numerator_at(self, x: int) -> int:
        """den times the polynomial's value at the integer x, by Horner's rule."""
        value = 0
        for c in reversed(self.numerators):
            value = value * x + c
        return value

    def fractions(self) -> list[Fraction]:
        """The coefficients as a Fraction list."""
        return [Fraction(c, self.den) for c in self.numerators]


def row_combination(terms: Iterable[tuple[int, IntegerRow]]) -> IntegerRow:
    """Σ c·row over the (c, row) terms with integer c, trimmed.

    One integer pass over the least common multiple of the row denominators.
    """
    terms = list(terms)
    den = lcm(*(row.den for _, row in terms))
    out = [0] * max((len(row.numerators) for _, row in terms), default=1)
    for c, (numerators, row_den) in terms:
        scale = c * (den // row_den)
        for i, a in enumerate(numerators):
            out[i] += scale * a
    return IntegerRow(tuple(out), den).trimmed()


class RationalRow:
    """An `IntegerRow` that derives its `Fraction` tuple once, on first read.

    The caches of `sequences` keep one per entry: an integer kernel reads
    `integers`, a reader that wants Fractions copies `fractions`, so a cache
    entry that no Fraction reader reads never derives it.
    """

    def __init__(self, integers: IntegerRow) -> None:
        self.integers = integers

    @cached_property
    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(self.integers.fractions())


def alternating_power_sums(m: int, degree: int) -> list[int]:
    """[P_0, ..., P_degree] with P_t = Σ_{s=0..m-1} (-1)^s s^t (0^0 = 1), in integers."""
    power_sums = [0] * (degree + 1)
    for s in range(m):
        term = -1 if s % 2 else 1
        for t in range(degree + 1):
            power_sums[t] += term
            term *= s
    return power_sums


def row_distribution(row: IntegerRow, m: int) -> IntegerRow:
    """m^d·Σ_{s=0..m-1} (-1)^s p((x + s)/m) for the polynomial p of row, d = len - 1.

    The odd-modulus distribution sum, over the same denominator as row and
    trimmed.  Moment form: with the numerators N_i of p, the x^j numerator is
    Σ_{i>=j} N_i m^(d-i) C(i,j) P_{i-j} over the integer alternating power
    sums P_t of `alternating_power_sums`.  Requires m >= 1.
    """
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


# ---------------------------------------------------------------------------
# Truncated formal power series (order N = len - 1, exact mod t^(N+1))
# ---------------------------------------------------------------------------

def series_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Cauchy product truncated to the common order."""
    if len(a) != len(b):
        raise ValueError(f"series order mismatch: {len(a) - 1} != {len(b) - 1}")
    n = len(a)
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return out


def series_reciprocal(a: list[Fraction]) -> list[Fraction]:
    """Multiplicative inverse b with a·b = 1 mod t^(order+1).

    Uses the forward recurrence b_0 = 1/a_0, b_n = -(1/a_0)·Σ_{j=1..n} a_j b_{n-j}.
    """
    if a[0] == 0:
        raise ValueError("series with zero constant term is not invertible")
    inv0 = 1 / a[0]
    b = [Fraction(0)] * len(a)
    b[0] = inv0
    for n in range(1, len(a)):
        b[n] = -inv0 * sum(a[j] * b[n - j] for j in range(1, n + 1))
    return b


def series_compose(outer: list[Fraction], inner: list[Fraction]) -> list[Fraction]:
    """outer(inner(t)) truncated to the common order.

    Requires inner to have zero constant term, so the composition is a
    well-defined truncated series; computed by Horner-style nested
    multiplication on inner powers.
    """
    if len(outer) != len(inner):
        raise ValueError(f"series order mismatch: {len(outer) - 1} != {len(inner) - 1}")
    if inner[0] != 0:
        raise ValueError("composition requires inner series with zero constant term")
    n = len(outer)
    out = [Fraction(0)] * n
    out[0] = outer[n - 1]
    for c in reversed(outer[:-1]):
        out = series_mul(out, inner)
        out[0] += c
    return out


def exp_series(order: int) -> list[Fraction]:
    """Truncation of e^t: coefficients 1/j! for j = 0..order."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return [Fraction(1, factorial(j)) for j in range(order + 1)]


def log1p_series(order: int) -> list[Fraction]:
    """Truncation of log(1+t): coefficients 0, 1, -1/2, 1/3, ..."""
    if order < 0:
        raise ValueError("series order must be nonnegative")
    return [Fraction(0)] + [Fraction((-1) ** (j - 1), j) for j in range(1, order + 1)]

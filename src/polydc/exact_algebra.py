"""Exact rational scalars, dense polynomials, and truncated formal power series.

Every computation in this package is exact, over Python integers and
`fractions.Fraction` rationals — there is no floating point anywhere.
Polynomials are dense coefficient lists in ascending degree; a truncated
series of order N is a list of N + 1 coefficients representing a power series
mod t^(N+1).

Polynomials are evaluated in integers: `horner` is the package's one Horner
loop, Σ_i N_i a^i b^(d-i) over integer numerators N_i at x = a/b.
`IntegerRow.value_at` runs it at a rational x and builds one Fraction at the
end, and `poly_eval` calls it on the coefficients' numerators over their
least common denominator; Horner's rule on Fractions, with its two normalising gcds per
coefficient, is the tests' oracle (`tests/oracles.py`).  Every weighted power
sum over residues, Σ_r w_r·r^i, is read from one loop, `residue_moments`.

A cached family keeps each polynomial as a `RationalRow`: its `IntegerRow`,
the numerators over their least common denominator, built in integers, and
the `Fraction` tuple derived from it once, on the first read that wants it.
One integer kernel on rows, `distributed_combination`, serves both the
linear combination of rows (m = 1) and the alternating distribution sum of
a combination of rows (m >= 1): it combines the rows first and distributes
once, in moment form; the polynomial identities are checked on its rows end
to end.  Its references, the `Fraction` linear combination
`poly_combination`, the distribution sum expanded term by term, and the
per-row integer route it replaced, live in `tests/oracles.py`.
`poly_affine`, `poly_mul` and the truncated series primitives serve no value
either (the Euler numbers come from integer tangent numbers): the tests read
them as oracles, and they stay here only because the benchmark's size
ladders time them.
"""

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import comb, factorial, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence


def format_rational(q: Fraction) -> str:
    """Canonical wire form: "-3/2", integers without denominator, zero as "0"."""
    return str(q)


def parse_rational(text: str) -> Fraction:
    """Parse the canonical wire form back to a Fraction.

    Accepts integer strings ("5", "-7"), "p/q" strings ("-3/2") and decimals.
    Raises ValueError on anything else, such as an exponent ("1e9"), which
    could ask for any size in a few characters, or a digit separator
    ("1_000"), which `Fraction` accepts from Python 3.11 on only.
    """
    try:
        if "e" in text.lower() or "_" in text:
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


def horner(numerators: Sequence[int], a: int, b: int = 1) -> int:
    """Σ_i N_i a^i b^(d-i) over the integers N_0, ..., N_d: b^d times the
    polynomial Σ_i N_i x^i at x = a/b, by Horner's rule in integers.

    The package's one Horner loop.  At b = 1 it is one multiply-add per
    coefficient; otherwise each N_i is first scaled by b^(d-i).
    """
    if b != 1:
        d = len(numerators) - 1
        powers = list(accumulate(repeat(b, d), mul, initial=1))
        numerators = [c * powers[d - i] for i, c in enumerate(numerators)]
    value = 0
    for c in reversed(numerators):
        value = value * a + c
    return value


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """p(x) as a Fraction, for Fraction or int coefficients and x.

    One integer pass: the row of numerators c_i·D over the least common
    denominator D of the coefficients, evaluated by `IntegerRow.value_at`.
    """
    if not p:
        return Fraction(0)
    den = lcm(*(c.denominator for c in p))
    return IntegerRow(tuple(c.numerator * (den // c.denominator) for c in p), den).value_at(x)


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

    def value_at(self, x: Fraction) -> Fraction:
        """The polynomial at the rational (or int) x = a/b: horner(N, a, b)/(den·b^d)."""
        a, b = x.numerator, x.denominator
        return Fraction(horner(self.numerators, a, b), self.den * b ** (len(self.numerators) - 1))

    def fractions(self) -> list[Fraction]:
        """The coefficients as a Fraction list."""
        return [Fraction(c, self.den) for c in self.numerators]


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


def residue_moments(weights: Sequence[int], degree: int) -> list[int]:
    """[Σ_r weights[r]·r^i for i = 0..degree] over r = 0..len - 1 (0^0 = 1): the
    package's one moment loop, one product of the weights by the residues per degree."""
    moments = [sum(weights)]
    residues = range(len(weights))
    for _ in range(degree):
        weights = list(map(mul, weights, residues))
        moments.append(sum(weights))
    return moments


def alternating_power_sums(m: int, degree: int) -> list[int]:
    """[P_0, ..., P_degree], P_t = Σ_{s=0..m-1} (-1)^s s^t: the moments of the weights (-1)^s."""
    return residue_moments([-1 if s % 2 else 1 for s in range(m)], degree)


def distributed_combination(terms: Iterable[tuple[int, IntegerRow]], m: int) -> IntegerRow:
    """Σ c·m^d·Σ_{s=0..m-1} (-1)^s p((x + s)/m) over the (c, row) terms with
    integer c, for the polynomial p of each row and d = len(row) - 1, trimmed.

    The package's one row kernel: at m = 1 it is the plain combination Σ c·p.
    It combines first, over the least common multiple D of the row
    denominators, Q_i = Σ c·(D/den)·N_i·m^(d-i) over the numerators N_i of
    each row, as (Σ c·(D/den)·m^d·N_i) / m^i: one scale per row, and one
    exact division per coefficient, since i <= d in every term.  Then it
    distributes once: the x^j numerator is Σ_t Q_{j+t}·C(j+t, t)·P_t over the
    nonzero integer alternating power sums P_t of `alternating_power_sums`,
    except at m = 1, where P_0 = 1 is the only one.  Requires m >= 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = list(terms)
    den = lcm(*(row.den for _, row in terms))
    size = max((len(row.numerators) for _, row in terms), default=1)
    powers = list(accumulate(repeat(m, size - 1), mul, initial=1))
    combined = [0] * size
    for c, (numerators, row_den) in terms:
        scale = c * (den // row_den) * powers[len(numerators) - 1]
        for i, a in enumerate(numerators):
            combined[i] += scale * a
    combined = [q // power for q, power in zip(combined, powers)]
    if m == 1:
        return IntegerRow(tuple(combined), den).trimmed()
    degree = size - 1
    sums = [(t, p) for t, p in enumerate(alternating_power_sums(m, degree)) if p]
    out = tuple(
        sum(combined[j + t] * comb(j + t, t) * p for t, p in sums if t <= degree - j)
        for j in range(size)
    )
    return IntegerRow(out, den).trimmed()


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

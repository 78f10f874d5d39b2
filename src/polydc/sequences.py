"""Special numbers and polynomials: Stirling (first kind), Euler, Genocchi,
polyexponential, poly-Genocchi, and poly-Euler families.

The Euler numbers are read off 2/(e^t + 1), the one series inversion here,
and checked at cache-fill time against a recurrence.  The other families are
built from them and the Stirling weights w_j(k) = j!·[t^j] Ei_k(log(1+t)):
G_n = n·E_{n-1} and G_n^(k) = Σ_j C(n,j) w_j(k) E_{n-j}; polynomials are the
binomial convolutions of the numbers.  The poly families admit any integer
index k: for k <= 0 the weight 1/n^k is the integer n^{-k}.

The Theorem 3 and Corollary 7 routes to the poly-Euler polynomials are oracles
for the served ones; as they share the Stirling weights, the tests also check
the poly-Genocchi numbers against the series 2·Ei_k(log(1+t))/(e^t + 1).
"""

from fractions import Fraction
from math import comb, factorial, floor

from .exact_algebra import (
    alternating_distribution,
    exp_series,
    poly_add,
    poly_eval,
    poly_normalize,
    poly_scale,
    series_reciprocal,
)

# ---------------------------------------------------------------------------
# Stirling numbers of the first kind (signed), grow-only triangle
# ---------------------------------------------------------------------------

_stirling_rows: list[list[int]] = [[1]]


def _grow_stirling(n: int) -> None:
    while len(_stirling_rows) <= n:
        prev = _stirling_rows[-1]
        r = len(_stirling_rows)  # building row r from row r-1
        row = [0] * (r + 1)
        for m in range(1, r + 1):
            row[m] = prev[m - 1] - (r - 1) * (prev[m] if m < r else 0)
        _stirling_rows.append(row)


def stirling1(n: int, m: int) -> int:
    """Signed Stirling number of the first kind S_1(n, m).

    Satisfies S_1(n+1, m) = S_1(n, m-1) - n·S_1(n, m) with S_1(0,0) = 1,
    and (log(1+t))^m / m! = Σ_n S_1(n,m) t^n/n!.  Returns 0 when m > n.
    """
    if n < 0 or m < 0:
        raise ValueError("stirling1 requires nonnegative n and m")
    if m > n:
        return 0
    _grow_stirling(n)
    return _stirling_rows[n][m]


def stirling1_row(n: int) -> list[int]:
    """The row [S_1(n, 0), ..., S_1(n, n)]."""
    if n < 0:
        raise ValueError("stirling1 requires nonnegative n")
    _grow_stirling(n)
    return list(_stirling_rows[n])


def stirling_weight(n: int, k: int) -> Fraction:
    """Σ_{j=1..n} S_1(n, j) / j^(k-1), exactly for any integer k.

    This is n!·[t^n] Ei_k(log(1+t)), the weight that Theorems 1/3/4/6,
    Corollary 7 and the reciprocity law attach to the index-k poly families.
    """
    if n < 0:
        raise ValueError("stirling1 requires nonnegative n")
    _grow_stirling(n)
    row = _stirling_rows[n]
    return sum((row[j] * Fraction(j) ** (1 - k) for j in range(1, n + 1)), Fraction(0))


def binomial_convolution(numbers: list[Fraction], n: int) -> list[Fraction]:
    """Σ_{l=0..n} C(n,l) a_l x^(n-l) for numbers = [a_0, ..., a_n, ...], normalized."""
    return poly_normalize([comb(n, n - i) * numbers[n - i] for i in range(n + 1)])


# ---------------------------------------------------------------------------
# Euler and Genocchi numbers/polynomials
# ---------------------------------------------------------------------------

_euler_cache: list[Fraction] = []


def _euler_numbers_recurrence(max_n: int) -> list[Fraction]:
    """Independent route: E_n = δ_{0,n} - (1/2)·Σ_{l<n} C(n,l) E_l."""
    out: list[Fraction] = []
    for n in range(max_n + 1):
        delta = Fraction(1) if n == 0 else Fraction(0)
        acc = sum((comb(n, l) * out[l] for l in range(n)), Fraction(0))
        out.append(delta - acc / 2)
    return out


def euler_numbers(max_n: int) -> list[Fraction]:
    """[E_0, ..., E_max_n] from the generating function 2/(e^t + 1).

    The series extraction is cross-checked against the binomial recurrence
    derived from E_n(1) + E_n = 2·δ_{0,n}; disagreement would indicate a
    defect in the series engine and raises RuntimeError.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if len(_euler_cache) <= max_n:
        order = max(max_n, 2 * len(_euler_cache) + 4)
        denom = exp_series(order)
        denom[0] += 1
        inv = series_reciprocal(denom)
        series_route = [factorial(n) * 2 * inv[n] for n in range(order + 1)]
        if series_route != _euler_numbers_recurrence(order):
            raise RuntimeError("Euler number routes disagree: series vs recurrence")
        _euler_cache[:] = series_route
    return _euler_cache[: max_n + 1]


def euler_poly(n: int) -> list[Fraction]:
    """E_n(x) = Σ_{l=0..n} C(n,l) E_l x^(n-l)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return binomial_convolution(euler_numbers(n), n)


def genocchi_numbers(max_n: int) -> list[Fraction]:
    """[G_0, ..., G_max_n], the coefficients of 2t/(e^t + 1): G_0 = 0, G_n = n·E_{n-1}.

    All entries are integers (as Fractions with denominator 1).
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    euler = euler_numbers(max_n)
    return [Fraction(0)] + [n * euler[n - 1] for n in range(1, max_n + 1)]


def genocchi_poly(n: int) -> list[Fraction]:
    """G_n(x) = Σ_{l=0..n} C(n,l) G_l x^(n-l)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return binomial_convolution(genocchi_numbers(n), n)


# ---------------------------------------------------------------------------
# Polyexponential function and the poly-Genocchi / poly-Euler families
# ---------------------------------------------------------------------------

def polyexp_series(k: int, order: int) -> list[Fraction]:
    """Truncation of Ei_k(x) = Σ_{n>=1} x^n / (n^k (n-1)!).

    For k <= 0 the weight 1/n^k is the exact integer n^{-k}.  Only the series
    oracle for the poly-Genocchi numbers composes it with log(1+t).
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        if k >= 0:
            coeffs[n] = Fraction(1, n**k * factorial(n - 1))
        else:
            coeffs[n] = Fraction(n ** (-k), factorial(n - 1))
    return coeffs


_poly_genocchi_cache: dict[int, list[Fraction]] = {}


def poly_genocchi_numbers(k: int, max_n: int) -> list[Fraction]:
    """[G_0^(k), ..., G_max_n^(k)] from 2·Ei_k(log(1+t))/(e^t + 1).

    Ei_k(log(1+t)) = Σ_j w_j(k) t^j/j! with w_j(k) = stirling_weight(j, k), and
    2/(e^t + 1) = Σ_n E_n t^n/n!, so G_n^(k) = Σ_{j=1..n} C(n,j) w_j(k) E_{n-j}.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    cached = _poly_genocchi_cache.get(k, [])
    if len(cached) <= max_n:
        order = max(max_n, 2 * len(cached) + 4)
        euler = euler_numbers(order)
        weights = [stirling_weight(j, k) for j in range(order + 1)]
        cached = [
            sum((comb(n, j) * weights[j] * euler[n - j] for j in range(1, n + 1)), Fraction(0))
            for n in range(order + 1)
        ]
        _poly_genocchi_cache[k] = cached
    return cached[: max_n + 1]


def poly_genocchi_poly(k: int, n: int) -> list[Fraction]:
    """G_n^(k)(x) = Σ_{l=0..n} C(n,l) G_l^(k) x^(n-l)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return binomial_convolution(poly_genocchi_numbers(k, n), n)


def poly_euler_numbers(k: int, max_n: int) -> list[Fraction]:
    """[E_0^(k), ..., E_max_n^(k)] via E_n^(k) = G_{n+1}^(k) / (n+1)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    genocchi = poly_genocchi_numbers(k, max_n + 1)
    return [genocchi[n + 1] / (n + 1) for n in range(max_n + 1)]


_poly_euler_poly_cache: dict[tuple[int, int], list[Fraction]] = {}


def poly_euler_poly(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x), a degree-n polynomial.

    Computed as the binomial convolution Σ_l C(n,l) E_l^(k) x^(n-l) and
    asserted against the quotient form G_{n+1}^(k)(x)/(n+1); the two must
    agree coefficientwise or a RuntimeError is raised.  Each call returns a
    fresh list, so a caller cannot alter the cached polynomial.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    key = (k, n)
    if key not in _poly_euler_poly_cache:
        binomial_form = binomial_convolution(poly_euler_numbers(k, n), n)
        quotient_form = poly_scale(poly_genocchi_poly(k, n + 1), Fraction(1, n + 1))
        if binomial_form != quotient_form:
            raise RuntimeError("poly-Euler construction routes disagree")
        _poly_euler_poly_cache[key] = binomial_form
    return list(_poly_euler_poly_cache[key])


def poly_euler_via_theorem3(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x) by the Stirling closed form (independent oracle route).

    Assembles (1/(n+1))·Σ_{j=1..n+1} Σ_{m=1..j} C(n+1,j)·S_1(j,m)/m^(k-1)·E_{n+1-j}(x);
    the underlying identity produces E_{n}^(k) from index n+1 internally.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    n1 = n + 1
    acc = [Fraction(0)]
    for j in range(1, n1 + 1):
        weight = stirling_weight(j, k)
        if weight == 0:
            continue
        acc = poly_add(acc, poly_scale(euler_poly(n1 - j), comb(n1, j) * weight))
    return poly_scale(acc, Fraction(1, n1))


def poly_euler_via_corollary7(k: int, n: int, m: int) -> list[Fraction]:
    """E_n^(k)(x) by the distribution-based closed form, for odd modulus m.

    Assembles Σ_{l=0..n} C(n,l) m^l Σ_{j=1..n+1-l} Σ_{s=0..m-1}
    (-1)^s E_l((s+x)/m) S_1(n+1-l, j) / (j^(k-1) (n+1-l)); must equal
    poly_euler_poly(k, n) for every odd m.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer")
    n1 = n + 1
    acc = [Fraction(0)]
    for l in range(n + 1):
        weight = stirling_weight(n1 - l, k) / (n1 - l)
        if weight == 0:
            continue
        shifted = alternating_distribution(euler_poly(l), m)
        acc = poly_add(acc, poly_scale(shifted, comb(n, l) * Fraction(m) ** l * weight))
    return acc


# ---------------------------------------------------------------------------
# Periodic bar evaluation and the sawtooth function
# ---------------------------------------------------------------------------

def bar_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """Evaluate p at the fractional part x - floor(x) (floor toward -infinity).

    The 1-periodic extension of p restricted to [0, 1): integers map to p(0),
    and bar_eval(p, -1/4) = p(3/4).
    """
    return poly_eval(p, x - floor(x))


def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 for non-integer x, else 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - floor(x) - Fraction(1, 2)

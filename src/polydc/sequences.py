"""Special numbers and polynomials: Stirling (both kinds), Euler, Genocchi,
polyexponential, poly-Genocchi, and poly-Euler families.

The Euler numbers are read off 2/(e^t + 1) = 1 - tanh(t/2) through the
integer tangent numbers, filled by an in-place recurrence and checked at
cache-fill time against the zigzag triangle; no series arithmetic runs here.
The other families are built from them and the Stirling weights
w_j(k) = j!·[t^j] Ei_k(log(1+t)), each by one route: G_n = n·E_{n-1},
G_n^(k) = Σ_j C(n,j) w_j(k) E_{n-j} (one grow-only list per k, as the weight
rows are), and the polynomials as binomial convolutions of the numbers.  The
Euler, Genocchi, poly-Genocchi and poly-Euler polynomials and the weight rows
are each kept once, as a `RationalRow`: the public functions return a fresh
Fraction list from it, and the integer kernels read its integer row
(`euler_poly_row`, `genocchi_poly_row`, `poly_genocchi_poly_row`,
`poly_euler_poly_row`, `theorem3_integer_weights`).  The poly families admit
any integer index k: for k <= 0 the weight 1/n^k is the integer n^{-k}.

The Theorem 3 and Corollary 7 routes to the poly-Euler polynomials are oracles
for the served ones, built as integer rows (`theorem3_combination` over the
Euler rows and their distribution sums) and compared by the verifiers; the
Stirling weights are checked at fill time by Stirling inversion.  The tests
check the Euler numbers against the binomial recurrence and the series
inversion of 2/(e^t + 1), and the poly-Genocchi numbers against the series
2·Ei_k(log(1+t))/(e^t + 1).
"""

from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb, factorial, floor

from .exact_algebra import (
    IntegerRow,
    RationalRow,
    poly_eval,
    poly_normalize,
    row_combination,
    row_distribution,
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


_stirling2_rows: list[list[int]] = [[1]]


def _grow_stirling2(n: int) -> None:
    """Stirling numbers of the second kind: S_2(r, j) = S_2(r-1, j-1) + j·S_2(r-1, j)."""
    while len(_stirling2_rows) <= n:
        prev = _stirling2_rows[-1] + [0]
        _stirling2_rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, len(prev))])


_weight_rows: dict[int, RationalRow] = {}


def _weight_row(k: int, max_n: int) -> RationalRow:
    """The cached row [w_0(k), ...] of `stirling_weights`, grown past max_n if short.

    Each k has one grow-only row, extended by its missing entries only; each new
    N is checked by Stirling inversion over the row's integer form,
    Σ_{n=1..N} S_2(N, n) w_n(k) = N^(1-k), or RuntimeError is raised.
    """
    row = _weight_rows.get(k, ())
    if len(row) <= max_n:
        _grow_stirling(max_n)
        _grow_stirling2(max_n)
        grown = RationalRow(
            row
            + tuple(
                sum((s1[j] * Fraction(j) ** (1 - k) for j in range(1, len(s1))), Fraction(0))
                for s1 in _stirling_rows[len(row) : max_n + 1]
            )
        )
        numerators, den = grown.integers
        for big_n in range(max(len(row), 1), max_n + 1):
            total = sum(s * w for s, w in zip(_stirling2_rows[big_n], numerators))
            if Fraction(total, den) != Fraction(big_n) ** (1 - k):
                raise RuntimeError(f"Stirling weight row k={k} fails inversion at N={big_n}")
        row = _weight_rows[k] = grown
    return row


def stirling_weights(k: int, max_n: int) -> list[Fraction]:
    """[w_0(k), ..., w_max_n(k)] with w_n(k) = Σ_{j=1..n} S_1(n, j) / j^(k-1).

    This is n!·[t^n] Ei_k(log(1+t)), the weight of the index-k poly families,
    read from the checked row of `_weight_row`.  Each call returns a fresh list.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return list(_weight_row(k, max_n)[: max_n + 1])


def binomial_convolution(numbers: list[Fraction], n: int) -> list[Fraction]:
    """Σ_{l=0..n} C(n,l) a_l x^(n-l) for numbers = [a_0, ..., a_n, ...], normalized."""
    return poly_normalize([comb(n, n - i) * numbers[n - i] for i in range(n + 1)])


# ---------------------------------------------------------------------------
# Euler and Genocchi numbers/polynomials
# ---------------------------------------------------------------------------

_euler_cache: list[Fraction] = []


def _euler_numbers_recurrence(max_n: int) -> list[Fraction]:
    """Test oracle: E_n = δ_{0,n} - (1/2)·Σ_{l<n} C(n,l) E_l, in Fractions."""
    out: list[Fraction] = []
    for n in range(max_n + 1):
        delta = Fraction(1) if n == 0 else Fraction(0)
        acc = sum((comb(n, l) * out[l] for l in range(n)), Fraction(0))
        out.append(delta - acc / 2)
    return out


def _tangent_numbers(count: int) -> list[int]:
    """[T_1, T_3, ..., T_{2·count-1}], tan t = Σ T_n t^n/n!, in place (Brent–Harvey).

    T[1] = 1, T[k] = (k-1)·T[k-1], then T[j] = (j-k)·T[j-1] + (j-k+2)·T[j]
    for k = 2..count and j = k..count.
    """
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : count + 1]


def _zigzag_tangent_numbers(count: int) -> list[int]:
    """The same tangent numbers as the odd zigzag numbers A_1, A_3, ..., A_{2·count-1}.

    Seidel–Entringer boustrophedon, additions only: row n is the running sum
    of row n-1 read backwards, starting from 0, and A_n is its last entry.
    """
    row, odd = [1], []
    for n in range(1, 2 * count):
        row = list(accumulate(reversed(row), initial=0))
        if n % 2:
            odd.append(row[-1])
    return odd


def euler_numbers(max_n: int) -> list[Fraction]:
    """[E_0, ..., E_max_n], the coefficients of 2/(e^t + 1) = 1 - tanh(t/2).

    E_0 = 1, E_n = 0 for even n >= 2, and E_{2j-1} = (-1)^j T_{2j-1}/2^(2j-1)
    for the integer tangent numbers T.  These come from an in-place integer
    recurrence and are checked against the zigzag (boustrophedon) triangle,
    which shares no arithmetic with it; disagreement raises RuntimeError.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if len(_euler_cache) <= max_n:
        order = max(max_n, 2 * len(_euler_cache) + 4)
        count = (order + 1) // 2  # odd indices 1, 3, ..., <= order
        tangent = _tangent_numbers(count)
        if tangent != _zigzag_tangent_numbers(count):
            raise RuntimeError("Euler number routes disagree: tangent recurrence vs zigzag")
        filled = [Fraction(1)] + [Fraction(0)] * order
        for j, t in enumerate(tangent, 1):
            filled[2 * j - 1] = Fraction((-1) ** j * t, 2 ** (2 * j - 1))
        _euler_cache[:] = filled
    return _euler_cache[: max_n + 1]


_euler_poly_cache: dict[int, RationalRow] = {}
_genocchi_poly_cache: dict[int, RationalRow] = {}


def _convolution_poly(
    cache: dict[int, RationalRow], numbers: Callable[[int], list[Fraction]], n: int
) -> RationalRow:
    """binomial_convolution(numbers(n), n), kept once per n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n not in cache:
        cache[n] = RationalRow(binomial_convolution(numbers(n), n))
    return cache[n]


def euler_poly(n: int) -> list[Fraction]:
    """E_n(x) = Σ_{l=0..n} C(n,l) E_l x^(n-l), a fresh list per call."""
    return list(_convolution_poly(_euler_poly_cache, euler_numbers, n))


def euler_poly_row(n: int) -> IntegerRow:
    """The coefficients of E_n(x) as integers over one denominator (cached)."""
    return _convolution_poly(_euler_poly_cache, euler_numbers, n).integers


def genocchi_numbers(max_n: int) -> list[Fraction]:
    """[G_0, ..., G_max_n], the coefficients of 2t/(e^t + 1): G_0 = 0, G_n = n·E_{n-1}.

    All entries are integers (as Fractions with denominator 1).
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    euler = euler_numbers(max_n)
    return [Fraction(0)] + [n * euler[n - 1] for n in range(1, max_n + 1)]


def genocchi_poly(n: int) -> list[Fraction]:
    """G_n(x) = Σ_{l=0..n} C(n,l) G_l x^(n-l), a fresh list per call."""
    return list(_convolution_poly(_genocchi_poly_cache, genocchi_numbers, n))


def genocchi_poly_row(n: int) -> IntegerRow:
    """The coefficients of G_n(x) as integers over one denominator (cached)."""
    return _convolution_poly(_genocchi_poly_cache, genocchi_numbers, n).integers


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

    Ei_k(log(1+t)) = Σ_j w_j(k) t^j/j! with w_j(k) from `stirling_weights`, and
    2/(e^t + 1) = Σ_n E_n t^n/n!, so G_n^(k) = Σ_{j=1..n} C(n,j) w_j(k) E_{n-j}.
    The cached list grows by its missing entries only; each call copies it.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    cached = _poly_genocchi_cache.setdefault(k, [])
    if len(cached) <= max_n:
        euler = euler_numbers(max_n)
        weights = stirling_weights(k, max_n)
        cached += [
            sum((comb(n, j) * weights[j] * euler[n - j] for j in range(1, n + 1)), Fraction(0))
            for n in range(len(cached), max_n + 1)
        ]
    return cached[: max_n + 1]


_poly_genocchi_poly_cache: dict[int, dict[int, RationalRow]] = {}


def _poly_genocchi_row(k: int, n: int) -> RationalRow:
    """G_n^(k)(x) = Σ_{l=0..n} C(n,l) G_l^(k) x^(n-l), kept once per (k, n)."""
    cache = _poly_genocchi_poly_cache.setdefault(k, {})
    return _convolution_poly(cache, partial(poly_genocchi_numbers, k), n)


def poly_genocchi_poly(k: int, n: int) -> list[Fraction]:
    """G_n^(k)(x), a degree-(n-1) polynomial for n >= 1, as a fresh list per call."""
    return list(_poly_genocchi_row(k, n))


def poly_genocchi_poly_row(k: int, n: int) -> IntegerRow:
    """The coefficients of G_n^(k)(x) as integers over one denominator (cached)."""
    return _poly_genocchi_row(k, n).integers


def poly_euler_numbers(k: int, max_n: int) -> list[Fraction]:
    """[E_0^(k), ..., E_max_n^(k)] via E_n^(k) = G_{n+1}^(k) / (n+1)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    genocchi = poly_genocchi_numbers(k, max_n + 1)
    return [genocchi[n + 1] / (n + 1) for n in range(max_n + 1)]


_poly_euler_poly_cache: dict[int, dict[int, RationalRow]] = {}


def _poly_euler_row(k: int, n: int) -> RationalRow:
    """E_n^(k)(x) = Σ_{l=0..n} C(n,l) E_l^(k) x^(n-l), kept once per (k, n)."""
    cache = _poly_euler_poly_cache.setdefault(k, {})
    return _convolution_poly(cache, partial(poly_euler_numbers, k), n)


def poly_euler_poly(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x), a degree-n polynomial, as a fresh list per call, so a caller
    cannot alter the cached polynomial.  No fill-time check guards it: `thm3`,
    `cor7`, `cor2` and `thm1` catch a wrong poly-Genocchi number."""
    return list(_poly_euler_row(k, n))


def poly_euler_poly_row(k: int, n: int) -> IntegerRow:
    """The coefficients of E_n^(k)(x) as integers over one denominator (cached)."""
    return _poly_euler_row(k, n).integers


def theorem3_weights(k: int, n: int) -> list[Fraction]:
    """[a_0, ..., a_n] with a_l = C(n,l)·w_{n+1-l}(k)/(n+1-l): E_n^(k)(x) = Σ_l a_l E_l(x).

    The Fraction reference for `theorem3_integer_weights`, which serves every
    weighted sum over the index-k families.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    weights = stirling_weights(k, n + 1)
    return [comb(n, l) * weights[n + 1 - l] / (n + 1 - l) for l in range(n + 1)]


def theorem3_integer_weights(k: int, n: int) -> IntegerRow:
    """The Theorem 3 weights a_0, ..., a_n over one denominator, read off the weight row.

    With the row's numerators W over its denominator D, and
    C(n,l)/(n+1-l) = C(n+1,l)/(n+1), a_l = C(n+1,l)·W_{n+1-l} / ((n+1)·D).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    numerators, den = _weight_row(k, n + 1).integers
    return IntegerRow(
        tuple(comb(n + 1, l) * numerators[n + 1 - l] for l in range(n + 1)), (n + 1) * den
    )


def theorem3_combination(k: int, n: int, rows: Callable[[int], IntegerRow]) -> IntegerRow:
    """Σ_l a_l·rows(l) over the Theorem 3 weights a_0, ..., a_n of (k, n), trimmed.

    One `row_combination` over the integer weights, whose denominator
    multiplies the result's; rows(l) is read only where a_l is nonzero.
    """
    weights, den = theorem3_integer_weights(k, n)
    total = row_combination((a, rows(l)) for l, a in enumerate(weights) if a)
    return IntegerRow(total.numerators, total.den * den)


def poly_euler_via_theorem3(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x) = Σ_l a_l E_l(x) over the Theorem 3 weights (the Theorem 3 oracle route)."""
    return theorem3_combination(k, n, euler_poly_row).fractions()


def poly_euler_row_via_corollary7(k: int, n: int, m: int) -> IntegerRow:
    """E_n^(k)(x) by the distribution-based closed form for odd m, as an integer row.

    Σ_l a_l m^l Σ_{s=0..m-1} (-1)^s E_l((s+x)/m) over the Theorem 3 weights
    a_l: E_l(x) has degree l, so `row_distribution` of its row carries the m^l.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer")
    return theorem3_combination(k, n, lambda l: row_distribution(euler_poly_row(l), m))


def poly_euler_via_corollary7(k: int, n: int, m: int) -> list[Fraction]:
    """E_n^(k)(x) by the distribution-based closed form, for odd modulus m.

    The Fraction view of `poly_euler_row_via_corollary7`; must equal
    poly_euler_poly(k, n) for every odd m.
    """
    return poly_euler_row_via_corollary7(k, n, m).fractions()


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

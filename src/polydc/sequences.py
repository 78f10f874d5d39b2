"""Special numbers and polynomials: Stirling (both kinds), Euler, Genocchi,
polyexponential, poly-Genocchi, and poly-Euler families.

Every family is built in integers; `Fraction`s appear only in the views the
public functions return, each derived once per cached entry.  The Euler
numbers are E_n = e_n/2^n over the signed tangent numbers e_n, filled by an
in-place recurrence and checked at cache-fill time against the zigzag
triangle; no series arithmetic runs here.  The index-k families are built
from them and the Stirling weights w_j(k) = j!·[t^j] Ei_k(log(1+t)), one
grow-only `_IndexFamily` per k: the weight numerators W_j = L·w_j(k) over one
scale L, checked by Stirling inversion, and the poly-Genocchi numerators
g_n = Σ_j C(n,j)·W_j·2^j·e_{n-j} = L·2^n·G_n^(k).  One integer binomial
convolution, `_convolution_row`, turns the numbers into the Euler, Genocchi,
poly-Genocchi and poly-Euler polynomials, each kept once as a `RationalRow`:
the integer kernels read its `IntegerRow` (`euler_poly_row`,
`genocchi_poly_row`, `poly_genocchi_poly_row`, `poly_euler_poly_row`,
`theorem3_integer_weights`), and the public functions return a fresh
Fraction list from its view.  The poly families admit any integer index k:
for k <= 1 the weight j^(1-k) is an integer and L = 1.

The Theorem 3 and Corollary 7 routes to the poly-Euler polynomials are oracles
for the served ones, built as integer rows (`theorem3_combination` over the
Euler rows and their distribution sums) and compared by the verifiers.  The
tests check the Euler numbers against the binomial recurrence and the series
inversion of 2/(e^t + 1), the poly-Genocchi numbers against the series
2·Ei_k(log(1+t))/(e^t + 1), and the weights, the poly-Genocchi numbers, the
rows and the Theorem 3 weights against the `Fraction` loops of
`tests/oracles.py`; the oracles kept here (`_euler_numbers_recurrence`,
`polyexp_series`) are read by the benchmark.
"""

from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, floor, gcd, lcm
from operator import mul

from .exact_algebra import (
    IntegerRow,
    RationalRow,
    poly_eval,
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
    if n >= len(_stirling_rows):
        _grow_stirling(n)
    return _stirling_rows[n][m]


def stirling1_row(n: int) -> list[int]:
    """The row [S_1(n, 0), ..., S_1(n, n)]."""
    if n < 0:
        raise ValueError("stirling1 requires nonnegative n")
    if n >= len(_stirling_rows):
        _grow_stirling(n)
    return list(_stirling_rows[n])


_stirling2_rows: list[list[int]] = [[1]]


def _grow_stirling2(n: int) -> None:
    """Stirling numbers of the second kind: S_2(r, j) = S_2(r-1, j-1) + j·S_2(r-1, j)."""
    while len(_stirling2_rows) <= n:
        prev = _stirling2_rows[-1] + [0]
        _stirling2_rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, len(prev))])


class _IndexFamily:
    """The index-k families in integers, one grow-only instance per k.

    weights[n] = L·w_n(k) for n = 0..N and numbers[n] = L·2^n·G_n^(k) for
    n = 0..M, M <= N, share one scale L: lcm(1..N)^(k-1) for k >= 2, and 1
    for k <= 1, where j^(1-k) is an integer.  Both lists grow by their missing
    entries only; when N passes a prime power, L grows and the kept entries
    are multiplied by the ratio.  The `Fraction` views of the weights and of
    both families' numbers, and the polynomial rows, are derived once each.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.base = 1  # lcm(1..N)
        self.scale = 1  # L
        self.powers = [0]  # L·j^(1-k)
        self.weights = [0]
        self.numbers = [0]
        self.weight_view: list[Fraction] = []
        self.genocchi_view: list[Fraction] = []
        self.euler_view: list[Fraction] = []
        self.genocchi_rows: dict[int, RationalRow] = {}
        self.euler_rows: dict[int, RationalRow] = {}

    def grow_weights(self, max_n: int) -> None:
        """Extend the weights past max_n: W_n = Σ_{j=1..n} S_1(n, j)·L·j^(1-k).

        Each new N is checked by Stirling inversion in integers,
        Σ_{n=1..N} S_2(N, n)·W_n = L·N^(1-k), or RuntimeError is raised with
        the row left at its last checked length.
        """
        start = len(self.weights)
        if start > max_n:
            return
        _grow_stirling(max_n)
        _grow_stirling2(max_n)
        k, new = self.k, range(start, max_n + 1)
        if k >= 2:
            base = lcm(self.base, *new)
            ratio = (base // self.base) ** (k - 1)
            fresh = [(base // j) ** (k - 1) for j in new]
        else:
            base, ratio = 1, 1
            fresh = [j ** (1 - k) for j in new]
        kept = (self.powers, self.weights, self.numbers)
        if ratio > 1:
            kept = tuple([v * ratio for v in values] for values in kept)
        powers, weights, numbers = kept
        powers = powers + fresh
        weights = weights + [sum(map(mul, s1, powers)) for s1 in _stirling_rows[start : max_n + 1]]
        for big_n in new:
            if sum(map(mul, _stirling2_rows[big_n], weights)) != powers[big_n]:
                raise RuntimeError(f"Stirling weight row k={k} fails inversion at N={big_n}")
        self.powers, self.weights, self.numbers = powers, weights, numbers
        self.base, self.scale = base, self.scale * ratio

    def grow_numbers(self, max_n: int) -> None:
        """Extend the numbers past max_n: g_n = Σ_{j=1..n} C(n,j)·W_j·2^j·e_{n-j}.

        With e_i = 2^i·E_i, g_n/(L·2^n) = Σ_j C(n,j) w_j(k) E_{n-j} = G_n^(k);
        e_i vanishes at even i > 0, and e_0 = 1.
        """
        start = len(self.numbers)
        if start > max_n:
            return
        self.grow_weights(max_n)
        signed = _signed_tangent_numbers(max_n)
        shifted = [w << j for j, w in enumerate(self.weights[: max_n + 1])]
        self.numbers += [
            shifted[n] + sum(comb(n, i) * signed[i] * shifted[n - i] for i in range(1, n, 2))
            for n in range(start, max_n + 1)
        ]

    def genocchi_row(self, n: int) -> IntegerRow:
        """G_n^(k)(x) = Σ_{l=0..n} C(n,l) G_l^(k) x^(n-l)."""
        self.grow_numbers(n)
        return _convolution_row(self.numbers, n, self.scale)

    def euler_row(self, n: int) -> IntegerRow:
        """E_n^(k)(x) = G_{n+1}^(k)(x)/(n+1), as C(n,l)/(l+1) = C(n+1,l+1)/(n+1)."""
        self.grow_numbers(n + 1)
        return _convolution_row(self.numbers, n + 1, (n + 1) * self.scale)


_families: dict[int, _IndexFamily] = {}


def _family(k: int) -> _IndexFamily:
    family = _families.get(k)
    if family is None:
        family = _families[k] = _IndexFamily(k)
    return family


def _grown_view(
    view: list[Fraction], max_n: int, value: Callable[[int], Fraction]
) -> list[Fraction]:
    """view[: max_n + 1] as a fresh list, after extending view by value(n) for its missing n."""
    view += map(value, range(len(view), max_n + 1))
    return view[: max_n + 1]


def stirling_weights(k: int, max_n: int) -> list[Fraction]:
    """[w_0(k), ..., w_max_n(k)] with w_n(k) = Σ_{j=1..n} S_1(n, j) / j^(k-1).

    This is n!·[t^n] Ei_k(log(1+t)), the weight of the index-k poly families,
    read from the checked integer row of its `_IndexFamily`.  Each call
    returns a fresh list.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    family = _family(k)
    family.grow_weights(max_n)
    return _grown_view(
        family.weight_view, max_n, lambda n: Fraction(family.weights[n], family.scale)
    )


def _reduced(numerators: list[int], den: int) -> IntegerRow:
    """numerators/den over the least common denominator: both divided by their gcd."""
    g = gcd(den, *numerators)
    return IntegerRow(tuple(c // g for c in numerators), den // g)


def _convolution_row(numbers: list[int], n: int, den: int) -> IntegerRow:
    """Σ_{l=0..n} C(n,l)·a_l·x^(n-l) for a_l = numbers[l]/(den·2^l), reduced and trimmed.

    The one binomial convolution of the cached rows: the x^i numerator is
    C(n,i)·2^i·numbers[n-i] over den·2^n.
    """
    return _reduced([comb(n, i) * numbers[n - i] << i for i in range(n + 1)], den << n).trimmed()


def _cached_row(
    cache: dict[int, RationalRow], n: int, fill: Callable[[int], IntegerRow]
) -> RationalRow:
    """fill(n), kept once per n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = cache.get(n)
    if row is None:
        row = cache[n] = RationalRow(fill(n))
    return row


# ---------------------------------------------------------------------------
# Euler and Genocchi numbers/polynomials
# ---------------------------------------------------------------------------

_euler_cache: list[int] = []  # e_n = 2^n·E_n, the signed tangent numbers
_euler_view: list[Fraction] = []


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


def _signed_tangent_numbers(max_n: int) -> list[int]:
    """The cache [e_0, e_1, ...] of e_n = 2^n·E_n, filled past max_n (not a copy).

    e_0 = 1, e_n = 0 for even n >= 2, and e_{2j-1} = (-1)^j T_{2j-1} for the
    integer tangent numbers T.  These come from an in-place recurrence and are
    checked against the zigzag (boustrophedon) triangle, which shares no
    arithmetic with it; disagreement raises RuntimeError.
    """
    if len(_euler_cache) <= max_n:
        order = max(max_n, 2 * len(_euler_cache) + 4)
        count = (order + 1) // 2  # odd indices 1, 3, ..., <= order
        tangent = _tangent_numbers(count)
        if tangent != _zigzag_tangent_numbers(count):
            raise RuntimeError("Euler number routes disagree: tangent recurrence vs zigzag")
        filled = [1] + [0] * order
        for j, t in enumerate(tangent, 1):
            filled[2 * j - 1] = (-1) ** j * t
        _euler_cache[:] = filled
    return _euler_cache


def euler_integers(max_n: int) -> list[int]:
    """[e_0, ..., e_max_n] with e_n = 2^n·E_n, the signed tangent numbers, a fresh list."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return _signed_tangent_numbers(max_n)[: max_n + 1]


def euler_numbers(max_n: int) -> list[Fraction]:
    """[E_0, ..., E_max_n], the coefficients of 2/(e^t + 1) = 1 - tanh(t/2).

    E_n = e_n/2^n over the checked signed tangent numbers e_n of
    `_signed_tangent_numbers`; each call returns a fresh list.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    signed = _signed_tangent_numbers(max_n)
    return _grown_view(_euler_view, max_n, lambda n: Fraction(signed[n], 1 << n))


_euler_poly_cache: dict[int, RationalRow] = {}
_genocchi_poly_cache: dict[int, RationalRow] = {}


def _euler_row(n: int) -> IntegerRow:
    """E_n(x) = Σ_{l=0..n} C(n,l) E_l x^(n-l), with E_l = e_l/2^l."""
    return _convolution_row(_signed_tangent_numbers(n), n, 1)


def _genocchi_row(n: int) -> IntegerRow:
    """G_n(x) = Σ_{l=0..n} C(n,l) G_l x^(n-l), with G_l = l·E_{l-1} = 2l·e_{l-1}/2^l."""
    signed = _signed_tangent_numbers(n)
    return _convolution_row([0] + [2 * l * signed[l - 1] for l in range(1, n + 1)], n, 1)


def euler_poly(n: int) -> list[Fraction]:
    """E_n(x) = Σ_{l=0..n} C(n,l) E_l x^(n-l), a fresh list per call."""
    return list(_cached_row(_euler_poly_cache, n, _euler_row).fractions)


def euler_poly_row(n: int) -> IntegerRow:
    """The coefficients of E_n(x) as integers over one denominator (cached)."""
    return _cached_row(_euler_poly_cache, n, _euler_row).integers


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
    return list(_cached_row(_genocchi_poly_cache, n, _genocchi_row).fractions)


def genocchi_poly_row(n: int) -> IntegerRow:
    """The coefficients of G_n(x) as integers over one denominator (cached)."""
    return _cached_row(_genocchi_poly_cache, n, _genocchi_row).integers


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


def poly_genocchi_numbers(k: int, max_n: int) -> list[Fraction]:
    """[G_0^(k), ..., G_max_n^(k)] from 2·Ei_k(log(1+t))/(e^t + 1).

    Ei_k(log(1+t)) = Σ_j w_j(k) t^j/j! and 2/(e^t + 1) = Σ_n E_n t^n/n!, so
    G_n^(k) = Σ_{j=1..n} C(n,j) w_j(k) E_{n-j}: the integer g_n/(L·2^n) of
    `_IndexFamily.grow_numbers`.  Each call returns a fresh list.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    family = _family(k)
    family.grow_numbers(max_n)
    return _grown_view(
        family.genocchi_view, max_n, lambda n: Fraction(family.numbers[n], family.scale << n)
    )


def poly_genocchi_poly(k: int, n: int) -> list[Fraction]:
    """G_n^(k)(x), a degree-(n-1) polynomial for n >= 1, as a fresh list per call."""
    family = _family(k)
    return list(_cached_row(family.genocchi_rows, n, family.genocchi_row).fractions)


def poly_genocchi_poly_row(k: int, n: int) -> IntegerRow:
    """The coefficients of G_n^(k)(x) as integers over one denominator (cached)."""
    family = _family(k)
    return _cached_row(family.genocchi_rows, n, family.genocchi_row).integers


def poly_euler_numbers(k: int, max_n: int) -> list[Fraction]:
    """[E_0^(k), ..., E_max_n^(k)] via E_n^(k) = G_{n+1}^(k) / (n+1), a fresh list per call."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    family = _family(k)
    family.grow_numbers(max_n + 1)
    return _grown_view(
        family.euler_view,
        max_n,
        lambda n: Fraction(family.numbers[n + 1], (n + 1) * family.scale << (n + 1)),
    )


def poly_euler_poly(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x), a degree-n polynomial, as a fresh list per call, so a caller
    cannot alter the cached polynomial.  No fill-time check guards it: `thm3`,
    `cor7`, `cor2` and `thm1` catch a wrong poly-Genocchi number."""
    family = _family(k)
    return list(_cached_row(family.euler_rows, n, family.euler_row).fractions)


def poly_euler_poly_row(k: int, n: int) -> IntegerRow:
    """The coefficients of E_n^(k)(x) as integers over one denominator (cached)."""
    family = _family(k)
    return _cached_row(family.euler_rows, n, family.euler_row).integers


def theorem3_integer_weights(k: int, n: int) -> IntegerRow:
    """The Theorem 3 weights a_0, ..., a_n over their least common denominator.

    With the weight row's numerators W over its scale L, and
    C(n,l)/(n+1-l) = C(n+1,l)/(n+1), a_l = C(n+1,l)·W_{n+1-l} / ((n+1)·L),
    read off W_1..W_{n+1} and reduced, so the result does not depend on how
    far the row has been filled.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    family = _family(k)
    family.grow_weights(n + 1)
    weights = family.weights
    return _reduced(
        [comb(n + 1, l) * weights[n + 1 - l] for l in range(n + 1)], (n + 1) * family.scale
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

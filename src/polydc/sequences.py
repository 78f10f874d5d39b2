"""Special numbers and polynomials: Stirling (both kinds), Euler, Genocchi,
polyexponential, poly-Genocchi, and poly-Euler families.

Every family is built in integers; `Fraction`s appear only in the entries
and rows the public functions return, each derived once and kept by a
`functools.cache`.  The Euler numbers are E_n = e_n/2^n over the signed
tangent numbers e_n, filled by an in-place recurrence and checked at
cache-fill time against the zigzag triangle; no series arithmetic runs
here.  The index-k families are built from them and the Stirling weights
w_j(k) = j!·[t^j] Ei_k(log(1+t)), one grow-only `_IndexFamily` per k: the
weight numerators W_j = L·w_j(k) over one scale L, checked by Stirling
inversion, and the poly-Genocchi numerators g_n = Σ_j C(n,j)·W_j·2^j·e_{n-j}
= L·2^n·G_n^(k).  Each integer list grows, and is read with its L, under
one lock; reads of filled lists and cached entries take none.  One integer
binomial convolution, `_convolution_row`, turns the numbers into the
polynomials, each kept once as a `RationalRow`: the integer kernels read
its `IntegerRow` (`euler_poly_row`, `genocchi_poly_row`,
`poly_genocchi_poly_row`, `poly_euler_poly_row`), and the public functions
return a fresh Fraction list from its tuple.  The poly families admit any
integer index k: for k <= 1 the weight j^(1-k) is an integer and L = 1.

The Theorem 3 and Corollary 7 routes to the poly-Euler polynomials are oracles
for the served ones, built as integer rows by one call each of
`theorem3_combination` (over the Euler rows at m = 1 and at odd m, and over
the Genocchi rows for Theorem 6) and compared by the verifiers.  The
tests check the Euler numbers against the binomial recurrence and the series
inversion of 2/(e^t + 1), the poly-Genocchi numbers against the series
2·Ei_k(log(1+t))/(e^t + 1), and the weights, the poly-Genocchi numbers, the
rows and the Theorem 3 weights against the `Fraction` loops of
`tests/oracles.py`; the oracles kept here (`_euler_numbers_recurrence`,
`polyexp_series`) are read by the benchmark.
"""

from collections.abc import Callable
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, factorial, floor, gcd, lcm
from operator import mul
from threading import RLock

from .exact_algebra import IntegerRow, RationalRow, distributed_combination

_lock = RLock()  # every integer list grows under it


def _nonnegative(value: int, name: str) -> None:
    """Raise ValueError("<name> must be nonnegative") when value < 0."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")


# ---------------------------------------------------------------------------
# Stirling numbers of the first kind (signed), grow-only triangle
# ---------------------------------------------------------------------------

_stirling_rows: list[list[int]] = [[1]]


def _grow_stirling(n: int) -> None:
    with _lock:
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
    with _lock:
        while len(_stirling2_rows) <= n:
            prev = _stirling2_rows[-1] + [0]
            _stirling2_rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, len(prev))])


class _IndexFamily:
    """The index-k families in integers, one grow-only instance per k.

    weights[n] = L·w_n(k) for n = 0..N and numbers[n] = L·2^n·G_n^(k) for
    n = 0..M, M <= N, share one scale L: lcm(1..N)^(k-1) for k >= 2, and 1
    for k <= 1, where j^(1-k) is an integer.  Both lists grow by their missing
    entries only, under the module lock; when N passes a prime power, L grows
    and the kept entries are multiplied by the ratio into new lists, so a list
    read together with L under the lock stays consistent with it.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.base = 1  # lcm(1..N)
        self.scale = 1  # L
        self.powers = [0]  # L·j^(1-k)
        self.weights = [0]
        self.numbers = [0]

    def grow_weights(self, max_n: int) -> tuple[list[int], int]:
        """The weights, extended past max_n, and L, both of one growth step.

        W_n = Σ_{j=1..n} S_1(n, j)·L·j^(1-k).  Each new N is checked by
        Stirling inversion in integers, Σ_{n=1..N} S_2(N, n)·W_n = L·N^(1-k),
        or RuntimeError is raised with the row left at its last checked length.
        """
        with _lock:
            start = len(self.weights)
            if start > max_n:
                return self.weights, self.scale
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
            weights = weights + [
                sum(map(mul, s1, powers)) for s1 in _stirling_rows[start : max_n + 1]
            ]
            for big_n in new:
                if sum(map(mul, _stirling2_rows[big_n], weights)) != powers[big_n]:
                    raise RuntimeError(f"Stirling weight row k={k} fails inversion at N={big_n}")
            self.powers, self.weights, self.numbers = powers, weights, numbers
            self.base, self.scale = base, self.scale * ratio
            return weights, self.scale

    def grow_numbers(self, max_n: int) -> tuple[list[int], int]:
        """The numbers, extended past max_n, and L, both of one growth step.

        g_n = Σ_{j=1..n} C(n,j)·W_j·2^j·e_{n-j}: with e_i = 2^i·E_i,
        g_n/(L·2^n) = Σ_j C(n,j) w_j(k) E_{n-j} = G_n^(k); e_i vanishes at
        even i > 0, and e_0 = 1.
        """
        with _lock:
            start = len(self.numbers)
            if start > max_n:
                return self.numbers, self.scale
            weights, scale = self.grow_weights(max_n)
            signed = _signed_tangent_numbers(max_n)
            shifted = [w << j for j, w in enumerate(weights[: max_n + 1])]
            self.numbers += [
                shifted[n] + sum(comb(n, i) * signed[i] * shifted[n - i] for i in range(1, n, 2))
                for n in range(start, max_n + 1)
            ]
            return self.numbers, scale


_family = cache(_IndexFamily)


@cache
def _weight(k: int, n: int) -> Fraction:
    weights, scale = _family(k).grow_weights(n)
    return Fraction(weights[n], scale)


def stirling_weights(k: int, max_n: int) -> list[Fraction]:
    """[w_0(k), ..., w_max_n(k)] with w_n(k) = Σ_{j=1..n} S_1(n, j) / j^(k-1).

    This is n!·[t^n] Ei_k(log(1+t)), the weight of the index-k poly families,
    read from the checked integer row of its `_IndexFamily`.  Each call
    returns a fresh list.
    """
    _nonnegative(max_n, "max_n")
    family = _family(k)
    if len(family.weights) <= max_n:
        family.grow_weights(max_n)
    return [_weight(k, n) for n in range(max_n + 1)]


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


# ---------------------------------------------------------------------------
# Euler and Genocchi numbers/polynomials
# ---------------------------------------------------------------------------

_euler_cache: list[int] = []  # e_n = 2^n·E_n, the signed tangent numbers


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
    if len(_euler_cache) > max_n:
        return _euler_cache
    with _lock:
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
    _nonnegative(max_n, "max_n")
    return _signed_tangent_numbers(max_n)[: max_n + 1]


def euler_numbers(max_n: int) -> list[Fraction]:
    """[E_0, ..., E_max_n], the coefficients of 2/(e^t + 1) = 1 - tanh(t/2).

    E_n = e_n/2^n over the checked signed tangent numbers e_n of
    `_signed_tangent_numbers`; each call returns a fresh list.
    """
    _nonnegative(max_n, "max_n")
    _signed_tangent_numbers(max_n)
    return [_euler_number(n) for n in range(max_n + 1)]


@cache
def _euler_number(n: int) -> Fraction:
    return Fraction(_signed_tangent_numbers(n)[n], 1 << n)


@cache
def _euler_row(n: int) -> RationalRow:
    """E_n(x) = Σ_{l=0..n} C(n,l) E_l x^(n-l), with E_l = e_l/2^l."""
    _nonnegative(n, "n")
    return RationalRow(_convolution_row(_signed_tangent_numbers(n), n, 1))


@cache
def _genocchi_row(n: int) -> RationalRow:
    """G_n(x) = Σ_{l=0..n} C(n,l) G_l x^(n-l), with G_l = l·E_{l-1} = 2l·e_{l-1}/2^l."""
    _nonnegative(n, "n")
    signed = _signed_tangent_numbers(n)
    numbers = [0] + [2 * l * signed[l - 1] for l in range(1, n + 1)]
    return RationalRow(_convolution_row(numbers, n, 1))


def euler_poly(n: int) -> list[Fraction]:
    """E_n(x) = Σ_{l=0..n} C(n,l) E_l x^(n-l), a fresh list per call."""
    return list(_euler_row(n).fractions)


def euler_poly_row(n: int) -> IntegerRow:
    """The coefficients of E_n(x) as integers over one denominator (cached)."""
    return _euler_row(n).integers


def genocchi_numbers(max_n: int) -> list[Fraction]:
    """[G_0, ..., G_max_n], the coefficients of 2t/(e^t + 1): G_0 = 0, G_n = n·E_{n-1}.

    All entries are integers (as Fractions with denominator 1).
    """
    _nonnegative(max_n, "max_n")
    euler = euler_numbers(max_n)
    return [Fraction(0)] + [n * euler[n - 1] for n in range(1, max_n + 1)]


def genocchi_poly(n: int) -> list[Fraction]:
    """G_n(x) = Σ_{l=0..n} C(n,l) G_l x^(n-l), a fresh list per call."""
    return list(_genocchi_row(n).fractions)


def genocchi_poly_row(n: int) -> IntegerRow:
    """The coefficients of G_n(x) as integers over one denominator (cached)."""
    return _genocchi_row(n).integers


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
    _nonnegative(max_n, "max_n")
    family = _family(k)
    if len(family.numbers) <= max_n:
        family.grow_numbers(max_n)
    return [_poly_genocchi_number(k, n) for n in range(max_n + 1)]


@cache
def _poly_genocchi_number(k: int, n: int) -> Fraction:
    numbers, scale = _family(k).grow_numbers(n)
    return Fraction(numbers[n], scale << n)


@cache
def _poly_genocchi_row(k: int, n: int) -> RationalRow:
    """G_n^(k)(x) = Σ_{l=0..n} C(n,l) G_l^(k) x^(n-l)."""
    _nonnegative(n, "n")
    numbers, scale = _family(k).grow_numbers(n)
    return RationalRow(_convolution_row(numbers, n, scale))


def poly_genocchi_poly(k: int, n: int) -> list[Fraction]:
    """G_n^(k)(x), a degree-(n-1) polynomial for n >= 1, as a fresh list per call."""
    return list(_poly_genocchi_row(k, n).fractions)


def poly_genocchi_poly_row(k: int, n: int) -> IntegerRow:
    """The coefficients of G_n^(k)(x) as integers over one denominator (cached)."""
    return _poly_genocchi_row(k, n).integers


def poly_euler_numbers(k: int, max_n: int) -> list[Fraction]:
    """[E_0^(k), ..., E_max_n^(k)] via E_n^(k) = G_{n+1}^(k) / (n+1), a fresh list per call."""
    _nonnegative(max_n, "max_n")
    family = _family(k)
    if len(family.numbers) <= max_n + 1:
        family.grow_numbers(max_n + 1)
    return [_poly_euler_number(k, n) for n in range(max_n + 1)]


@cache
def _poly_euler_number(k: int, n: int) -> Fraction:
    numbers, scale = _family(k).grow_numbers(n + 1)
    return Fraction(numbers[n + 1], (n + 1) * scale << (n + 1))


@cache
def _poly_euler_row(k: int, n: int) -> RationalRow:
    """E_n^(k)(x) = G_{n+1}^(k)(x)/(n+1), as C(n,l)/(l+1) = C(n+1,l+1)/(n+1)."""
    _nonnegative(n, "n")
    numbers, scale = _family(k).grow_numbers(n + 1)
    return RationalRow(_convolution_row(numbers, n + 1, (n + 1) * scale))


def poly_euler_poly(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x), a degree-n polynomial, as a fresh list per call, so a caller
    cannot alter the cached polynomial.  No fill-time check guards it: `thm3`,
    `cor7`, `cor2` and `thm1` catch a wrong poly-Genocchi number."""
    return list(_poly_euler_row(k, n).fractions)


def poly_euler_poly_row(k: int, n: int) -> IntegerRow:
    """The coefficients of E_n^(k)(x) as integers over one denominator (cached)."""
    return _poly_euler_row(k, n).integers


@cache
def theorem3_integer_weights(k: int, n: int) -> IntegerRow:
    """The Theorem 3 weights a_0, ..., a_n over their least common denominator.

    With the weight row's numerators W over its scale L, and
    C(n,l)/(n+1-l) = C(n+1,l)/(n+1), a_l = C(n+1,l)·W_{n+1-l} / ((n+1)·L),
    read off W_1..W_{n+1} and reduced, so the result does not depend on how
    far the row has been filled, and is kept once per (k, n).
    """
    _nonnegative(n, "n")
    weights, scale = _family(k).grow_weights(n + 1)
    return _reduced([comb(n + 1, l) * weights[n + 1 - l] for l in range(n + 1)], (n + 1) * scale)


def theorem3_combination(k: int, n: int, rows: Callable[[int], IntegerRow], m: int) -> IntegerRow:
    """Σ_l a_l·m^(d_l)·Σ_{s=0..m-1} (-1)^s p_l((x + s)/m) over the Theorem 3
    weights a_0, ..., a_n of (k, n), for the polynomial p_l of rows(l) and
    d_l = len(rows(l)) - 1, trimmed; at m = 1 it is Σ_l a_l·rows(l).

    One `distributed_combination` over the integer weights, whose denominator
    multiplies the result's; rows(l) is read only where a_l is nonzero.
    """
    weights, den = theorem3_integer_weights(k, n)
    total = distributed_combination(((a, rows(l)) for l, a in enumerate(weights) if a), m)
    return IntegerRow(total.numerators, total.den * den)


def poly_euler_via_theorem3(k: int, n: int) -> list[Fraction]:
    """E_n^(k)(x) = Σ_l a_l E_l(x) over the Theorem 3 weights (the Theorem 3 oracle route)."""
    return theorem3_combination(k, n, euler_poly_row, 1).fractions()


def poly_euler_via_corollary7(k: int, n: int, m: int) -> list[Fraction]:
    """E_n^(k)(x) by the distribution-based closed form, for odd modulus m.

    Σ_l a_l m^l Σ_{s=0..m-1} (-1)^s E_l((s+x)/m) over the Theorem 3 weights
    a_l: E_l(x) has degree l, so `theorem3_combination` carries the m^l.  Must
    equal poly_euler_poly(k, n) for every odd m.
    """
    _nonnegative(n, "n")
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be a positive odd integer")
    return theorem3_combination(k, n, euler_poly_row, m).fractions()


# ---------------------------------------------------------------------------
# The sawtooth function
# ---------------------------------------------------------------------------

def sawtooth(x: Fraction) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 for non-integer x, else 0."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - floor(x) - Fraction(1, 2)

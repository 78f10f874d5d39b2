"""Dedekind-type DC sums, their poly generalization, and both sides of the
reciprocity law and the auxiliary closed-form identities around it.

The degree-p sum is T_p(h, m) = 2·Σ_{μ=1..m-1} (-1)^μ (μ/m) Ê_p(hμ/m), and
T_p^(k)(h, m) is the same sum over the index-k poly-Euler polynomial.  Here
Ê_p denotes the sign-alternating periodic extension

    Ê_p(x) = (-1)^floor(x) · E_p(x - floor(x)),

NOT the plain 1-periodic extension: with the plain extension the reciprocity
law below fails off the h = 1 / m = 1 axes, while with the alternating one it
holds exactly for every pair of odd h, m (coprime or not) and every integer
index k.  See README "Conventions" for the full discussion; the two
extensions agree whenever every argument hμ/m stays below 1, which covers all
h = 1 sums, so every pinned example value is unaffected.

For odd h and m the public sums `dc_sum` and `poly_dc_sum` take the Euclid
route: the closed-form classical reciprocity law

    m^l T_l(h, m) + h^l T_l(m, h) = 2E_l + 2E_{l+1}/(hm) - Σ_j C(l,j) E_j E_{l-j} h^j m^(l-j)

for odd coprime h, m, alternated with reduction of h mod 2m as in the
Euclidean algorithm (`euclid_chain`): one integer step of O(p^2) products
per link.  Links are few for most pairs, but one with m/2 < h < m lowers the
pair by m - h only, so (m - 2, m) takes (m - 1)/2 of them.  With an even
argument they run the one O(m) integer kernel, the single moments over the
row of E_p(x) or E_p^(k)(x) (`_row_dc_sum`).  Every identity below reads that
kernel or the O(mh) double moments, never the Euclid route, so no identity
checks reciprocity with a value that reciprocity built.  Both kinds of
moments are independent of k, each kernel returns one list, and both are
read at (h, m) and at (m, h) through one bounded cache (`_MomentCache`), so
they are shared across the points of a sweep and with each mirror point.
The moments of Theorem 13's left side (`_theorem13_moments`) are independent
of k too and are read through the same cache at (h, m, j).  The
Fraction loops that define the sums are the tests' oracles
(`tests/oracles.py`, `tests/test_dc_sums.py`).

The kernels and identities read the cached polynomials as integer rows
(numerators over one denominator) and the Theorem 3 weights as integers, so
each side of an identity is one integer sum, built into a Fraction once.
All functions return exact `Fraction` values.  Both sides of every identity,
here and in the verifier registry, are one type: `IdentitySides`, a
(lhs, rhs, holds) triple built by `IdentitySides.compare`, so holds ⇔ lhs = rhs
exactly.  Each identity is declared by its hypotheses (`Hypotheses`, a
decorator that checks them and then runs the body, kept as `__wrapped__`);
the verifier registry holds the declared functions themselves.
"""

from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache, wraps
from inspect import signature
from itertools import accumulate, repeat
from math import comb, floor, gcd, lcm
from operator import mul
from threading import Lock
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .exact_algebra import IntegerRow, horner, poly_eval, residue_moments
from .sequences import (
    euler_integers,
    euler_poly,
    euler_poly_row,
    poly_euler_poly_row,
    theorem3_integer_weights,
)


class IdentitySides(NamedTuple):
    """Both sides of one identity at one parameter point."""

    lhs: Fraction
    rhs: Fraction
    holds: bool

    @classmethod
    def compare(cls, lhs: Fraction, rhs: Fraction) -> "IdentitySides":
        """The sides with holds set by exact equality."""
        return cls(lhs, rhs, lhs == rhs)


Params = Mapping[str, int]
T = TypeVar("T")


class Rule(NamedTuple):
    """A hypothesis on one parameter: a test of its value (and of the value of
    `other`, for a rule relating two parameters), the README text and the
    error message, both with the parameter name as {0}."""

    test: Callable[..., bool]
    text: str
    message: str
    other: str | None = None


def GE(bound: int) -> Rule:
    """The parameter is at least bound."""
    return Rule(lambda v: v >= bound, f"`{{0}} >= {bound}`", f"{{0}} must be >= {bound}")


ODD_POS = Rule(
    lambda v: v >= 1 and v % 2 == 1, "odd `{0} >= 1`", "{0} must be a positive odd integer"
)
ODD_GT1 = Rule(
    lambda v: v > 1 and v % 2 == 1, "odd `{0} > 1`", "{0} must be odd and greater than 1"
)
#: lemma8's 1 <= s < p, which also rules out every p < 2.
BELOW_P = Rule(lambda v, p: 1 <= v < p, "`1 <= {0} < p`", "{0} must satisfy 1 <= {0} < p", "p")
#: gcd(h, m) = 1, the rule on h that `Hypotheses.coprime` adds after the others.
COPRIME = Rule(lambda h, m: gcd(h, m) == 1, "`gcd(h, m) = 1`", "h and m must be coprime", "m")


class Hypotheses(NamedTuple):
    """An identity's hypotheses as data: one rule per constrained parameter,
    checked in order, then `COPRIME` on h if coprime is set.  Applied to a
    function, they declare it an identity (`__call__`)."""

    rules: Mapping[str, Rule]
    coprime: bool = False

    def named(self) -> list[tuple[str, Rule]]:
        """Each hypothesis in order as (name, rule), `COPRIME` on h last."""
        return [*self.rules.items(), *[("h", COPRIME)] * self.coprime]

    def checks(self, params: Sequence[str]) -> list[tuple[Callable, str, int, int | None]]:
        """Each hypothesis in order as (test, message, i, j): i and j are the
        positions in params of the rule's parameter and of its other one
        (j is None for a rule that reads its own value only)."""
        return [
            (rule.test, rule.message.format(name), params.index(name),
             rule.other and params.index(rule.other))
            for name, rule in self.named()
        ]

    def violation(self, point: Params) -> str | None:
        """The message for the first hypothesis the point violates, or None."""
        for name, rule in self.rules.items():
            value, other = point[name], rule.other
            if not (rule.test(value) if other is None else rule.test(value, point[other])):
                return rule.message.format(name)
        if self.coprime and not COPRIME.test(point["h"], point["m"]):
            return COPRIME.message
        return None

    def require(self, **point: int) -> None:
        """Raise ValueError with the first violated hypothesis's message."""
        message = self.violation(point)
        if message:
            raise ValueError(message)

    def __call__(self, body: Callable[..., T]) -> Callable[..., T]:
        """body declared under these hypotheses: a function that checks them on
        its arguments, by body's parameter names, and then runs body.  It keeps
        `hypotheses`, `params` (the names, in order), `__wrapped__` (body), their
        `checks(params)` and `check`, which raises the first violated one's
        message for the values in params order, without a point dict."""
        params = tuple(signature(body).parameters)
        checks = self.checks(params)

        def check(values: Sequence[int]) -> None:
            for test, message, i, j in checks:
                if not (test(values[i]) if j is None else test(values[i], values[j])):
                    raise ValueError(message)

        @wraps(body)
        def identity(*args: int, **kwargs: int) -> T:
            values = args + tuple(map(kwargs.get, params[len(args) :])) if kwargs else args
            # A missing or unexpected argument is left to body's own TypeError.
            if len(args) + len(kwargs) == len(params) and None not in values:
                check(values)
            return body(*args, **kwargs)

        vars(identity).update(hypotheses=self, params=params, checks=checks, check=check)
        return identity


#: The served sums' hypotheses, shared with `k1_collapse_sides` and the CLI.
DC_SUM_HYPOTHESES = Hypotheses({"p": GE(1), "h": GE(1), "m": GE(1)})
_ODD_DEGREE = Hypotheses({"p": ODD_GT1, "m": ODD_POS})
_RECIPROCITY = Hypotheses({"p": GE(1), "h": ODD_POS, "m": ODD_POS})


@lru_cache(maxsize=None)
def _euler_alt_bar(degree: int, x: Fraction) -> Fraction:
    """Memoized Ê_degree(x) = (-1)^floor(x)·E_degree(x - floor(x)), on no serving
    path (the sums use integer kernels); kept for the benchmark's cache_info()."""
    d = floor(x)
    value = poly_eval(euler_poly(degree), x - d)
    return -value if d % 2 else value


def _common_scales(rows: Sequence[IntegerRow]) -> tuple[list[int], int]:
    """The least common denominator D of the rows and the factor D/d of each
    row over its own d: a sum over the rows takes them to D by one scalar per
    row, without a scaled copy of their numerators."""
    den = lcm(*(row.den for row in rows))
    return [den // row.den for row in rows], den


def _single_moments(h: int, m: int, degree: int) -> list[int]:
    """S_i = Σ_{μ=1..m-1} (-1)^(μ+d) μ r^i for i = 0..degree, d, r = divmod(hμ, m)."""
    weights = [0] * m
    for mu in range(1, m):
        d, r = divmod(h * mu, m)
        weights[r] += -mu if (mu + d) % 2 else mu
    return residue_moments(weights, degree)


#: The bound of the moment cache, in charged bits.  Each entry is charged the
#: bit_length of its moments, 256 bits per moment (CPython's int object and the
#: tuple slot that holds it) and 2560 bits for its key, tuples and slot, so the
#: charge follows its memory and entries of zeros count too.  2^25 bits (4 MiB)
#: hold every entry of one k-slice of a thm14 sweep at p ≤ 8 over all odd
#: h, m ≤ 99, or about 18 double-moment entries at the CLI caps (p = 500,
#: m·h = 10^4: 0.22 MB each); the thm13 entries of the catalogue grid take
#: about 10^6.
MOMENT_CACHE_BITS = 1 << 25


class MomentCacheInfo(NamedTuple):
    """The moment cache's counters: stored entries, their charged bits, hits, misses."""

    entries: int
    bits: int
    hits: int
    misses: int


class _MomentCache:
    """The k-independent moments of the reciprocity and thm13 sides, shared across points.

    An entry, keyed by the kernel and its point, (kernel, h, m) or
    (kernel, h, m, j), holds the kernel's one moment list as a tuple at the
    highest degree read so far; the moments at degree p are the
    first p + 1 of those at any higher degree.  A read above the stored degree
    runs the kernel at the new degree and replaces the entry.  Entries are
    evicted least recently used first while the charged bits would exceed
    `MOMENT_CACHE_BITS`, and an entry larger than that is returned unstored.
    The residue weights the kernels build are never kept.  The entries and
    counters change under a lock; the kernels run outside it.
    """

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, tuple[tuple[int, ...], int]] = OrderedDict()
        self.bits = self.hits = self.misses = 0
        self.lock = Lock()

    def read(
        self, kernel: Callable[..., list[int]], h: int, m: int, degree: int, *extra: int
    ) -> tuple[int, ...]:
        """The moments kernel(h, m, degree, *extra) for i = 0..degree, stored
        under (kernel, h, m, *extra): extra is j for `_theorem13_moments` and
        empty for `_single_moments` and `_double_moments`."""
        key = (kernel, h, m) + extra
        with self.lock:
            moments, _ = self.entries.get(key, ((), 0))
            if len(moments) > degree:
                self.hits += 1
                self.entries.move_to_end(key)
                return moments[: degree + 1]
            self.misses += 1
        moments = tuple(kernel(h, m, degree, *extra))
        bits = sum(v.bit_length() + 256 for v in moments) + 2560
        with self.lock:
            _, replaced = self.entries.pop(key, ((), 0))
            self.bits -= replaced
            if bits <= MOMENT_CACHE_BITS:
                while self.bits + bits > MOMENT_CACHE_BITS:
                    self.bits -= self.entries.popitem(last=False)[1][1]
                self.entries[key] = moments, bits
                self.bits += bits
        return moments


_MOMENT_CACHE = _MomentCache()


def moment_cache_info() -> MomentCacheInfo:
    """The counters of the cache that shares the single, double and thm13 moments."""
    cache = _MOMENT_CACHE
    with cache.lock:
        return MomentCacheInfo(len(cache.entries), cache.bits, cache.hits, cache.misses)


def _moment_total(numerators: Sequence[int], h: int, m: int) -> int:
    """Σ_i c_i S_i m^(p-i) over the numerators c_i of a degree-p polynomial over den
    and the integer moments S_i of `_single_moments`, read through the moment
    cache: the DC sum over that polynomial is 2·total / (den·m^(p+1))."""
    p = len(numerators) - 1
    moments = _MOMENT_CACHE.read(_single_moments, h, m, p)
    return sum(c * s * m ** (p - i) for i, (c, s) in enumerate(zip(numerators, moments)))


def _row_dc_sum(row: IntegerRow, h: int, m: int) -> Fraction:
    """The DC sum 2·Σ_{μ=1..m-1} (-1)^μ (μ/m) Ê(hμ/m) over the polynomial of one
    integer row, 2·`_moment_total` / (den·m^(p+1)), in O(m) integer steps."""
    numerators, den = row
    return Fraction(2 * _moment_total(numerators, h, m), den * m ** len(numerators))


def _classical_law(degrees: Sequence[int], e: list[int]) -> Callable[[int, int], list[int]]:
    """The closed-form classical reciprocity law at the given degrees.

    The returned function maps (h, m) to [N_l for l in degrees], where
    N_l = 2^l·hm·(m^l T_l(h, m) + h^l T_l(m, h)) for odd coprime h, m:

        N_l = 2hm·e_l + e_{l+1} - hm·Σ_j C(l,j) e_j e_{l-j} h^j m^(l-j),

    with e = `euler_integers` up to max(degrees) + 1.  Only the terms with
    e_j·e_{l-j} ≠ 0 are kept, once for every (h, m).
    """
    top = max(degrees)
    terms = [
        [(j, comb(l, j) * e[j] * e[l - j]) for j in range(l + 1) if e[j] and e[l - j]]
        for l in degrees
    ]

    def numerators(h: int, m: int) -> list[int]:
        h_pow = list(accumulate(repeat(h, top), mul, initial=1))
        m_pow = list(accumulate(repeat(m, top), mul, initial=1))
        n = h * m
        return [
            2 * n * e[l] + e[l + 1] - n * sum(c * h_pow[j] * m_pow[l - j] for j, c in row)
            for l, row in zip(degrees, terms)
        ]

    return numerators


def euclid_chain(h: int, m: int) -> Iterator[tuple[int, int, bool]]:
    """The links (h, m, flip) by which `_euclid_sums` reduces T_l(h, m), odd h, m.

    Over g = gcd(h, m): reduce h mod 2m (Ê has period 2); if h > m, use
    T_l(2m - h, m) = T_l(-h, m) = (-1)^(l+1) T_l(h, m) and set flip; yield;
    swap to (m, h); stop at T_l(h, 1) = 0.
    """
    g = gcd(h, m)
    h, m = h // g, m // g
    while m > 1:
        h %= 2 * m
        flip = h > m
        if flip:
            h = 2 * m - h
        yield h, m, flip
        h, m = m, h


def _euclid_sums(h: int, m: int, degrees: Sequence[int]) -> list[int]:
    """[2^l·m^(l+1)·T_l(h, m) for l in degrees], integers, for odd h and m.

    One integer step per link of `euclid_chain`, as the Euclidean algorithm
    computes classical Dedekind sums.  Unwinding the chain solves
    `_classical_law` for V_l(h, m) = (N_l - m·V_l(m, h)) / h, a division
    that must be exact or RuntimeError is raised.  A common factor
    g = gcd(h, m) adds a constant: T_l(gh', gm') = T_l(h', m') + (g - 1)·E_l / m'^l.
    """
    e = euler_integers(max(degrees) + 1)
    law = _classical_law(degrees, e)
    g = gcd(h, m)
    reduced_m = m // g
    sums = [0] * len(degrees)
    for h, m, flip in reversed(list(euclid_chain(h, m))):
        step = []
        for l, n, swapped in zip(degrees, law(h, m), sums):
            value, rest = divmod(n - m * swapped, h)
            if rest:
                raise RuntimeError(f"Euclid DC sum step is inexact at h={h}, m={m}, l={l}")
            step.append(-value if flip and l % 2 == 0 else value)
        sums = step
    return [g ** (l + 1) * (v + (g - 1) * reduced_m * e[l]) for l, v in zip(degrees, sums)]


def dc_sum(p: int, h: int, m: int) -> Fraction:
    """T_p(h, m) = 2·Σ_{μ=1..m-1} (-1)^μ (μ/m) Ê_p(hμ/m), exactly.

    For odd h and m, read from `_euclid_sums`, one step per link of
    `euclid_chain`; otherwise the O(m) kernel `_row_dc_sum` over E_p(x).
    """
    DC_SUM_HYPOTHESES.require(p=p, h=h, m=m)
    if h % 2 and m % 2:
        return Fraction(_euclid_sums(h, m, [p])[0], 2**p * m ** (p + 1))
    return _row_dc_sum(euler_poly_row(p), h, m)


def poly_dc_sum(k: int, p: int, h: int, m: int) -> Fraction:
    """T_p^(k)(h, m): the degree-p sum over the index-k poly-Euler polynomial.

    For odd h and m, Theorem 3 gives T_p^(k)(h, m) = Σ_l a_l T_l(h, m) over the
    `theorem3_integer_weights` a_l, with the T_l read from `_euclid_sums`;
    otherwise the O(m) kernel `_row_dc_sum` over E_p^(k)(x).
    """
    DC_SUM_HYPOTHESES.require(p=p, h=h, m=m)
    if not (h % 2 and m % 2):
        return _row_dc_sum(poly_euler_poly_row(k, p), h, m)
    numerators, den = theorem3_integer_weights(k, p)
    degrees = [l for l, a in enumerate(numerators) if a]
    sums = _euclid_sums(h, m, degrees)
    total = sum(numerators[l] * v * (2 * m) ** (p - l) for l, v in zip(degrees, sums))
    return Fraction(total, den * 2**p * m ** (p + 1))


def _correction_numerator(numerators: Sequence[int], e: list[int], m: int) -> int:
    """The correction 2·Σ_{ν=0..p} C(p,ν) E_ν^(k) E_{p+1-ν} m^(ν-1) times den·2^p·m.

    numerators are those of E_p^(k)(x) over den, so c_{p-ν} = den·C(p,ν)·E_ν^(k),
    and e = `euler_integers` up to p + 1.
    """
    p = len(numerators) - 1
    return sum(numerators[p - nu] * e[p + 1 - nu] * (2 * m) ** nu for nu in range(p + 1))


def _s_pk_lhs(numerators: Sequence[int], den: int, e: list[int], m: int) -> Fraction:
    """S_p^(k)(1, m) = m^p·T_p^(k)(1, m) minus the correction, from the single moments."""
    p = len(numerators) - 1
    total = 2 ** (p + 1) * _moment_total(numerators, 1, m)
    return Fraction(total - _correction_numerator(numerators, e, m), den * 2**p * m)


@Hypotheses({"p": GE(1), "m": ODD_POS})
def s_pk_of_1_m(k: int, p: int, m: int) -> IdentitySides:
    """The auxiliary sum S_p^(k)(1, m) against its double-sum closed form.

    lhs: m^p·T_p^(k)(1, m) minus the correction 2·Σ C(p,ν)E_ν^(k)E_{p+1-ν}m^(ν-1)
    (the defining combination); rhs: Σ_{ν} C(p,ν) E_ν^(k) Σ_{i=0..p-ν}
    C(p-ν+1, i) E_i m^(p-i).  Requires odd m.
    """
    ek, den = poly_euler_poly_row(k, p)
    e = euler_integers(p + 1)
    rhs = sum(
        ek[p - nu] * comb(p - nu + 1, i) * e[i] * (2 * m) ** (p - i)
        for nu in range(p + 1)
        for i in range(p - nu + 1)
    )
    return IdentitySides.compare(_s_pk_lhs(ek, den, e, m), Fraction(rhs, den * 2**p))


@_ODD_DEGREE
def theorem11_sides(k: int, p: int, m: int) -> IdentitySides:
    """S_p^(k)(1, m) against its odd-degree expansion, for odd p > 1, odd m.

    rhs: Σ_{i=1..p-2} Σ_{ν=0..p-i} C(p,ν) C(p-ν+1, i) E_ν^(k) E_i m^(p-i)
    + (p+1)·E_p + m^p·E_p^(k)(1).
    """
    ek, den = poly_euler_poly_row(k, p)
    e = euler_integers(p + 1)
    rhs = sum(
        ek[p - nu] * comb(p - nu + 1, i) * e[i] * (2 * m) ** (p - i)
        for i in range(1, p - 1)
        for nu in range(p - i + 1)
    )
    rhs += (p + 1) * den * e[p] + (2 * m) ** p * sum(ek)
    return IdentitySides.compare(_s_pk_lhs(ek, den, e, m), Fraction(rhs, den * 2**p))


@_ODD_DEGREE
def theorem12_sides(k: int, p: int, m: int) -> IdentitySides:
    """m^p·T_p^(k)(1, m) against its full closed form, for odd p > 1, odd m.

    rhs: Σ_{i=0..p} C(p,i) E_{p-i}^(k)(1) E_i m^(p-i)
       + Σ_{i=1..p} C(p,i-1) (E_{p-i+1}^(k)(1) - E_{p-i+1}^(k)) m^(p-i) E_i
       + the correction sum 2·Σ C(p,ν)E_ν^(k)E_{p+1-ν}m^(ν-1).

    The rhs reads E_n^(k)(1) and E_n^(k) as the sum and the constant term of
    the rows of E_n^(k)(x), n = 0..p, each scaled to their common denominator.
    """
    rows = [poly_euler_poly_row(k, n) for n in range(p + 1)]
    scales, den = _common_scales(rows)
    top, top_den = rows[p]
    lhs = Fraction(2 * _moment_total(top, 1, m), top_den * m)
    at_one = [scale * sum(row.numerators) for scale, row in zip(scales, rows)]
    constant = [scale * row.numerators[0] for scale, row in zip(scales, rows)]
    e = euler_integers(p + 1)
    rhs = sum(comb(p, i) * at_one[p - i] * e[i] * (2 * m) ** (p - i) for i in range(p + 1))
    rhs += sum(
        comb(p, i - 1) * (at_one[p - i + 1] - constant[p - i + 1]) * (2 * m) ** (p - i) * e[i]
        for i in range(1, p + 1)
    )
    rhs = m * rhs + scales[p] * _correction_numerator(top, e, m)
    return IdentitySides.compare(lhs, Fraction(rhs, den * 2**p * m))


def _theorem13_moments(h: int, m: int, degree: int, j: int) -> list[int]:
    """M_i = Σ_{μ=0..m-1} (-1)^r e(h - d) μ^i for i = 0..degree, d, r = divmod(hμ, m),
    over the numerators e of E_j(x): `theorem13_sides`' moments at j = p - t.

    E_j(h - d) is evaluated once, by `horner`, for each of the d that occur."""
    numerators = euler_poly_row(j).numerators
    steps = [divmod(h * mu, m) for mu in range(m)]
    e_at = {d: horner(numerators, h - d) for d in {d for d, _ in steps}}
    return residue_moments([-e_at[d] if r % 2 else e_at[d] for d, r in steps], degree)


@Hypotheses({"p": GE(1), "h": GE(1), "m": ODD_POS}, coprime=True)
def theorem13_sides(k: int, p: int, h: int, m: int) -> IdentitySides:
    """The coprime-modulus expansion of the degree-p sums against its closed form.

    lhs: m^p Σ_{μ=0..m-1} (-1)^(hμ mod m) Σ_{s=0..p} C(p,s) h^s E_s^(k)(μ/m)
    E_{p-s}(h - floor(hμ/m)); rhs: Σ_{s=0..p} C(p,s) (mh)^(p-s) E_s E_{p-s}^(k)(1).

    Requires gcd(h, m) = 1 and odd m.  The sign on each μ-term is the parity
    of the reduced residue hμ mod m — equivalently (-1)^(hμ + floor(hμ/m)) —
    which is what the residue-permutation argument behind the identity
    produces; with the bare sign (-1)^μ the two sides differ for h > 1.

    The lhs is one integer sum, built into a Fraction once over the common
    denominators dk and de of the two families; each row's factor over its
    own denominator rides on its terms.  It runs one degree t at a time: the
    moments M_i of `_theorem13_moments` at (h, m, p - t), read through the
    moment cache, give m^(p-t)·Σ_i q_i M_i m^(t-i) over the numerators q of
    E_t^(k)(x).  They do not depend on k, so a sweep shares them across k
    and p.  The rhs reads E_t^(k)(1) as the row sums of the same numerators.
    """
    ek_rows = [poly_euler_poly_row(k, t) for t in range(p + 1)]
    ek_scales, dk = _common_scales(ek_rows)
    e_scales, de = _common_scales([euler_poly_row(j) for j in range(p + 1)])
    total = 0
    for t, (scale, (numerators, _)) in enumerate(zip(ek_scales, ek_rows)):
        moments = _MOMENT_CACHE.read(_theorem13_moments, h, m, t, p - t)
        # Σ_i q_i M_i m^(t-i), by Horner's rule in m over the products q_i M_i.
        inner = horner(list(map(mul, numerators, moments))[::-1], m)
        total += comb(p, t) * h**t * scale * e_scales[p - t] * m ** (p - t) * inner
    e = euler_integers(p)
    at_one = [scale * sum(row.numerators) for scale, row in zip(ek_scales, ek_rows)]
    rhs = sum(comb(p, s) * (2 * m * h) ** (p - s) * e[s] * at_one[p - s] for s in range(p + 1))
    return IdentitySides.compare(Fraction(total, dk * de), Fraction(rhs, dk * 2**p))


def _double_moments(h: int, m: int, degree: int) -> list[int]:
    """A_i = Σ ± μh r^i for i = 0..degree.

    The sum runs over μ = 0..m-1, ν = 0..h-1 with d, r = divmod(νm + μh, mh)
    and sign (-1)^(μ+ν+d), so that Ê_l(ν/h + μ/m) = (-1)^d E_l(r/(mh)).  The
    moments B_i = Σ ± νm r^i of the same terms are A_i at (m, h): swapping
    (h, μ) with (m, ν) keeps r, d and the sign.  For each μ ≥ 1 (μ = 0 weighs
    nothing), r steps by m from μh with d = 0 while ν < h - ⌊μh/m⌋, then from
    μh mod m with d = 1, and the sign alternates in ν.
    """
    n, step = m * h, 2 * m
    weights = [0] * n
    for mu in range(1, m):
        w = mu * h
        low = -w if mu % 2 else w
        high = low if (h - w // m) % 2 else -low
        for start, stop, sign in ((w, n, low), (w % m, w, high)):
            for r in range(start, stop, step):
                weights[r] += sign
            for r in range(start + m, stop, step):
                weights[r] -= sign
    return residue_moments(weights, degree)


def _reciprocity_lhs(row: IntegerRow, h: int, m: int) -> Fraction:
    """m^p·T(h, m) + h^p·T(m, h) over the degree-p polynomial of one integer row,
    both sums from the single moments (`_moment_total`)."""
    numerators, den = row
    total = h * _moment_total(numerators, h, m) + m * _moment_total(numerators, m, h)
    return Fraction(2 * total, den * m * h)


def _reciprocity_rhs(weights: IntegerRow, h: int, m: int) -> Fraction:
    """The double-sum right side of reciprocity over the weights a_0, ..., a_p:

        2 Σ_{l=0..p} a_l (mh)^(l-1) Σ_{μ=0..m-1} Σ_{ν=0..h-1} (-1)^(μ+ν)
          · ((μh)·m^(p-l) + (νm)·h^(p-l)) · Ê_l(ν/h + μ/m).

    Read from the double moments of `_double_moments` through the moment
    cache, A at (h, m) and B at (m, h), as `_reciprocity_lhs` reads the
    single moments: the l-th term is
    (mh)^(l-1)·a_l·Σ_i e_{l,i} (m^(p-l) A_i + h^(p-l) B_i) / (mh)^i, with e_l
    the coefficients of E_l(x), all integers over one denominator; E_l(x) is
    read only where a_l is nonzero.
    """
    numerators, weight_den = weights
    p = len(numerators) - 1
    degrees = [l for l, a in enumerate(numerators) if a]
    rows = [euler_poly_row(l) for l in degrees]
    scales, row_den = _common_scales(rows)
    n = m * h
    a = _MOMENT_CACHE.read(_double_moments, h, m, p)
    b = _MOMENT_CACHE.read(_double_moments, m, h, p)
    total = 0
    for l, scale, row in zip(degrees, scales, rows):
        m_pow, h_pow = m ** (p - l), h ** (p - l)
        total += scale * numerators[l] * sum(
            c * (m_pow * a[i] + h_pow * b[i]) * n ** (l - i)
            for i, c in enumerate(row.numerators)
        )
    return Fraction(2 * total, weight_den * row_den * n)


@_RECIPROCITY
def reciprocity_sides(k: int, p: int, h: int, m: int) -> IdentitySides:
    """Both sides of the reciprocity law for the degree-p index-k sums.

    lhs: m^p·T_p^(k)(h, m) + h^p·T_p^(k)(m, h).
    rhs: 2 Σ_{μ=0..m-1} Σ_{l=0..p} Σ_{ν=0..h-1} Σ_{j=1..p+1-l} (-1)^(μ+ν)
         (mh)^(l-1) C(p,l) S_1(p-l+1, j) / ((p-l+1) j^(k-1))
         · ((μh)·m^(p-l) + (νm)·h^(p-l)) · Ê_l(ν/h + μ/m).

    Requires odd h and odd m; holds for every such pair (coprimality is not
    needed) and every integer k.  The rhs is symmetric under (h, μ) ↔ (m, ν)
    term by term, matching the symmetric lhs, so both read their moments at
    (h, m) and at (m, h).

    The lhs is `_reciprocity_lhs` over E_p^(k)(x), from the single moments;
    the rhs is `_reciprocity_rhs` over the Theorem 3 weights
    a_l = C(p,l)·w_{p-l+1}(k)/(p-l+1) (`theorem3_integer_weights`), from the
    double moments.
    """
    lhs = _reciprocity_lhs(poly_euler_poly_row(k, p), h, m)
    return IdentitySides.compare(lhs, _reciprocity_rhs(theorem3_integer_weights(k, p), h, m))


@_RECIPROCITY
def corollary15_rhs(p: int, h: int, m: int) -> Fraction:
    """The single-sum right side of the classical (k = 1) reciprocity law.

    2·(mh)^(p-1) Σ_{μ=0..m-1} Σ_{ν=0..h-1} (-1)^(μ+ν) (μh + νm) Ê_p(ν/h + μ/m).
    The sign is (-1)^(μ+ν): that choice agrees exactly with the general law
    at k = 1 on the full odd grid (the (-1)^(μ+ν-1) variant does not).
    It is `_reciprocity_rhs` over the one weight a_p = 1, which is what the
    Theorem 3 weights are at k = 1.
    """
    return _reciprocity_rhs(IntegerRow((0,) * p + (1,), 1), h, m)


@_RECIPROCITY
def corollary15_sides(p: int, h: int, m: int) -> IdentitySides:
    """The classical (k = 1) reciprocity law against its single-sum right side.

    lhs: `_reciprocity_lhs` over E_p(x), from the single moments; rhs:
    `corollary15_rhs` unchecked, from the double moments.
    """
    rhs = corollary15_rhs.__wrapped__(p, h, m)
    return IdentitySides.compare(_reciprocity_lhs(euler_poly_row(p), h, m), rhs)


@DC_SUM_HYPOTHESES
def k1_collapse_sides(p: int, h: int, m: int) -> IdentitySides:
    """T_p^(1)(h, m) against T_p(h, m): one kernel, `_row_dc_sum`, over two rows
    built independently, E_p^(1)(x) from the Stirling weights and E_p(x) from
    the tangent numbers."""
    return IdentitySides.compare(
        _row_dc_sum(poly_euler_poly_row(1, p), h, m), _row_dc_sum(euler_poly_row(p), h, m)
    )


@Hypotheses({"p": GE(1), "h": ODD_POS, "m": ODD_POS}, coprime=True)
def reciprocity_closed_form_sides(p: int, h: int, m: int) -> IdentitySides:
    """The closed-form classical reciprocity law that the Euclid route unwinds.

    lhs: `_reciprocity_lhs` over E_p(x), from the single moments; rhs: 2E_p +
    2E_{p+1}/(hm) - Σ_j C(p,j) E_j E_{p-j} h^j m^(p-j), built once as a
    Fraction from `_classical_law`.  Requires odd coprime h and m.
    """
    (numerator,) = _classical_law([p], euler_integers(p + 1))(h, m)
    lhs = _reciprocity_lhs(euler_poly_row(p), h, m)
    return IdentitySides.compare(lhs, Fraction(numerator, 2**p * h * m))

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

All functions return exact `Fraction` values.  Both sides of every identity,
here and in the verifier registry, are one type: `IdentitySides`, a
(lhs, rhs, holds) triple built by `IdentitySides.compare`, so holds ⇔ lhs = rhs
exactly.  Each identity's hypotheses are data (`Hypotheses`), shared with the
verifier registry.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, floor, gcd
from typing import Callable, Mapping, NamedTuple

from .exact_algebra import poly_eval
from .sequences import (
    euler_numbers,
    euler_poly,
    poly_euler_numbers,
    poly_euler_poly,
    stirling_weight,
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


def alternating_bar_eval(p: list[Fraction], x: Fraction) -> Fraction:
    """(-1)^floor(x) · p(x - floor(x)): the sign-alternating periodic extension.

    Agrees with p on [0, 1) and flips sign on each successive unit interval
    (period 2, antiperiod 1).
    """
    d = floor(x)
    value = poly_eval(p, x - d)
    return -value if d % 2 else value


Params = Mapping[str, int]


class Rule(NamedTuple):
    """A hypothesis on one parameter: a test of its value (the whole point is
    passed for rules relating two parameters), the README text and the error
    message, both with the parameter name as {0}."""

    test: Callable[[int, Params], bool]
    text: str
    message: str


def GE(bound: int) -> Rule:
    """The parameter is at least bound."""
    return Rule(lambda v, q: v >= bound, f"`{{0}} >= {bound}`", f"{{0}} must be >= {bound}")


ODD_POS = Rule(
    lambda v, q: v >= 1 and v % 2 == 1, "odd `{0} >= 1`", "{0} must be a positive odd integer"
)
ODD_GT1 = Rule(
    lambda v, q: v > 1 and v % 2 == 1, "odd `{0} > 1`", "{0} must be odd and greater than 1"
)
#: lemma8's 1 <= s < p, which also rules out every p < 2.
BELOW_P = Rule(lambda v, q: 1 <= v < q["p"], "`1 <= {0} < p`", "{0} must satisfy 1 <= {0} < p")


class Hypotheses(NamedTuple):
    """An identity's hypotheses as data: one rule per constrained parameter,
    checked in order, then gcd(h, m) = 1 if coprime is set."""

    rules: Mapping[str, Rule]
    coprime: bool = False

    def violation(self, point: Params) -> str | None:
        """The message for the first hypothesis the point violates, or None."""
        for name, rule in self.rules.items():
            if not rule.test(point[name], point):
                return rule.message.format(name)
        if self.coprime and gcd(point["h"], point["m"]) != 1:
            return "h and m must be coprime"
        return None

    def require(self, **point: int) -> None:
        """Raise ValueError with the first violated hypothesis's message."""
        message = self.violation(point)
        if message:
            raise ValueError(message)


#: Shared with the verifier registry, so a direct call and `verify` reject alike.
S_PK_HYPOTHESES = Hypotheses({"p": GE(1), "m": ODD_POS})
ODD_DEGREE_HYPOTHESES = Hypotheses({"p": ODD_GT1, "m": ODD_POS})
THEOREM13_HYPOTHESES = Hypotheses({"p": GE(1), "h": GE(1), "m": ODD_POS}, coprime=True)
RECIPROCITY_HYPOTHESES = Hypotheses({"p": GE(1), "h": ODD_POS, "m": ODD_POS})


@lru_cache(maxsize=None)
def _euler_alt_bar(degree: int, x: Fraction) -> Fraction:
    """Memoized Ê_degree(x) over the ordinary Euler polynomial."""
    return alternating_bar_eval(euler_poly(degree), x)


def _require_dc_params(p: int, h: int, m: int) -> None:
    if p < 1 or h < 1 or m < 1:
        raise ValueError("DC sum requires p >= 1, h >= 1, m >= 1")


def dc_sum(p: int, h: int, m: int) -> Fraction:
    """T_p(h, m) = 2·Σ_{μ=1..m-1} (-1)^μ (μ/m) Ê_p(hμ/m), exactly."""
    _require_dc_params(p, h, m)
    return 2 * sum(
        (
            Fraction(mu, m) * _euler_alt_bar(p, Fraction(h * mu, m))
            if mu % 2 == 0
            else -Fraction(mu, m) * _euler_alt_bar(p, Fraction(h * mu, m))
            for mu in range(1, m)
        ),
        Fraction(0),
    )


def poly_dc_sum(k: int, p: int, h: int, m: int) -> Fraction:
    """T_p^(k)(h, m): the degree-p sum over the index-k poly-Euler polynomial."""
    _require_dc_params(p, h, m)
    poly = poly_euler_poly(k, p)
    total = Fraction(0)
    for mu in range(1, m):
        term = Fraction(mu, m) * alternating_bar_eval(poly, Fraction(h * mu, m))
        total += -term if mu % 2 else term
    return 2 * total


def _correction_sum(k: int, p: int, m: int) -> Fraction:
    """2·Σ_{ν=0..p} C(p,ν) E_ν^(k) E_{p+1-ν} m^(ν-1)."""
    ek = poly_euler_numbers(k, p)
    e = euler_numbers(p + 1)
    return 2 * sum(
        (
            comb(p, nu) * ek[nu] * e[p + 1 - nu] * Fraction(m) ** (nu - 1)
            for nu in range(p + 1)
        ),
        Fraction(0),
    )


def s_pk_of_1_m(k: int, p: int, m: int) -> IdentitySides:
    """The auxiliary sum S_p^(k)(1, m) against its double-sum closed form.

    lhs: m^p·T_p^(k)(1, m) minus the correction 2·Σ C(p,ν)E_ν^(k)E_{p+1-ν}m^(ν-1)
    (the defining combination); rhs: Σ_{ν} C(p,ν) E_ν^(k) Σ_{i=0..p-ν}
    C(p-ν+1, i) E_i m^(p-i).  Requires odd m.
    """
    S_PK_HYPOTHESES.require(p=p, m=m)
    lhs = Fraction(m) ** p * poly_dc_sum(k, p, 1, m) - _correction_sum(k, p, m)
    ek = poly_euler_numbers(k, p)
    e = euler_numbers(p + 1)
    rhs = sum(
        (
            comb(p, nu)
            * ek[nu]
            * sum(
                (
                    comb(p - nu + 1, i) * e[i] * Fraction(m) ** (p - i)
                    for i in range(p - nu + 1)
                ),
                Fraction(0),
            )
            for nu in range(p + 1)
        ),
        Fraction(0),
    )
    return IdentitySides.compare(lhs, rhs)


def theorem11_sides(k: int, p: int, m: int) -> IdentitySides:
    """S_p^(k)(1, m) against its odd-degree expansion, for odd p > 1, odd m.

    rhs: Σ_{i=1..p-2} Σ_{ν=0..p-i} C(p,ν) C(p-ν+1, i) E_ν^(k) E_i m^(p-i)
    + (p+1)·E_p + m^p·E_p^(k)(1).
    """
    ODD_DEGREE_HYPOTHESES.require(p=p, m=m)
    lhs = Fraction(m) ** p * poly_dc_sum(k, p, 1, m) - _correction_sum(k, p, m)
    ek = poly_euler_numbers(k, p)
    e = euler_numbers(p)
    rhs = sum(
        (
            comb(p, nu) * comb(p - nu + 1, i) * ek[nu] * e[i] * Fraction(m) ** (p - i)
            for i in range(1, p - 1)
            for nu in range(p - i + 1)
        ),
        Fraction(0),
    )
    rhs += (p + 1) * e[p] + Fraction(m) ** p * poly_eval(poly_euler_poly(k, p), Fraction(1))
    return IdentitySides.compare(lhs, rhs)


def theorem12_sides(k: int, p: int, m: int) -> IdentitySides:
    """m^p·T_p^(k)(1, m) against its full closed form, for odd p > 1, odd m.

    rhs: Σ_{i=0..p} C(p,i) E_{p-i}^(k)(1) E_i m^(p-i)
       + Σ_{i=1..p} C(p,i-1) (E_{p-i+1}^(k)(1) - E_{p-i+1}^(k)) m^(p-i) E_i
       + the correction sum 2·Σ C(p,ν)E_ν^(k)E_{p+1-ν}m^(ν-1).
    """
    ODD_DEGREE_HYPOTHESES.require(p=p, m=m)
    lhs = Fraction(m) ** p * poly_dc_sum(k, p, 1, m)
    ek = poly_euler_numbers(k, p)
    e = euler_numbers(p)
    at_one = [poly_eval(poly_euler_poly(k, n), Fraction(1)) for n in range(p + 1)]
    rhs = sum(
        (
            comb(p, i) * at_one[p - i] * e[i] * Fraction(m) ** (p - i)
            for i in range(p + 1)
        ),
        Fraction(0),
    )
    rhs += sum(
        (
            comb(p, i - 1)
            * (at_one[p - i + 1] - ek[p - i + 1])
            * Fraction(m) ** (p - i)
            * e[i]
            for i in range(1, p + 1)
        ),
        Fraction(0),
    )
    rhs += _correction_sum(k, p, m)
    return IdentitySides.compare(lhs, rhs)


def theorem13_sides(k: int, p: int, h: int, m: int) -> IdentitySides:
    """The coprime-modulus expansion of the degree-p sums against its closed form.

    lhs: m^p Σ_{μ=0..m-1} (-1)^(hμ mod m) Σ_{s=0..p} C(p,s) h^s E_s^(k)(μ/m)
    E_{p-s}(h - floor(hμ/m)); rhs: Σ_{s=0..p} C(p,s) (mh)^(p-s) E_s E_{p-s}^(k)(1).

    Requires gcd(h, m) = 1 and odd m.  The sign on each μ-term is the parity
    of the reduced residue hμ mod m — equivalently (-1)^(hμ + floor(hμ/m)) —
    which is what the residue-permutation argument behind the identity
    produces; with the bare sign (-1)^μ the two sides differ for h > 1.
    """
    THEOREM13_HYPOTHESES.require(p=p, h=h, m=m)
    e_polys = [euler_poly(j) for j in range(p + 1)]
    ek_polys = [poly_euler_poly(k, s) for s in range(p + 1)]
    total = Fraction(0)
    for mu in range(m):
        d = (h * mu) // m
        inner = sum(
            (
                comb(p, s)
                * Fraction(h) ** s
                * poly_eval(ek_polys[s], Fraction(mu, m))
                * poly_eval(e_polys[p - s], Fraction(h - d))
                for s in range(p + 1)
            ),
            Fraction(0),
        )
        total += -inner if (h * mu + d) % 2 else inner
    lhs = Fraction(m) ** p * total
    e = euler_numbers(p)
    at_one = [poly_eval(poly_euler_poly(k, n), Fraction(1)) for n in range(p + 1)]
    rhs = sum(
        (
            comb(p, s) * Fraction(m * h) ** (p - s) * e[s] * at_one[p - s]
            for s in range(p + 1)
        ),
        Fraction(0),
    )
    return IdentitySides.compare(lhs, rhs)


def reciprocity_sides(k: int, p: int, h: int, m: int) -> IdentitySides:
    """Both sides of the reciprocity law for the degree-p index-k sums.

    lhs: m^p·T_p^(k)(h, m) + h^p·T_p^(k)(m, h).
    rhs: 2 Σ_{μ=0..m-1} Σ_{l=0..p} Σ_{ν=0..h-1} Σ_{j=1..p+1-l} (-1)^(μ+ν)
         (mh)^(l-1) C(p,l) S_1(p-l+1, j) / ((p-l+1) j^(k-1))
         · ((μh)·m^(p-l) + (νm)·h^(p-l)) · Ê_l(ν/h + μ/m).

    Requires odd h and odd m; holds for every such pair (coprimality is not
    needed) and every integer k.  The rhs is symmetric under (h, μ) ↔ (m, ν)
    term by term, matching the symmetric lhs.
    """
    RECIPROCITY_HYPOTHESES.require(p=p, h=h, m=m)
    lhs = Fraction(m) ** p * poly_dc_sum(k, p, h, m) + Fraction(h) ** p * poly_dc_sum(
        k, p, m, h
    )
    total = Fraction(0)
    for l in range(p + 1):
        n1 = p - l + 1
        jsum = stirling_weight(n1, k)
        if jsum == 0:
            continue
        base = Fraction(m * h) ** (l - 1) * comb(p, l) * jsum / n1
        m_pow = Fraction(m) ** (p - l)
        h_pow = Fraction(h) ** (p - l)
        for mu in range(m):
            for nu in range(h):
                weight = (mu * h) * m_pow + (nu * m) * h_pow
                if weight == 0:
                    continue
                term = base * weight * _euler_alt_bar(l, Fraction(nu, h) + Fraction(mu, m))
                total += -term if (mu + nu) % 2 else term
    return IdentitySides.compare(lhs, 2 * total)


def corollary15_rhs(p: int, h: int, m: int) -> Fraction:
    """The single-sum right side of the classical (k = 1) reciprocity law.

    2·(mh)^(p-1) Σ_{μ=0..m-1} Σ_{ν=0..h-1} (-1)^(μ+ν) (μh + νm) Ê_p(ν/h + μ/m).
    The sign is (-1)^(μ+ν): that choice agrees exactly with the general law
    at k = 1 on the full odd grid (the (-1)^(μ+ν-1) variant does not).
    """
    RECIPROCITY_HYPOTHESES.require(p=p, h=h, m=m)
    total = Fraction(0)
    for mu in range(m):
        for nu in range(h):
            weight = mu * h + nu * m
            if weight == 0:
                continue
            term = weight * _euler_alt_bar(p, Fraction(nu, h) + Fraction(mu, m))
            total += -term if (mu + nu) % 2 else term
    return 2 * Fraction(m * h) ** (p - 1) * total

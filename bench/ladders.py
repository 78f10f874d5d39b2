"""Size ladders: each layer's public functions timed on fixed inputs of growing size.

A rung of a function that caches (or sits on a cache) runs cold, in a fresh
worker process of its own; the other ladders share one process and report
the median of a few repeats.  Metric names are `<ladder>.<rung>_ms`.
"""

from fractions import Fraction
from typing import Any, Callable, NamedTuple

from polydc import dc_sums, exact_algebra, sequences


class Ladder(NamedTuple):
    name: str
    rungs: tuple  # (tag, size) pairs
    cold: bool
    prepare: Callable[[Any], Callable[[], Any]]  # untimed set-up, returns the timed call
    repeats: int = 1


def _reciprocal(n: int):
    denom = exact_algebra.exp_series(n)
    denom[0] += 1
    return lambda: exact_algebra.series_reciprocal(denom)


def _compose(n: int):
    outer, inner = sequences.polyexp_series(3, n), exact_algebra.log1p_series(n)
    return lambda: exact_algebra.series_compose(outer, inner)


def _affine(d: int):
    base = sequences.euler_poly(d)
    return lambda: exact_algebra.poly_affine(base, Fraction(1, 9), Fraction(4, 9))


def _poly_euler_poly(n: int):
    sequences.poly_genocchi_numbers(3, 41)  # warm numbers: time the assembly only
    return lambda: sequences.poly_euler_poly(3, n)


def _poly_dc_sum(m: int):
    sequences.poly_euler_poly(2, 6)
    return lambda: dc_sums.poly_dc_sum(2, 6, 7, m)


LADDERS = (
    Ladder("exact_algebra.series_reciprocal",
           (("n50", 50), ("n100", 100), ("n200", 200)), False, _reciprocal, 3),
    Ladder("exact_algebra.series_compose",
           (("n25", 25), ("n50", 50), ("n100", 100)), False, _compose),
    Ladder("exact_algebra.poly_affine", (("d10", 10), ("d20", 20)), False, _affine, 9),
    Ladder("sequences.euler_numbers", (("n50", 50), ("n100", 100), ("n200", 200)), True,
           lambda n: lambda: sequences.euler_numbers(n)),
    Ladder("sequences.poly_genocchi_numbers", (("n25", 25), ("n50", 50), ("n100", 100)), True,
           lambda n: lambda: sequences.poly_genocchi_numbers(3, n)),
    Ladder("sequences.poly_euler_poly", (("n10", 10), ("n20", 20), ("n40", 40)), False,
           _poly_euler_poly),
    # Ascending calls from a cold cache: shows the cache's 2x growth policy.
    Ladder("sequences.poly_euler_poly", (("ascending_n40", 40),), True,
           lambda n: lambda: [sequences.poly_euler_poly(3, i) for i in range(n + 1)]),
    Ladder("dc_sums.poly_dc_sum", (("m1001", 1001), ("m2001", 2001), ("m4001", 4001)), False,
           _poly_dc_sum, 3),
    Ladder("dc_sums.reciprocity_sides",
           (("hm143", (11, 13)), ("hm575", (23, 25)), ("hm2295", (45, 51)),
            ("hm9191", (91, 101))), True,
           lambda hm: lambda: dc_sums.reciprocity_sides(2, 3, *hm)),
)


def metric_names() -> list[str]:
    return [f"{ladder.name}.{tag}_ms" for ladder in LADDERS for tag, _ in ladder.rungs]

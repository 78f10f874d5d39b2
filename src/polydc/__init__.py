"""Exact arithmetic for Euler/Genocchi-type sequences, their poly
generalizations, Dedekind-type DC sums, and machine verification of the
identity catalogue relating them.

Everything is computed over `fractions.Fraction`; no floating point is used
anywhere, so every equality check in this package is exact.
"""

from .dc_sums import (
    IdentitySides,
    corollary15_rhs,
    corollary15_sides,
    dc_sum,
    k1_collapse_sides,
    poly_dc_sum,
    reciprocity_closed_form_sides,
    reciprocity_sides,
    s_pk_of_1_m,
    theorem11_sides,
    theorem12_sides,
    theorem13_sides,
)
from .exact_algebra import (
    format_rational,
    parse_rational,
    poly_eval,
    poly_normalize,
)
from .identity_suite import (
    EXPLORATORY_IDS,
    VERIFIER_IDS,
    SweepResult,
    VerificationReport,
    brute_alternating_power_sum,
    sweep,
    verify,
)
from .sequences import (
    euler_numbers,
    euler_poly,
    genocchi_numbers,
    genocchi_poly,
    poly_euler_numbers,
    poly_euler_poly,
    poly_euler_via_corollary7,
    poly_euler_via_theorem3,
    poly_genocchi_numbers,
    poly_genocchi_poly,
    sawtooth,
    stirling1,
    stirling1_row,
)

__version__ = "0.1.0"

__all__ = [
    "EXPLORATORY_IDS",
    "IdentitySides",
    "SweepResult",
    "VERIFIER_IDS",
    "VerificationReport",
    "brute_alternating_power_sum",
    "corollary15_rhs",
    "corollary15_sides",
    "dc_sum",
    "euler_numbers",
    "euler_poly",
    "format_rational",
    "genocchi_numbers",
    "genocchi_poly",
    "k1_collapse_sides",
    "parse_rational",
    "poly_dc_sum",
    "poly_eval",
    "poly_euler_numbers",
    "poly_euler_poly",
    "poly_euler_via_corollary7",
    "poly_euler_via_theorem3",
    "poly_genocchi_numbers",
    "poly_genocchi_poly",
    "poly_normalize",
    "reciprocity_closed_form_sides",
    "reciprocity_sides",
    "s_pk_of_1_m",
    "sawtooth",
    "stirling1",
    "stirling1_row",
    "sweep",
    "theorem11_sides",
    "theorem12_sides",
    "theorem13_sides",
    "verify",
    "__version__",
]

"""Tests for the identity verification registry, verify(), and sweep()."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydc import dc_sums, identity_suite
from polydc.identity_suite import (
    EXPLORATORY_IDS,
    VERIFIER_IDS,
    VERIFIERS,
    brute_alternating_power_sum,
    hypotheses_text,
    sweep,
    verify,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# One known-admissible parameter point per verifier.
SAMPLE_POINTS = {
    "eq4": {"n": 4, "l": 5},
    "eq18": {"n": 6, "m": 5},
    "thm1": {"n": 7, "k": -2},
    "cor2": {"n": 7, "k": 3},
    "thm3": {"k": -1, "n": 8},
    "thm4": {"x": 4, "n": 6, "k": 2},
    "cor5": {"x": 3, "n": 7, "k": -2},
    "thm6": {"k": 2, "n": 6, "m": 3},
    "cor7": {"k": -2, "n": 7, "m": 5},
    "lemma8": {"k": 3, "p": 9, "s": 4},
    "lemma9": {"k": -2, "p": 8},
    "eq40": {"k": 4},
    "thm10": {"k": 2, "p": 6, "m": 7},
    "thm11": {"k": -1, "p": 7, "m": 5},
    "thm12": {"k": 3, "p": 5, "m": 9},
    "thm13": {"k": -2, "p": 5, "h": 4, "m": 9},
    "thm14": {"k": 0, "p": 4, "h": 5, "m": 9},
    "cor15": {"p": 5, "h": 7, "m": 9},
    "recip_closed_form": {"p": 6, "h": 7, "m": 9},
    "k1_collapse": {"p": 6, "h": 4, "m": 10},
    "oracle_equivalence": {"k": -2, "n": 9, "m": 5},
}


def test_every_verifier_has_a_sample_point():
    assert set(SAMPLE_POINTS) | EXPLORATORY_IDS == set(VERIFIER_IDS)


@pytest.mark.parametrize("verifier_id", sorted(SAMPLE_POINTS))
def test_each_verifier_holds_at_sample_point(verifier_id):
    report = verify(verifier_id, SAMPLE_POINTS[verifier_id])
    assert report.holds
    assert report.lhs == report.rhs
    assert report.verifier == verifier_id
    assert report.elapsed >= 0


def test_report_params_preserve_declared_order():
    report = verify("thm14", {"m": 3, "h": 1, "p": 3, "k": 1})
    assert list(report.params) == ["k", "p", "h", "m"]
    assert report.params == {"k": 1, "p": 3, "h": 1, "m": 3}


def test_simple_reference_values():
    report = verify("eq4", {"n": 1, "l": 0})
    assert (report.lhs, report.rhs) == (2, 2)
    report = verify("thm1", {"n": 1, "k": 5})
    assert (report.lhs, report.rhs) == (2, 2)
    report = verify("eq40", {"k": -3})
    assert report.lhs == report.rhs == 1


def test_brute_alternating_power_sum():
    assert brute_alternating_power_sum(5, 3) == 88
    assert brute_alternating_power_sum(1, 0) == 2  # 0^0 = 1
    with pytest.raises(ValueError):
        brute_alternating_power_sum(0, 3)


def test_reports_stay_internally_consistent():
    # holds must equal exact equality of the reported sides, even for
    # polynomial identities (witness-point evaluation).
    for verifier_id, params in SAMPLE_POINTS.items():
        report = verify(verifier_id, params)
        assert report.holds == (report.lhs == report.rhs)


def test_first_moment_integral_matches_binomial_sum():
    # ∫_0^1 x·E_p^(k)(x) dx = Σ_ν C(p,ν) E_ν^(k)/(p-ν+2): the integral form
    # of the lhs used by the lemma9 verifier's binomial arrangement.
    from math import comb

    from polydc.sequences import poly_euler_numbers, poly_euler_poly

    for k, p in [(-2, 3), (0, 6), (2, 9), (1, 1)]:
        # ∫_0^1 c_i x^(i+1) dx = c_i/(i+2), term by term.
        integral = sum(
            (c / (i + 2) for i, c in enumerate(poly_euler_poly(k, p))), Fraction(0)
        )
        numbers = poly_euler_numbers(k, p)
        binomial = sum(
            (Fraction(comb(p, nu), p - nu + 2) * numbers[nu] for nu in range(p + 1)),
            Fraction(0),
        )
        assert integral == binomial


def test_index_one_collapse_note_for_moment_sums():
    # At index 1 the Stirling weights telescope, so the closed form reduces
    # to 2n·Σ_{i<x} (-1)^i i^(n-1); the verifier's rhs must match it.
    for x, n in [(3, 4), (5, 6), (2, 1)]:
        report = verify("thm4", {"x": x, "n": n, "k": 1})
        collapsed = 2 * n * sum((-1) ** i * i ** (n - 1) for i in range(x))
        assert report.holds and report.rhs == collapsed
        report = verify("cor5", {"x": x, "n": n, "k": 1})
        assert report.holds and report.rhs == Fraction(collapsed, n)


def test_verify_rejects_unknown_id():
    with pytest.raises(ValueError, match="valid ids"):
        verify("thm99", {"k": 1})


def test_verify_rejects_missing_and_extra_params():
    with pytest.raises(ValueError, match="missing parameters"):
        verify("thm14", {"k": 1, "p": 3, "h": 1})
    with pytest.raises(ValueError, match="unexpected parameters"):
        verify("eq40", {"k": 1, "n": 2})
    with pytest.raises(ValueError, match="must be an integer"):
        verify("eq40", {"k": "one"})
    with pytest.raises(ValueError, match="must be an integer"):
        verify("eq40", {"k": True})


@pytest.mark.parametrize(
    "verifier_id, params, message",
    [
        ("thm11", {"k": 1, "p": 4, "m": 3}, "odd and greater than 1"),
        ("thm12", {"k": 1, "p": 1, "m": 3}, "odd and greater than 1"),
        ("thm10", {"k": 1, "p": 3, "m": 4}, "odd"),
        ("thm14", {"k": 1, "p": 3, "h": 2, "m": 3}, "odd"),
        ("thm13", {"k": 1, "p": 3, "h": 3, "m": 9}, "coprime"),
        ("eq4", {"n": 0, "l": 2}, "n must be >= 1"),
        ("lemma8", {"k": 1, "p": 5, "s": 5}, "1 <= s < p"),
        ("cor7", {"k": 1, "n": 3, "m": 6}, "odd"),
        ("eq18", {"n": 2, "m": 4}, "m must be a positive odd integer"),
        ("thm4", {"x": 0, "n": 2, "k": 1}, "x must be >= 1"),
        ("thm3", {"k": 1, "n": -1}, "n must be >= 0"),
        ("sawtooth_t1_exploratory", {"h": 3, "m": 9}, "h and m must be coprime"),
        ("k1_collapse", {"p": 1, "h": 0, "m": 3}, "h must be >= 1"),
        ("lemma8", {"k": 1, "p": 1, "s": 1}, "1 <= s < p"),
    ],
)
def test_verify_enforces_hypotheses(verifier_id, params, message):
    with pytest.raises(ValueError, match=message):
        verify(verifier_id, params)


def _readme_verifier_rows() -> dict[str, tuple[str, str]]:
    """README "Verifiers" table as {verifier id: (parameters cell, hypotheses cell)}."""
    section = README.read_text(encoding="utf-8").split("\n## Verifiers\n", 1)[1]
    rows: dict[str, tuple[str, str]] = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        if not line.startswith("| `"):
            continue
        ids, params, hypotheses = (cell.strip() for cell in line.strip("|").split("|"))
        for vid in ids.split(" / "):
            assert vid.strip("`") not in rows, vid
            rows[vid.strip("`")] = (params, hypotheses)
    return rows


def test_readme_verifier_table_matches_hypotheses():
    rows = _readme_verifier_rows()
    assert set(rows) == set(VERIFIER_IDS)
    for vid, (params, hypotheses) in rows.items():
        assert params == "`" + ", ".join(VERIFIERS[vid].params) + "`", vid
        assert hypotheses == hypotheses_text(vid), vid


def test_verify_is_deterministic_in_values():
    first = verify("thm14", SAMPLE_POINTS["thm14"])
    second = verify("thm14", SAMPLE_POINTS["thm14"])
    assert (first.lhs, first.rhs, first.holds, first.params) == (
        second.lhs,
        second.rhs,
        second.holds,
        second.params,
    )


# --- sweep ---------------------------------------------------------------------


def test_sweep_counts_and_order():
    result = sweep("eq4", {"n": [3, 1, 2], "l": [0, 2, 1]})
    assert (result.total, result.passed, result.failed) == (9, 9, 0)
    assert result.failing == []
    points = [(r.params["n"], r.params["l"]) for r in result.reports]
    assert points == sorted(points)
    assert result.param_names == ("n", "l")


def test_sweep_filters_inadmissible_points():
    # Even degrees and even moduli are filtered out, not errors.
    result = sweep("thm11", {"k": [0, 1], "p": [2, 3, 4, 5], "m": [1, 2, 3]})
    assert result.total == 8  # 2 k-values × {3, 5} × {1, 3}
    assert result.failed == 0
    assert all(r.params["p"] % 2 == 1 and r.params["m"] % 2 == 1 for r in result.reports)


def test_sweep_deduplicates_and_sorts_values():
    result = sweep("eq40", {"k": [3, -1, 3, 0]})
    assert [r.params["k"] for r in result.reports] == [-1, 0, 3]
    result = sweep("eq40", {"k": iter([3, -1, 3, 0])})  # each range is read once
    assert [r.params["k"] for r in result.reports] == [-1, 0, 3]


def test_sweep_rejects_empty_admissible_set():
    with pytest.raises(ValueError, match="no admissible"):
        sweep("thm11", {"k": [1], "p": [2, 4], "m": [3]})
    with pytest.raises(ValueError, match="empty range"):
        sweep("eq40", {"k": []})


def test_sweep_rejects_missing_or_extra_ranges():
    with pytest.raises(ValueError, match="missing ranges"):
        sweep("eq4", {"n": [1, 2]})
    with pytest.raises(ValueError, match="unexpected ranges"):
        sweep("eq40", {"k": [1], "n": [2]})


def test_sweep_rejects_a_grid_beyond_the_point_limit(monkeypatch):
    # 1,001 × 100 points; the verifier is replaced so that any point run fails.
    def refuse(**params):
        raise AssertionError(f"point {params} ran")

    monkeypatch.setitem(VERIFIERS, "thm14", VERIFIERS["thm14"]._replace(compute=refuse))
    with pytest.raises(ValueError, match="100100 points, more than 100000"):
        sweep("thm14", {"k": range(1001), "p": range(1, 101), "h": [1], "m": [1]})


@pytest.mark.parametrize(
    "verifier_id, ranges, name, bad",
    [
        ("eq40", {"k": [True]}, "k", True),
        ("eq40", {"k": [1, True]}, "k", True),  # equal to 1, so a set would hide it
        ("eq4", {"n": [2.0], "l": [1]}, "n", 2.0),
        ("eq4", {"n": [1, 2], "l": [0, "3"]}, "l", "3"),
        ("thm14", {"k": [1], "p": [Fraction(3)], "h": [1], "m": [1]}, "p", Fraction(3)),
        ("thm14", {"k": [1], "p": [1], "h": [1], "m": [3, 1.5]}, "m", 1.5),
    ],
)
def test_sweep_rejects_a_non_integer_like_verify(monkeypatch, verifier_id, ranges, name, bad):
    # Every point is refused, so the error must come before any point runs.
    def refuse(**params):
        raise AssertionError(f"point {params} ran")

    spec = VERIFIERS[verifier_id]
    monkeypatch.setitem(VERIFIERS, verifier_id, spec._replace(compute=refuse))
    message = f"parameter {name!r} must be an integer (got {bad!r})"
    with pytest.raises(ValueError) as error:
        sweep(verifier_id, ranges)
    assert str(error.value) == message
    point = {axis: values[0] for axis, values in ranges.items()} | {name: bad}
    with pytest.raises(ValueError) as error:
        verify(verifier_id, point)
    assert str(error.value) == message


def test_sweep_point_limit_counts_distinct_values(monkeypatch):
    assert sweep("eq40", {"k": [1] * 200_000}).total == 1
    monkeypatch.setattr(identity_suite, "MAX_SWEEP_POINTS", 6)
    assert sweep("eq4", {"n": [1, 2, 3, 2], "l": [0, 1, 0]}).total == 6
    with pytest.raises(ValueError, match="8 points, more than 6"):
        sweep("eq4", {"n": [1, 2, 3, 4], "l": [0, 1]})


def test_sweep_keeps_every_failing_point():
    result = sweep("sawtooth_t1_exploratory", {"h": [1], "m": [1, 3, 5, 7, 9]})
    assert result.total == 5
    assert result.failed == 4  # every m > 1 disagrees; m = 1 is vacuously 0 = 0
    assert len(result.failing) == 4
    assert [r.params["m"] for r in result.failing] == [3, 5, 7, 9]
    by_m = {r.params["m"]: r for r in result.reports}
    assert by_m[3].lhs == Fraction(1, 3) and by_m[3].rhs == 0
    assert by_m[1].holds


def test_exploratory_registry_flags():
    assert EXPLORATORY_IDS == {"sawtooth_t1_exploratory"}
    assert VERIFIERS["sawtooth_t1_exploratory"].exploratory
    assert not VERIFIERS["thm14"].exploratory


def test_the_reciprocity_verifiers_are_the_dc_sums_identities():
    identities = {
        "thm10": dc_sums.s_pk_of_1_m,
        "thm11": dc_sums.theorem11_sides,
        "thm12": dc_sums.theorem12_sides,
        "thm13": dc_sums.theorem13_sides,
        "thm14": dc_sums.reciprocity_sides,
        "cor15": dc_sums.corollary15_sides,
        "recip_closed_form": dc_sums.reciprocity_closed_form_sides,
        "k1_collapse": dc_sums.k1_collapse_sides,
    }
    for verifier_id, identity in identities.items():
        assert VERIFIERS[verifier_id].compute is identity, verifier_id


@pytest.mark.parametrize("verifier_id", VERIFIER_IDS)
def test_every_hypothesis_names_a_parameter(verifier_id):
    spec = VERIFIERS[verifier_id]
    assert set(spec.hypotheses.rules) <= set(spec.params)
    if spec.hypotheses.coprime:
        assert {"h", "m"} <= set(spec.params)


# --- properties beyond the acceptance grid ------------------------------------

odd_moduli = st.integers(min_value=3, max_value=10).map(lambda v: 2 * v + 1)  # 7..21


@given(n=st.integers(0, 14), m=odd_moduli)
@settings(max_examples=50, deadline=None)
def test_distribution_relation_holds_beyond_the_acceptance_grid(n, m):
    assert verify("eq18", {"n": n, "m": m}).holds


@pytest.mark.parametrize("verifier_id", ["thm6", "cor7"])
@given(k=st.integers(-4, 5), n=st.integers(0, 14), m=odd_moduli)
@settings(max_examples=50, deadline=None)
def test_distribution_constructions_hold_beyond_the_acceptance_grid(verifier_id, k, n, m):
    assert verify(verifier_id, {"k": k, "n": n, "m": m}).holds


# Theorem 1 to Lemma 9 over k in -4..5, past the acceptance grids (n <= 12,
# x <= 6, p <= 10).
indices = st.integers(-4, 5)


@pytest.mark.parametrize("verifier_id", ["thm1", "cor2"])
@given(k=indices, n=st.integers(13, 30))
@settings(max_examples=30, deadline=None)
def test_value_at_one_identities_hold_beyond_the_acceptance_grid(verifier_id, k, n):
    assert verify(verifier_id, {"n": n, "k": k}).holds


@given(k=indices, n=st.integers(13, 24))
@settings(max_examples=30, deadline=None)
def test_theorem3_holds_beyond_the_acceptance_grid(k, n):
    assert verify("thm3", {"k": k, "n": n}).holds


@pytest.mark.parametrize("verifier_id", ["thm4", "cor5"])
@given(k=indices, n=st.integers(1, 20), x=st.integers(7, 30))
@settings(max_examples=30, deadline=None)
def test_alternating_moment_identities_hold_beyond_the_acceptance_grid(verifier_id, k, n, x):
    assert verify(verifier_id, {"x": x, "n": n, "k": k}).holds


@given(k=indices, p=st.integers(11, 24), data=st.data())
@settings(max_examples=30, deadline=None)
def test_lemma8_holds_beyond_the_acceptance_grid(k, p, data):
    s = data.draw(st.integers(1, p - 1))
    assert verify("lemma8", {"k": k, "p": p, "s": s}).holds


@given(k=indices, p=st.integers(11, 24))
@settings(max_examples=30, deadline=None)
def test_lemma9_holds_beyond_the_acceptance_grid(k, p):
    assert verify("lemma9", {"k": k, "p": p}).holds

"""Acceptance gate: one test per acceptance criterion, each printing a single
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Every check here is exact rational equality; the only tolerances are the
wall-clock budgets stated per criterion.
"""

import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from polydc import identity_suite
from polydc.cli import main
from polydc.exact_algebra import format_rational, parse_rational
from polydc.identity_suite import sweep
from polydc.sequences import (
    euler_numbers,
    genocchi_numbers,
    poly_euler_numbers,
    poly_genocchi_numbers,
)

GOLDEN = Path(__file__).parent / "golden"


def _criterion(name: str, budget_s, body) -> None:
    start = perf_counter()
    try:
        body()
        elapsed = perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"exceeded budget: {elapsed:.2f}s >= {budget_s}s"
            )
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_sequence_constants():
    def body():
        assert euler_numbers(5) == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(0),
            Fraction(1, 4),
            Fraction(0),
            Fraction(-1, 2),
        ]
        assert genocchi_numbers(6) == [
            Fraction(0),
            Fraction(1),
            Fraction(-1),
            Fraction(0),
            Fraction(1),
            Fraction(0),
            Fraction(-3),
        ]
        for k in range(-2, 5):
            assert poly_genocchi_numbers(k, 2)[2] == -2 + Fraction(2) ** (1 - k)

    _criterion("criterion-1 sequence constants", 1.0, body)


def test_criterion_2_index_one_collapse():
    def body():
        assert poly_genocchi_numbers(1, 20) == genocchi_numbers(20)
        assert poly_euler_numbers(1, 20) == euler_numbers(20)

    _criterion("criterion-2 index-one collapse (N = 20)", 5.0, body)


def test_criterion_3_construction_route_equivalence():
    def body():
        result = sweep(
            "oracle_equivalence",
            {"k": range(-2, 4), "n": range(0, 13), "m": [1, 3, 5]},
        )
        assert result.total == 6 * 13 * 3
        assert result.failed == 0, result.failing

    _criterion("criterion-3 construction routes agree", 30.0, body)


def test_criterion_4_identity_catalogue():
    grids = [
        ("eq4", {"n": range(1, 11), "l": range(0, 9)}),
        ("eq18", {"n": range(0, 11), "m": [1, 3, 5, 7]}),
        ("thm1", {"n": range(1, 13), "k": range(-2, 4)}),
        ("cor2", {"n": range(1, 13), "k": range(-2, 4)}),
        ("thm3", {"k": range(-2, 4), "n": range(0, 13)}),
        ("thm4", {"x": range(1, 7), "n": range(1, 11), "k": range(-2, 4)}),
        ("cor5", {"x": range(1, 7), "n": range(1, 11), "k": range(-2, 4)}),
        ("thm6", {"k": range(-2, 4), "n": range(0, 11), "m": [1, 3, 5]}),
        ("cor7", {"k": range(-2, 4), "n": range(0, 11), "m": [1, 3, 5]}),
        ("lemma8", {"k": range(-2, 4), "p": range(1, 11), "s": range(1, 11)}),
        ("lemma9", {"k": range(-2, 4), "p": range(1, 11)}),
        ("eq40", {"k": range(-3, 5)}),
        ("thm10", {"k": range(-2, 4), "p": [1, 3, 5, 7, 9], "m": [1, 3, 5, 7, 9]}),
        ("thm11", {"k": range(-2, 4), "p": [3, 5, 7, 9], "m": [1, 3, 5, 7, 9]}),
        ("thm12", {"k": range(-2, 4), "p": [3, 5, 7, 9], "m": [1, 3, 5, 7, 9]}),
        (
            "thm13",
            {"k": range(-2, 4), "p": range(1, 7), "h": range(1, 10), "m": range(1, 10)},
        ),
    ]

    def body():
        for verifier_id, ranges in grids:
            result = sweep(verifier_id, ranges)
            assert result.total > 0
            assert result.failed == 0, (verifier_id, result.failing[:3])

    _criterion("criterion-4 identity catalogue sweeps", 60.0, body)


def test_criterion_5_reciprocity_sweep():
    def body():
        odd = [1, 3, 5, 7, 9]
        general = sweep("thm14", {"k": range(-2, 4), "p": range(1, 7), "h": odd, "m": odd})
        assert general.total == 6 * 6 * 5 * 5 == 900
        assert general.failed == 0, general.failing[:3]
        classical = sweep("cor15", {"p": range(1, 7), "h": odd, "m": odd})
        assert classical.total == 150 and classical.failed == 0
        # The classical law agrees with the general one at index 1: identical
        # left sides point for point.
        general_lhs = {
            (r.params["p"], r.params["h"], r.params["m"]): r.lhs
            for r in general.reports
            if r.params["k"] == 1
        }
        for report in classical.reports:
            key = (report.params["p"], report.params["h"], report.params["m"])
            assert general_lhs[key] == report.lhs

    _criterion("criterion-5 reciprocity over the full odd grid", 60.0, body)


def test_criterion_6_cli_contract(capsys, monkeypatch):
    def body():
        golden_cases = [
            ("table_euler.json", ["table", "euler", "max_n=6", "--deterministic"]),
            (
                "table_poly_genocchi.csv",
                [
                    "table",
                    "poly-genocchi",
                    "max_n=6",
                    "k=-2",
                    "--format",
                    "csv",
                    "--deterministic",
                ],
            ),
            ("eval_bar_euler.json", ["eval", "bar-euler", "n=1", "x=7/3", "--deterministic"]),
            ("dcsum_poly.json", ["dcsum", "p=1", "h=1", "m=3", "k=2", "--deterministic"]),
            (
                "verify_thm14.json",
                ["verify", "thm14", "k=1", "p=3", "h=1", "m=3", "--deterministic"],
            ),
            (
                "sweep_thm14.json",
                ["sweep", "thm14", "k=-1..1", "p=1..2", "h=odd1..3", "m=odd1..3", "--deterministic"],
            ),
            (
                "sweep_sawtooth.csv",
                [
                    "sweep",
                    "sawtooth_t1_exploratory",
                    "h=odd1..5",
                    "m=odd1..5",
                    "--format",
                    "csv",
                    "--deterministic",
                ],
            ),
        ]
        for filename, argv in golden_cases:
            exit_code = main(argv)
            out = capsys.readouterr().out
            assert exit_code == 0, argv
            assert out == (GOLDEN / filename).read_text(encoding="utf-8"), filename
            exit_code = main(argv)
            assert capsys.readouterr().out == out and exit_code == 0

        rng = random.Random(20260817)
        for _ in range(1000):
            q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
            assert parse_rational(format_rational(q)) == q

        assert main(["verify", "thm14", "k=1", "p=1", "h=1", "m=1"]) == 0
        assert main(["verify", "thm11", "k=1", "p=4", "m=3"]) == 2
        assert main(["table", "poly-euler", "max_n=3"]) == 2
        capsys.readouterr()
        spec = identity_suite.VERIFIERS["eq40"]
        broken = spec._replace(compute=lambda **params: (Fraction(0), Fraction(1), False))
        monkeypatch.setitem(identity_suite.VERIFIERS, "eq40", broken)
        assert main(["verify", "eq40", "k=1"]) == 1
        monkeypatch.undo()
        capsys.readouterr()

    _criterion("criterion-6 CLI golden files, round-trip, exit codes", None, body)


def test_criterion_7_exploratory_sawtooth_report(capsys):
    def body():
        odd = [1, 3, 5, 7, 9]
        result = sweep("sawtooth_t1_exploratory", {"h": odd, "m": odd})
        assert result.failed > 0  # the rewriting genuinely disagrees
        by_point = {(r.params["h"], r.params["m"]): r for r in result.reports}
        witness = by_point[(1, 3)]
        assert witness.lhs == Fraction(1, 3) and witness.rhs == 0 and not witness.holds
        # Quarantine: the CLI reports the mismatch but exits 0.
        exit_code = main(["sweep", "sawtooth_t1_exploratory", "h=odd1..9", "m=odd1..9"])
        out = capsys.readouterr().out
        assert exit_code == 0
        aggregate = json.loads(out)
        assert aggregate["failed"] == result.failed
        assert "sawtooth_t1_exploratory" in identity_suite.EXPLORATORY_IDS

    _criterion("criterion-7 sawtooth discrepancy documented, not gating", None, body)

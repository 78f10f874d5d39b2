"""Tests for the command-line interface: formats, golden files, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydc import identity_suite
from polydc.cli import main, parse_range
from polydc.exact_algebra import format_rational, parse_rational

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("table_euler.json", ["table", "euler", "max_n=6", "--deterministic"]),
    (
        "table_poly_genocchi.csv",
        ["table", "poly-genocchi", "max_n=6", "k=-2", "--format", "csv", "--deterministic"],
    ),
    ("eval_bar_euler.json", ["eval", "bar-euler", "n=1", "x=7/3", "--deterministic"]),
    ("dcsum_poly.json", ["dcsum", "p=1", "h=1", "m=3", "k=2", "--deterministic"]),
    ("verify_thm14.json", ["verify", "thm14", "k=1", "p=3", "h=1", "m=3", "--deterministic"]),
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


# --- range grammar ---------------------------------------------------------


def test_parse_range_forms():
    assert parse_range("7") == [7]
    assert parse_range("-2..3") == [-2, -1, 0, 1, 2, 3]
    assert parse_range("odd1..9") == [1, 3, 5, 7, 9]
    assert parse_range("odd-3..3") == [-3, -1, 1, 3]
    assert parse_range("1,9,3") == [1, 9, 3]


@pytest.mark.parametrize(
    "text", ["", "a", "1..", "3..1", "odd2..2", "1,,2", "x..y", "0..1000000000000", "odd0..20000"]
)
def test_parse_range_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_range(text)


# --- golden outputs ----------------------------------------------------------


@pytest.mark.parametrize("filename, argv", GOLDEN_CASES)
def test_golden_output(capsys, filename, argv):
    exit_code = main(argv)
    out = capsys.readouterr().out
    assert exit_code == 0
    assert out == (GOLDEN / filename).read_text(encoding="utf-8")


@pytest.mark.parametrize("filename, argv", GOLDEN_CASES[:3])
def test_deterministic_runs_are_byte_identical(capsys, filename, argv):
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


# --- wire format -------------------------------------------------------------


@given(st.fractions())
@settings(max_examples=1000, deadline=None)
def test_rational_wire_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_report_json_schema(capsys):
    main(["verify", "eq40", "k=2", "--deterministic"])
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["verifier", "params", "lhs", "rhs", "holds", "elapsed_ms"]
    assert report["verifier"] == "eq40"
    assert report["params"] == {"k": 2}
    assert report["lhs"] == "1" and report["rhs"] == "1"
    assert report["holds"] is True
    assert report["elapsed_ms"] == 0


def test_report_elapsed_without_deterministic(capsys):
    main(["verify", "eq40", "k=2"])
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report["elapsed_ms"], (int, float))
    assert report["elapsed_ms"] >= 0


def test_sweep_json_aggregate(capsys):
    main(["sweep", "eq4", "n=1..3", "l=0..2", "--deterministic"])
    aggregate = json.loads(capsys.readouterr().out)
    assert list(aggregate) == ["verifier", "total", "passed", "failed", "failing", "elapsed_ms"]
    assert aggregate["total"] == 9
    assert aggregate["passed"] == 9
    assert aggregate["failed"] == 0
    assert aggregate["failing"] == []


def test_table_json_rows(capsys):
    main(["table", "stirling1", "max_n=2"])
    rows = json.loads(capsys.readouterr().out)
    assert rows[0] == {"index": "0:0", "value": "1"}
    assert rows[-1] == {"index": "2:2", "value": "1"}
    assert len(rows) == 6


def test_eval_csv_format(capsys):
    main(["eval", "bar-euler", "n=1", "x=7/3", "--format", "csv"])
    assert capsys.readouterr().out == "value\n-1/6\n"


def test_verify_csv_format(capsys):
    main(["verify", "thm14", "k=1", "p=3", "h=1", "m=3", "--format", "csv", "--deterministic"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "verifier,params,lhs,rhs,holds,elapsed_ms"
    assert lines[1] == "thm14,k=1;p=3;h=1;m=3,-13/2,-13/2,true,0"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    exit_code = main(["table", "euler", "max_n=3", "--output", str(target)])
    assert exit_code == 0
    assert capsys.readouterr().out == ""
    rows = json.loads(target.read_text(encoding="utf-8"))
    assert rows[3] == {"index": 3, "value": "1/4"}


@pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_two(tmp_path, capsys, target):
    argv = ["verify", "thm14", "k=1", "p=1", "h=1", "m=1", "--output", str(tmp_path / target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# --- exit codes ----------------------------------------------------------------


def test_exit_zero_on_passing_verify(capsys):
    assert main(["verify", "k1_collapse", "p=3", "h=2", "m=4"]) == 0
    capsys.readouterr()


def test_exit_one_on_violation(monkeypatch, capsys):
    spec = identity_suite.VERIFIERS["eq40"]
    broken = spec._replace(compute=lambda params: (Fraction(0), Fraction(1), False))
    monkeypatch.setitem(identity_suite.VERIFIERS, "eq40", broken)
    assert main(["verify", "eq40", "k=1", "--deterministic"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert main(["sweep", "eq40", "k=1..3", "--deterministic"]) == 1
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["failed"] == 3
    assert len(aggregate["failing"]) == 3


def test_exploratory_failures_exit_zero(capsys):
    assert main(["verify", "sawtooth_t1_exploratory", "h=1", "m=3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["holds"] is False
    assert (report["lhs"], report["rhs"]) == ("1/3", "0")
    assert main(["sweep", "sawtooth_t1_exploratory", "h=odd1..5", "m=odd1..5"]) == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["failed"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm11", "k=1", "p=4", "m=3"],  # hypothesis violation
        ["verify", "thm13", "k=1", "p=2", "h=3", "m=9"],  # non-coprime pair
        ["verify", "nonsense", "k=1"],  # unknown verifier
        ["verify", "thm14", "k=1", "p=3", "h=1"],  # missing parameter
        ["table", "poly-euler", "max_n=3"],  # missing k
        ["table", "euler", "max_n=3", "k=1"],  # k not accepted here
        ["table", "euler", "max_n=-1"],
        ["table", "unknown-seq", "max_n=3"],
        ["eval", "euler-poly", "n=2", "x=not/anumber"],
        ["eval", "sawtooth", "n=2", "x=1/2"],  # n not accepted here
        ["dcsum", "p=0", "h=1", "m=3"],
        ["dcsum", "p=1", "p=2", "h=1", "m=3"],  # duplicate key
        ["dcsum", "p=1", "h=1"],  # missing m
        ["sweep", "eq4", "n=1..3"],  # missing range
        ["sweep", "eq4", "n=1..3", "l=3..1"],  # empty range
        ["sweep", "thm11", "k=1", "p=2,4", "m=3"],  # nothing admissible
        ["dcsum", "p=x", "h=1", "m=3"],  # non-integer parameter
        ["table", "euler", "maxn"],  # not key=value
        ["bogus-command"],
        ["sweep", "thm14", "k=0..1000000000000", "p=1", "h=1", "m=1"],  # range too wide
    ],
)
def test_exit_two_on_usage_errors(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "polydc", "table", "euler", "max_n=3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert rows[1]["value"] == "-1/2"

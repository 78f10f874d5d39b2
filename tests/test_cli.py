"""Tests for the command-line interface: formats, golden files, exit codes."""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydc import cli, dc_sums, identity_suite
from polydc.cli import (
    MAX_EUCLID_COST,
    MAX_EVAL_DIGITS,
    MAX_EVEN_DCSUM_M,
    MAX_INDEX_K,
    MAX_TABLE_N,
    MAX_VERIFY_M,
    main,
    parse_range,
)
from polydc.exact_algebra import IntegerRow, format_rational, parse_rational
from polydc.sequences import euler_integers, euler_poly, euler_poly_row, poly_euler_poly

from oracles import bar_eval

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
    (
        "sweep_thm13.csv",
        [
            "sweep",
            "thm13",
            "k=-2,3",
            "p=1..6",
            "h=1..9",
            "m=1..9",
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


def _readme_cli_lines() -> list[str]:
    """The `polydc` command lines of the README's CLI block, comments dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.splitlines())
    return [line for line in lines if line.startswith("polydc ")]


def test_the_readme_cli_block_has_its_thirteen_commands():
    assert len(_readme_cli_lines()) == 13


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_each_readme_cli_command_runs_as_written(capsys, line):
    exit_code = main(line.split()[1:] + ["--deterministic"])
    assert exit_code == 0, capsys.readouterr().err
    assert capsys.readouterr().out.strip()


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


@pytest.mark.parametrize("x", ["7/3", "-1/4", "-7/4", "2", "0", "11/5"])
@pytest.mark.parametrize("kind, k", [("bar-euler", None), ("bar-poly-euler", 2)])
def test_eval_bar_kinds_are_the_plain_periodic_extension(kind, k, x, capsys):
    poly = euler_poly(3) if k is None else poly_euler_poly(k, 3)
    main(["eval", kind, "n=3", f"x={x}"] + ([] if k is None else [f"k={k}"]))
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == format_rational(bar_eval(poly, Fraction(x)))


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
    broken = identity_suite.VERIFIERS["eq40"]
    monkeypatch.setattr(broken, "__wrapped__", lambda k: (Fraction(0), Fraction(1), False))
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
        ["sweep", "thm14", "k=0..9999", "p=1..9999", "h=1", "m=1"],  # grid too large
    ],
)
def test_exit_two_on_usage_errors(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "euler", f"max_n={MAX_TABLE_N + 1}"],
        ["table", "genocchi", f"max_n={MAX_TABLE_N + 1}"],
        ["table", "poly-genocchi", "k=3", f"max_n={MAX_TABLE_N + 1}"],
        ["table", "poly-euler", "k=3", f"max_n={MAX_TABLE_N + 1}"],
        ["table", "stirling1", f"max_n={MAX_TABLE_N + 1}"],
        ["eval", "euler-poly", f"n={MAX_TABLE_N + 1}", "x=1/3"],
        ["eval", "bar-poly-euler", "k=2", f"n={MAX_TABLE_N + 1}", "x=1/3"],
    ],
)
def test_size_above_max_table_n_is_rejected_before_any_construction(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("construction started")

    constructions = (
        "euler_numbers",
        "genocchi_numbers",
        "poly_genocchi_numbers",
        "poly_euler_numbers",
        "stirling1",
        "euler_poly_row",
        "poly_euler_poly_row",
    )
    for name in constructions:
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert f"at most {MAX_TABLE_N}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dcsum", f"p={MAX_TABLE_N + 1}", "h=1", "m=3"], f"at most {MAX_TABLE_N}"),
        (["dcsum", f"p={MAX_TABLE_N + 1}", "h=2", "m=3", "k=2"], f"at most {MAX_TABLE_N}"),
        (["dcsum", "p=3", "h=2", f"m={MAX_EVEN_DCSUM_M + 1}"], f"at most {MAX_EVEN_DCSUM_M}"),
        (["dcsum", "p=3", "h=1", f"m={MAX_EVEN_DCSUM_M + 2}"], f"at most {MAX_EVEN_DCSUM_M}"),
        (
            ["dcsum", "p=3", "h=4", f"m={10 * MAX_EVEN_DCSUM_M}", "k=-1"],
            f"at most {MAX_EVEN_DCSUM_M}",
        ),
    ],
)
def test_unbounded_dcsum_is_rejected_before_any_work(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("_row_dc_sum", "_moment_total", "_euclid_sums", "euler_integers"):
        monkeypatch.setattr(dc_sums, name, refuse)
    monkeypatch.setattr(cli, "dc_sum", refuse)
    monkeypatch.setattr(cli, "poly_dc_sum", refuse)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def _euclid_cost(p: int, h: int, m: int) -> int:
    """(p+1)^2 times the sum of bits(m)^2 over the links of the chain of (h, m)."""
    links = dc_sums.euclid_chain(h, m)
    return (p + 1) ** 2 * sum(link_m.bit_length() ** 2 for _, link_m, _ in links)


#: (p, the dearest pair dcsum admits at p, the next pair of its family).
EUCLID_CAP_PAIRS = [
    (1, (768077, 768079), (768079, 768081)),
    (3, (233821, 233823), (233823, 233825)),
    (500, (1, 2**46 - 1), (1, 2**47 - 1)),
]


@pytest.mark.parametrize("p, admitted, refused", EUCLID_CAP_PAIRS)
def test_the_euclid_cap_pairs_straddle_the_cost_cap(p, admitted, refused):
    assert _euclid_cost(p, *admitted) <= MAX_EUCLID_COST < _euclid_cost(p, *refused)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dcsum", "p=1", "h=7777777771", "m=3333333337"], "Euclid links"),
        (["dcsum", "p=1", "h=9999997", "m=9999999", "k=2"], "Euclid links"),
        *(
            (["dcsum", f"p={p}", f"h={h}", f"m={m}"] + k, "Euclid links")
            for p, _, (h, m) in EUCLID_CAP_PAIRS
            for k in ([], ["k=16"])
        ),
        (["dcsum", "p=3", "h=-3", "m=5"], "h must be >= 1"),
        (["dcsum", "p=0", "h=3", "m=5", "k=2"], "p must be >= 1"),
    ],
)
def test_costly_odd_dcsum_is_rejected_before_any_work(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("work started")

    for name in ("_euclid_sums", "_row_dc_sum", "_moment_total", "euler_integers"):
        monkeypatch.setattr(dc_sums, name, refuse)
    monkeypatch.setattr(cli, "dc_sum", refuse)
    monkeypatch.setattr(cli, "poly_dc_sum", refuse)
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("p, admitted, refused", EUCLID_CAP_PAIRS)
@pytest.mark.parametrize("k", [[], ["k=16"]])
def test_odd_dcsum_at_the_euclid_cap_is_admitted(p, admitted, refused, k, monkeypatch):
    def admit(*args):
        raise _Admitted

    monkeypatch.setattr(cli, "dc_sum", admit)
    monkeypatch.setattr(cli, "poly_dc_sum", admit)
    h, m = admitted
    with pytest.raises(_Admitted):
        main(["dcsum", f"p={p}", f"h={h}", f"m={m}"] + k)


def _digits(count: int) -> str:
    return "1" + "0" * (count - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "euler-poly", f"n={MAX_TABLE_N}", f"x={_digits(401)}/3"],
        ["eval", "poly-euler-poly", "k=16", "n=500", f"x=7/{_digits(400)}"],
        ["eval", "bar-poly-euler", "k=2", "n=50", f"x={_digits(2000)}/{_digits(2000)}1"],
        ["eval", "bar-euler", "n=100", f"x=-{_digits(2001)}"],
    ],
    ids=lambda argv: argv[1],
)
def test_eval_of_an_oversize_x_is_rejected_before_any_construction(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("construction started")

    for name in ("euler_poly_row", "poly_euler_poly_row"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert f"at most {MAX_EVAL_DIGITS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "euler-poly", f"n={MAX_TABLE_N}", f"x={_digits(399)}/3"],
        ["eval", "bar-poly-euler", "k=2", "n=50", f"x={_digits(2000)}/{_digits(1999)}1"],
        ["eval", "sawtooth", f"x={_digits(4000)}/7"],
    ],
    ids=lambda argv: argv[1],
)
def test_eval_admits_x_at_the_digit_cap(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "euler_poly_row", lambda n: IntegerRow((1,), 1))
    monkeypatch.setattr(cli, "poly_euler_poly_row", lambda k, n: IntegerRow((1,), 1))
    assert main(argv) == 0
    capsys.readouterr()


ODD_ABOVE_M = MAX_VERIFY_M + 1 + MAX_VERIFY_M % 2  # the least odd m above the cap


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "thm14", "k=1", f"p={MAX_TABLE_N + 1}", "h=1", "m=3"], "p must"),
        (["verify", "thm3", "k=1", f"n={MAX_TABLE_N + 1}"], "n must"),
        (["verify", "eq4", "n=3", f"l={MAX_TABLE_N + 1}"], "l must"),
        (["verify", "cor15", "p=3", "h=3", f"m={ODD_ABOVE_M}"], "m must"),
        (["verify", "cor15", "p=3", "h=3", "m=1000003"], "m must"),
        (["verify", "thm14", "k=2", "p=3", f"h={ODD_ABOVE_M}", "m=3"], "h must"),
        (["verify", "cor7", "k=1", "n=3", f"m={ODD_ABOVE_M}"], "m must"),
        (["verify", "thm13", "k=1", "p=3", f"h={MAX_VERIFY_M + 1}", "m=1"], "h must"),
        (["verify", "thm4", f"x={MAX_VERIFY_M + 1}", "n=3", "k=1"], "x must"),
        (["sweep", "thm14", "k=1", "p=1..3", "h=odd1..9", f"m=1,{ODD_ABOVE_M}"], "m must"),
        (["sweep", "cor15", "p=1", f"h=odd1..{ODD_ABOVE_M}", "m=3"], "h must"),
        (["sweep", "lemma9", "k=1", f"p=1,{MAX_TABLE_N + 1}"], "p must"),
        (["sweep", "eq18", f"n=0..{MAX_TABLE_N + 1}", "m=3"], "n must"),
    ],
)
def test_unbounded_verify_and_sweep_are_rejected_before_any_point_runs(
    argv, message, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    # A warm moment cache would serve a point without running a kernel, so
    # neither a cold nor a warm cache may be read at all.
    cold, warm = dc_sums._MomentCache(), dc_sums._MomentCache()
    monkeypatch.setattr(dc_sums, "_MOMENT_CACHE", warm)
    for h, m in [(1, 3), (3, 3), (3, ODD_ABOVE_M), (ODD_ABOVE_M, 3)]:
        dc_sums.reciprocity_sides(2, 3, h, m)
    dc_sums.theorem13_sides(1, 3, MAX_VERIFY_M + 1, 1)  # the refused thm13 point's moments
    assert (dc_sums._theorem13_moments, MAX_VERIFY_M + 1, 1, 0) in warm.entries
    kernels = ("_double_moments", "_single_moments", "_theorem13_moments")
    for name in (*kernels, "_moment_total", "theorem13_sides"):
        monkeypatch.setattr(dc_sums, name, refuse)
    monkeypatch.setattr(identity_suite, "verify", refuse)
    monkeypatch.setattr(identity_suite, "sweep", refuse)
    cap = MAX_TABLE_N if message[0] in "pnl" else MAX_VERIFY_M
    for cache in (cold, warm):
        monkeypatch.setattr(dc_sums, "_MOMENT_CACHE", cache)
        info = dc_sums.moment_cache_info()
        assert main(argv) == 2
        assert f"{message} be at most {cap}" in capsys.readouterr().err
        assert dc_sums.moment_cache_info() == info
    assert warm.entries and not cold.entries


class _Admitted(Exception):
    pass


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm13", f"k={MAX_INDEX_K}", f"p={MAX_TABLE_N}", "h=100", "m=99"],
        ["verify", "thm4", f"x={MAX_VERIFY_M}", f"n={MAX_TABLE_N}", "k=1"],
        ["sweep", "thm14", "k=1", f"p=1,{MAX_TABLE_N}", f"h=odd1..{MAX_VERIFY_M}", "m=1,99"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_verify_and_sweep_admit_points_at_the_caps(argv, monkeypatch):
    # The point is handed to the library (which here refuses to run it).
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(identity_suite, "verify", admitted)
    monkeypatch.setattr(identity_suite, "sweep", admitted)
    with pytest.raises(_Admitted):
        main(argv)


def test_odd_dcsum_has_no_modulus_limit(capsys):
    # Odd pairs are capped by their Euclid links, not by m; the O(m) kernel
    # takes seconds here.  The check solves the closed-form law for T_3(h, m), with
    # T_3(m, h) from the moment kernel over the small modulus h.
    h, m = 12345, 9999991
    assert main(["dcsum", "p=3", f"h={h}", f"m={m}"]) == 0
    value = parse_rational(json.loads(capsys.readouterr().out)["value"])
    (law,) = dc_sums._classical_law([3], euler_integers(4))(h, m)
    swapped = dc_sums._row_dc_sum(euler_poly_row(3), m, h)
    assert value == (Fraction(law, 8 * h * m) - h**3 * swapped) / m**3


def test_values_past_the_digit_limit_print_and_inputs_past_it_are_usage_errors(capsys):
    # The value's numerator has about 4,390 digits, past the interpreter's 4,300; the
    # limit is lifted only while output is written.
    limit = sys.get_int_max_str_digits()
    assert main(["dcsum", "p=500", "h=12345", "m=9999991"]) == 0
    assert sys.get_int_max_str_digits() == limit
    text = json.loads(capsys.readouterr().out)["value"]
    with cli._all_digits():
        assert parse_rational(text) == dc_sums.dc_sum(500, 12345, 9999991)
    assert main(["dcsum", "p=3", "h=1", "m=" + "9" * 5000]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit


REFUSED_K = (MAX_INDEX_K + 1, -(MAX_INDEX_K + 1))


@pytest.mark.parametrize("k", REFUSED_K)
@pytest.mark.parametrize(
    "argv",
    [
        ["table", "poly-genocchi", "max_n=3", "k={k}"],
        ["table", "poly-euler", "max_n=3", "k={k}"],
        ["eval", "poly-euler-poly", "n=3", "x=1/3", "k={k}"],
        ["eval", "bar-poly-euler", "n=3", "x=1/3", "k={k}"],
        ["dcsum", "p=3", "h=1", "m=3", "k={k}"],
        ["dcsum", "p=3", "h=2", "m=3", "k={k}"],
        ["verify", "thm14", "p=3", "h=1", "m=3", "k={k}"],
        ["verify", "cor2", "n=3", "k={k}"],
        ["sweep", "thm14", "p=1", "h=1", "m=1", "k=1,{k}"],
        ["sweep", "thm3", "n=1..3", "k=0,{k}"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_index_k_above_the_cap_is_rejected_before_any_construction(argv, k, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("construction started")

    constructions = (
        "poly_genocchi_numbers",
        "poly_euler_numbers",
        "poly_euler_poly_row",
        "poly_dc_sum",
    )
    for name in constructions:
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(identity_suite, "verify", refuse)
    monkeypatch.setattr(identity_suite, "sweep", refuse)
    assert main([arg.format(k=k) for arg in argv]) == 2
    assert f"at most {MAX_INDEX_K}" in capsys.readouterr().err


def _old_table_text(rows, fmt):
    """The table as it was rendered whole: one JSON document, or one CSV text."""
    if fmt == "json":
        return json.dumps([{"index": i, "value": v} for i, v in rows], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["index", "value"])
    writer.writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "sequence, args, values",
    [
        ("euler", [], lambda: cli.euler_numbers(40)),
        ("genocchi", [], lambda: cli.genocchi_numbers(40)),
        ("poly-genocchi", ["k=-3"], lambda: cli.poly_genocchi_numbers(-3, 40)),
        ("poly-euler", ["k=4"], lambda: cli.poly_euler_numbers(4, 40)),
    ],
)
def test_streamed_table_matches_the_whole_document(sequence, args, values, fmt, capsys):
    assert main(["table", sequence, "max_n=40", *args, "--format", fmt]) == 0
    rows = [(n, format_rational(v)) for n, v in enumerate(values())]
    assert capsys.readouterr().out == _old_table_text(rows, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_streamed_stirling_table_matches_the_whole_document(fmt, capsys):
    assert main(["table", "stirling1", "max_n=30", "--format", fmt]) == 0
    rows = [(f"{n}:{m}", str(cli.stirling1(n, m))) for n in range(31) for m in range(n + 1)]
    assert capsys.readouterr().out == _old_table_text(rows, fmt)


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "polydc", "table", "euler", "max_n=3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert rows[1]["value"] == "-1/2"

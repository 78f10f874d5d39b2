"""Command-line interface.

Subcommands
-----------
table   <sequence> max_n=N [k=K]     sequence tables (k only for poly-*)
eval    <kind> [k=K] [n=N] x=Q       polynomial / sawtooth evaluation
dcsum   p=P h=H m=M [k=K]            one Dedekind-type DC sum value
verify  <verifier> key=value ...     one identity at one parameter point
sweep   <verifier> key=range ...     one identity over a parameter grid

Every subcommand accepts --format {json,csv}, --output PATH, and
--deterministic (zeroes elapsed_ms so repeated runs are byte-identical).
Ranges are `lo..hi` (inclusive, at most MAX_RANGE_VALUES integers wide),
`oddlo..hi` (odd values only), a comma list `1,3,9`, or a single integer.
Rational values are canonical strings such as `-3/2`, `5`, or `0`.  The
`max_n` of `table`, the `n` of `eval`, the `p` of `dcsum` and every `p`, `n`
and `l` of `verify` and `sweep` are at most MAX_TABLE_N; a `dcsum` with `h` or
`m` even has `m` at most MAX_EVEN_DCSUM_M; every `m`, `h` and `x` of `verify`
and `sweep` is at most MAX_VERIFY_M; every index `k` has `|k|` at most
MAX_INDEX_K.  Inputs are parsed under the interpreter's limit on integer
digits; output is written without it, so every value these limits allow
prints.  Tables are written row by row.

Exit codes: 0 all verified / success, 1 at least one identity violation,
2 usage error (bad arguments or parameters outside an identity's hypotheses).
The exploratory verifier always exits 0; its findings are reported, not
gated.
"""

import argparse
import csv
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from . import identity_suite
from .dc_sums import dc_sum, poly_dc_sum
from .exact_algebra import format_rational, parse_rational, poly_eval
from .identity_suite import EXPLORATORY_IDS, VERIFIER_IDS, VerificationReport
from .sequences import (
    bar_eval,
    euler_numbers,
    euler_poly,
    genocchi_numbers,
    poly_euler_numbers,
    poly_euler_poly,
    poly_genocchi_numbers,
    sawtooth,
    stirling1,
)

_KEY_VALUE_RE = re.compile(r"^([a-z_][a-z0-9_]*)=(.+)$")
_RANGE_RE = re.compile(r"^(odd)?(-?\d+)\.\.(-?\d+)$")

_POLY_SEQUENCES = ("poly-genocchi", "poly-euler")
_SEQUENCES = ("euler", "genocchi") + _POLY_SEQUENCES + ("stirling1",)
_EVAL_KINDS = ("euler-poly", "poly-euler-poly", "bar-euler", "bar-poly-euler", "sawtooth")

#: The most integers a `lo..hi` range may span; longer ranges are usage errors.
MAX_RANGE_VALUES = 10_000

#: The largest `max_n` of `table`, `n` of `eval` and `p` of `dcsum`; larger ones
#: are usage errors.
MAX_TABLE_N = 500

#: The largest |k| of the index-k families in `table`, `eval`, `dcsum`, `verify`
#: and `sweep`; the weights j^(1-k) grow with |k|, so larger ones are usage errors.
MAX_INDEX_K = 16

#: The largest `m` of a `dcsum` with `h` or `m` even, which runs an O(m) kernel
#: (odd pairs take O(log m) steps); larger ones are usage errors.
MAX_EVEN_DCSUM_M = 10_000

#: The largest `m`, `h` and `x` of `verify` and `sweep`, whose verifiers keep
#: their O(m), O(m·h) and O(m·p^2) kernels; larger ones are usage errors.  It
#: also bounds m·h, the steps of the double moments of thm14 and cor15.
MAX_VERIFY_M = 100


def parse_range(text: str) -> list[int]:
    """Parse `lo..hi`, `oddlo..hi`, `a,b,c`, or a single integer."""
    match = _RANGE_RE.match(text)
    if match:
        odd, lo, hi = match.group(1), int(match.group(2)), int(match.group(3))
        if len(range(lo, hi + 1)) > MAX_RANGE_VALUES:
            raise ValueError(f"range {text!r} spans more than {MAX_RANGE_VALUES} values")
        values = [v for v in range(lo, hi + 1) if not odd or v % 2 != 0]
        if not values:
            raise ValueError(f"range {text!r} contains no values")
        return values
    if "," in text:
        try:
            return [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"malformed range {text!r}") from None
    try:
        return [int(text)]
    except ValueError:
        raise ValueError(f"malformed range {text!r}") from None


def _parse_assignments(pairs: Sequence[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    for pair in pairs:
        match = _KEY_VALUE_RE.match(pair)
        if not match:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, value = match.group(1), match.group(2)
        if key in raw:
            raise ValueError(f"duplicate parameter {key!r}")
        raw[key] = value
    return raw


def _require_keys(raw: dict[str, str], allowed: Sequence[str]) -> None:
    extra = [key for key in raw if key not in allowed]
    if extra:
        raise ValueError(f"unexpected parameter(s): {', '.join(sorted(extra))}")


def _int_param(raw: dict[str, str], name: str) -> int:
    if name not in raw:
        raise ValueError(f"missing required parameter {name!r}")
    try:
        return int(raw[name])
    except ValueError:
        raise ValueError(f"parameter {name!r} must be an integer") from None


def _index_k(k: int) -> int:
    """k itself, or ValueError when |k| is above MAX_INDEX_K."""
    if abs(k) > MAX_INDEX_K:
        raise ValueError(f"|k| must be at most {MAX_INDEX_K}")
    return k


def _verify_limits(values: dict[str, list[int]]) -> None:
    """ValueError, before any point runs, when a k, a degree p, n or l, or a
    length m, h or x of `verify` or `sweep` is above its cap."""
    for k in values.get("k", ()):
        _index_k(k)
    for names, cap in ((("p", "n", "l"), MAX_TABLE_N), (("m", "h", "x"), MAX_VERIFY_M)):
        for name in names:
            if max(values.get(name, ()), default=0) > cap:
                raise ValueError(f"{name} must be at most {cap}")


def _rational_param(raw: dict[str, str], name: str) -> Fraction:
    if name not in raw:
        raise ValueError(f"missing required parameter {name!r}")
    return parse_rational(raw[name])


# --- output rendering ------------------------------------------------------


def _elapsed_ms(elapsed: float, deterministic: bool) -> float:
    return 0 if deterministic else round(elapsed * 1000, 3)


def _report_obj(report: VerificationReport, deterministic: bool) -> dict:
    return {
        "verifier": report.verifier,
        "params": dict(report.params),
        "lhs": format_rational(report.lhs),
        "rhs": format_rational(report.rhs),
        "holds": report.holds,
        "elapsed_ms": _elapsed_ms(report.elapsed, deterministic),
    }


def _params_cell(params: dict[str, int]) -> str:
    return ";".join(f"{name}={value}" for name, value in params.items())


_REPORT_FIELDS = ("verifier", "params", "lhs", "rhs", "holds", "elapsed_ms")


def _report_row(report: VerificationReport, deterministic: bool) -> list:
    return [
        report.verifier,
        _params_cell(report.params),
        format_rational(report.lhs),
        format_rational(report.rhs),
        "true" if report.holds else "false",
        _elapsed_ms(report.elapsed, deterministic),
    ]


class _Echo:
    """A file-like object whose write returns the text, so that csv.writer's
    writerow returns each line."""

    def write(self, text: str) -> str:
        return text


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    writer = csv.writer(_Echo(), lineterminator="\n")
    return map(writer.writerow, chain([header], rows))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# The renderers are generators, so their text is made while main writes it,
# with the digit limit lifted.


def _render_value(value: Fraction, fmt: str) -> Iterator[str]:
    if fmt == "csv":
        yield from _csv_lines(["value"], [[format_rational(value)]])
    else:
        yield _json_text({"value": format_rational(value)})


def _render_table(rows: Iterable[tuple], fmt: str) -> Iterator[str]:
    """(index, value) rows, one at a time, as CSV or as the text of
    json.dumps([{"index": index, "value": value}, ...], indent=2) + "\n"."""
    if fmt == "csv":
        yield from _csv_lines(["index", "value"], rows)
        return
    separator = "[\n"
    for index, value in rows:
        index, value = json.dumps(index), json.dumps(value)
        yield f'{separator}  {{\n    "index": {index},\n    "value": {value}\n  }}'
        separator = ",\n"
    yield "\n]\n"


def _render_report(report: VerificationReport, fmt: str, deterministic: bool) -> Iterator[str]:
    if fmt == "csv":
        yield from _csv_lines(_REPORT_FIELDS, [_report_row(report, deterministic)])
    else:
        yield _json_text(_report_obj(report, deterministic))


def _render_sweep(
    result: identity_suite.SweepResult, fmt: str, deterministic: bool
) -> Iterator[str]:
    if fmt == "csv":
        rows = (_report_row(report, deterministic) for report in result.reports)
        yield from _csv_lines(_REPORT_FIELDS, rows)
        return
    obj = {
        "verifier": result.verifier,
        "total": result.total,
        "passed": result.passed,
        "failed": result.failed,
        "failing": [_report_obj(report, deterministic) for report in result.failing],
        "elapsed_ms": _elapsed_ms(result.elapsed, deterministic),
    }
    yield _json_text(obj)


# --- subcommand handlers ---------------------------------------------------


_Handled = tuple[Iterable[str], int]


def _run_table(args: argparse.Namespace) -> _Handled:
    sequence = args.sequence
    raw = _parse_assignments(args.params)
    allowed = ["max_n", "k"] if sequence in _POLY_SEQUENCES else ["max_n"]
    _require_keys(raw, allowed)
    max_n = _int_param(raw, "max_n")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > MAX_TABLE_N:
        raise ValueError(f"max_n must be at most {MAX_TABLE_N}")
    if sequence in _POLY_SEQUENCES:
        k = _index_k(_int_param(raw, "k"))
    if sequence == "stirling1":
        rows = (
            (f"{n}:{m}", str(stirling1(n, m))) for n in range(max_n + 1) for m in range(n + 1)
        )
    else:
        if sequence == "euler":
            values = euler_numbers(max_n)
        elif sequence == "genocchi":
            values = genocchi_numbers(max_n)
        elif sequence == "poly-genocchi":
            values = poly_genocchi_numbers(k, max_n)
        else:
            values = poly_euler_numbers(k, max_n)
        rows = ((n, format_rational(value)) for n, value in enumerate(values))
    return _render_table(rows, args.format), 0


def _run_eval(args: argparse.Namespace) -> _Handled:
    kind = args.kind
    raw = _parse_assignments(args.params)
    needs_k = kind in ("poly-euler-poly", "bar-poly-euler")
    needs_n = kind != "sawtooth"
    allowed = ["x"] + (["n"] if needs_n else []) + (["k"] if needs_k else [])
    _require_keys(raw, allowed)
    x = _rational_param(raw, "x")
    if kind == "sawtooth":
        value = sawtooth(x)
    else:
        n = _int_param(raw, "n")
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > MAX_TABLE_N:
            raise ValueError(f"n must be at most {MAX_TABLE_N}")
        if needs_k:
            poly = poly_euler_poly(_index_k(_int_param(raw, "k")), n)
        else:
            poly = euler_poly(n)
        if kind.startswith("bar-"):
            value = bar_eval(poly, x)
        else:
            value = poly_eval(poly, x)
    return _render_value(value, args.format), 0


def _run_dcsum(args: argparse.Namespace) -> _Handled:
    raw = _parse_assignments(args.params)
    _require_keys(raw, ["p", "h", "m", "k"])
    p = _int_param(raw, "p")
    h = _int_param(raw, "h")
    m = _int_param(raw, "m")
    if p > MAX_TABLE_N:
        raise ValueError(f"p must be at most {MAX_TABLE_N}")
    if (h % 2 == 0 or m % 2 == 0) and m > MAX_EVEN_DCSUM_M:
        raise ValueError(f"m must be at most {MAX_EVEN_DCSUM_M} when h or m is even")
    if "k" in raw:
        value = poly_dc_sum(_index_k(_int_param(raw, "k")), p, h, m)
    else:
        value = dc_sum(p, h, m)
    return _render_value(value, args.format), 0


def _run_verify(args: argparse.Namespace) -> _Handled:
    raw = _parse_assignments(args.params)
    params = {name: _int_param(raw, name) for name in raw}
    _verify_limits({name: [value] for name, value in params.items()})
    report = identity_suite.verify(args.verifier, params)
    text = _render_report(report, args.format, args.deterministic)
    ok = report.holds or args.verifier in EXPLORATORY_IDS
    return text, 0 if ok else 1


def _run_sweep(args: argparse.Namespace) -> _Handled:
    raw = _parse_assignments(args.params)
    ranges = {name: parse_range(value) for name, value in raw.items()}
    _verify_limits(ranges)
    result = identity_suite.sweep(args.verifier, ranges)
    text = _render_sweep(result, args.format, args.deterministic)
    ok = result.failed == 0 or args.verifier in EXPLORATORY_IDS
    return text, 0 if ok else 1


_HANDLERS = {
    "table": _run_table,
    "eval": _run_eval,
    "dcsum": _run_dcsum,
    "verify": _run_verify,
    "sweep": _run_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument("--output", metavar="PATH", help="write output to PATH instead of stdout")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="zero elapsed_ms fields so repeated runs are byte-identical",
    )
    parser = argparse.ArgumentParser(
        prog="polydc",
        description="Exact Euler/Genocchi sequence tables, Dedekind-type DC sums, "
        "and machine verification of the identity catalogue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common], help="print a sequence table")
    p_table.add_argument("sequence", choices=_SEQUENCES)
    p_table.add_argument("params", nargs="*", metavar="key=value")

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a polynomial or sawtooth")
    p_eval.add_argument("kind", choices=_EVAL_KINDS)
    p_eval.add_argument("params", nargs="*", metavar="key=value")

    p_dcsum = sub.add_parser("dcsum", parents=[common], help="compute one DC sum")
    p_dcsum.add_argument("params", nargs="*", metavar="key=value")

    p_verify = sub.add_parser("verify", parents=[common], help="verify one identity point")
    p_verify.add_argument("verifier", choices=VERIFIER_IDS, metavar="verifier")
    p_verify.add_argument("params", nargs="*", metavar="key=value")

    p_sweep = sub.add_parser("sweep", parents=[common], help="verify an identity over a grid")
    p_sweep.add_argument("verifier", choices=VERIFIER_IDS, metavar="verifier")
    p_sweep.add_argument("params", nargs="*", metavar="key=range")

    return parser


@contextmanager
def _all_digits() -> Iterator[None]:
    """Lift the interpreter's limit on the digits of int-to-str conversion, and
    restore it on leaving."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        text, exit_code = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _all_digits():
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.writelines(text)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.writelines(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

"""polydc benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload recip-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; stdlib only; the package is imported from
the checkout's src/.  Each run of the workload is a fresh worker process
(cold caches, as every CLI invocation has), started one at a time, with one
client working through the ops in a closed loop.

--trace 0 repeats runs until --seconds are spent (at least three) and
reports the end-to-end metrics.  Every time is scaled to the reference
machine speed by the calibration loop timed next to it (calibration.py).
Each op's latency is the median over the runs, each of which ran it cold;
wall_s sums them and op_p50_ms/op_p90_ms are their quantiles; setup_s and
peak_rss_mb are medians.  --trace 1 makes untraced and traced runs, times
the size ladders and the CLI, and reports the per-layer metrics.  See
bench/README.md.

Prints every metric with its unit, writes the full results (with provenance)
to bench/results/, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 1 when any op failed, 2 when the checkout has no package to run.
"""

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_RUNS = 3
SETUP_PER_RUN = 4
CLI_PAIRS = 4
TRACE_PAIRS = 2
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_SPANS = {
    "sequences.calls": "count",
    "sequences.busy_ms": "ms",
    "dc_sums.calls": "count",
    "dc_sums.busy_ms": "ms",
    "identity_suite.calls": "count",
    "identity_suite.busy_ms": "ms",
    "identity_suite.self_ms": "ms",
}
PER_LAYER_OTHER = {
    "dc_sums.alt_bar_hit_ratio": "ratio",
    "dc_sums.alt_bar_entries": "count",
    "cli.sweep_proc_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(*args: str) -> dict:
    """Run one worker process to completion; its JSON plus spawn-to-exit times.

    `setup_ref_s` is the set-up time at the reference speed, scaled by the
    calibration loop the worker timed right after its import.
    """
    spawned = _now_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    exited = _now_ns()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["setup_done_ns"] - spawned) / 1e9
    out["setup_ref_s"] = out["setup_s"] / calibration.slowdown(out["setup_calibration_s"])
    out["proc_s"] = (exited - spawned) / 1e9
    return out


def setup_samples(count: int) -> list[float]:
    return [spawn("setup")["setup_ref_s"] for _ in range(count)]


def run_speed(run: dict) -> float:
    """How many times slower than the reference the machine ran over `run`
    (reported per run, so that the scaling can be checked)."""
    return calibration.slowdown(*(c for _, c in run["calibrations"]))


def op_speeds(run: dict) -> list[float]:
    """Per op, the slowdown over the op's own interval: the mean of the
    calibrations from the last one before the op starts to the first one
    after it ends."""
    times = [t for t, _ in run["calibrations"]]
    seconds = [c for _, c in run["calibrations"]]
    speeds = []
    for start, ms in zip(run["starts"], run["latencies_ms"]):
        first = max(bisect.bisect_right(times, start) - 1, 0)
        last = bisect.bisect_left(times, start + ms / 1000)
        speeds.append(calibration.slowdown(*seconds[first:last + 1]))
    return speeds


def op_ms(runs: list[dict]) -> list[float]:
    """Each op's latency at the reference speed: the median over the runs,
    each of which ran it cold.

    The worker's calibration loop, run between ops
    (worker.CALIBRATE_EVERY_S), measures the machine's drift, and each
    latency is divided by the drift over its op.  A per-op window rather
    than one factor per run, because the drift changes within a run.  The
    scaling errs both ways, so the median over runs is steadier than the
    least (see bench/README.md for both comparisons).
    """
    scaled = (
        [ms / speed for ms, speed in zip(r["latencies_ms"], op_speeds(r))] for r in runs
    )
    return [statistics.median(samples) for samples in zip(*scaled)]


def wall_s(runs: list[dict]) -> float:
    """The workload's time to a verdict, summed over its ops."""
    return sum(op_ms(runs)) / 1000


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    spawn("setup")  # untimed: leaves the compiled bytecode an installed package has
    setups, runs = [], []
    while True:
        pending = setup_samples(SETUP_PER_RUN)
        run = spawn("run", "--workload", workload, "--seed", str(seed))
        runs.append(run)
        setups += pending + [run["setup_ref_s"]]
        typical = statistics.median(r["proc_s"] for r in runs)
        if len(runs) >= MIN_RUNS and time.monotonic() - started + typical > seconds:
            break
    while time.monotonic() - started < seconds - 1:  # too short for a run
        setups += setup_samples(1)
    latencies = op_ms(runs)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies) / 1000,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
        "runs": len(runs),
        "ops": runs[0]["ops"],
        "latency_samples": sum(len(r["latencies_ms"]) for r in runs),
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:10],
        "setup_samples_s": setups,
        "per_run": [
            {"speed": run_speed(r),
             **{k: r[k] for k in ("wall_s", "setup_s", "proc_s", "peak_rss_mb", "failed")}}
            for r in runs
        ],
        "alt_bar": runs[-1]["alt_bar"],
    }


def span_summary(spans: list[dict]) -> dict:
    """Per layer: calls, busy time (all its spans) and self time.

    A span's children are the calls it repeats internally.  The traced run
    makes them before it, in their own spans, and once more after it, warm,
    in the cache state it saw; its self time is its duration minus that
    warm time (`children_warm_ms`).
    """
    layers: dict = {}
    for s in spans:
        ms = (s["end"] - s["start"]) * 1000
        entry = layers.setdefault(s["layer"], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["busy_ms"] += ms
        entry["self_ms"] += ms - s["children_warm_ms"]
    return layers


def _cli_process(argv: list[str]) -> tuple:
    """Run one CLI process to completion; also its time, and that time at the
    reference speed, scaled by calibration loops timed just before and after."""
    before = calibration.sample()
    spawned = _now_ns()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    exited = _now_ns()
    slowdown = calibration.slowdown(before, calibration.sample())
    return proc, spawned, exited, slowdown


def _check_sweep(proc, points: int) -> str | None:
    """None when the CLI's sweep report is right, else what is wrong."""
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = {}
    ok = proc.returncode == 0 and report.get("verifier") == "thm14" and (
        report.get("total") == report.get("passed") == points and report.get("failed") == 0
    )
    return None if ok else f"cli sweep: exit {proc.returncode}, {report}"


def cli_pair(seed: int) -> dict:
    """The CLI's sweep over recip-sweep's grid, twice in fresh processes.

    First under cli_probe.py, which times the library call inside it: the
    CLI's own time is the process time from the CLI's start to its exit
    minus that call.  Then as a user runs it, `python -m polydc sweep thm14
    <grid> --deterministic`, for the whole process time.
    """
    probe, spawned, exited, slowdown = _cli_process([str(BENCH / "cli_probe.py"), str(seed)])
    try:
        timings = json.loads(probe.stderr.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"cli_probe.py {seed} exited {probe.returncode}:\n{probe.stderr}")
    self_s = (exited - timings["cli_start_ns"]) / 1e9 - timings["sweep_s"]
    proc, spawned, exited, proc_slowdown = _cli_process(["-m", "polydc", *timings["argv"]])
    proc_s = (exited - spawned) / 1e9
    errors = [e for e in (_check_sweep(probe, timings["points"]),
                          _check_sweep(proc, timings["points"])) if e]
    return {
        "proc_s": proc_s,
        "proc_ref_s": proc_s / proc_slowdown,
        "self_s": self_s,
        "self_ref_s": self_s / slowdown,
        "errors": errors,
    }


def traced(workload: str, seed: int) -> dict:
    spawn("setup")  # untimed: leaves the compiled bytecode an installed package has
    plain, tracing = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(spawn("run", "--workload", workload, "--seed", str(seed)))
        tracing.append(spawn("run", "--workload", workload, "--seed", str(seed), "--trace"))
    run = min(tracing, key=lambda r: r["wall_s"])
    layers = span_summary(run["spans"])
    values = {}
    for name in PER_LAYER_SPANS:
        layer, stat = name.split(".")
        values[name] = layers.get(layer, {}).get(stat, 0)
    alt_bar = plain[0]["alt_bar"]
    if alt_bar is not None:
        lookups = alt_bar["hits"] + alt_bar["misses"]
        values["dc_sums.alt_bar_hit_ratio"] = alt_bar["hits"] / lookups if lookups else 0.0
        values["dc_sums.alt_bar_entries"] = alt_bar["entries"]
    shared = spawn("ladder")
    values.update(shared["ladders"])
    for name, tag in shared["cold"]:
        values.update(spawn("ladder", "--ladder", name, "--rung", tag)["ladders"])
    cli = [cli_pair(seed) for _ in range(CLI_PAIRS)]
    values["cli.sweep_proc_s"] = statistics.median(c["proc_ref_s"] for c in cli)
    values["cli.self_s"] = statistics.median(c["self_ref_s"] for c in cli)
    traced_s, untraced_s = wall_s(tracing), wall_s(plain)
    values["trace.overhead_s"] = traced_s - untraced_s
    cli_errors = [e for c in cli for e in c["errors"]]
    return {
        "values": values,
        "runs": 2 * TRACE_PAIRS,
        "ops": run["ops"],
        "attempted": sum(r["ops"] for r in plain + tracing) + 2 * len(cli),
        "failed": sum(r["failed"] for r in plain + tracing) + len(cli_errors),
        "failures": ([f for r in plain + tracing for f in r["failures"]] + cli_errors)[:10],
        "cli_pairs": [{k: v for k, v in c.items() if k != "errors"} for c in cli],
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "layers": layers,
        "spans": run["spans"],
    }


def provenance(seed: int) -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            revision = proc.stdout.strip() or revision
        except OSError:
            pass
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def make_record(workload: str, seed: int, seconds: float, trace: int, result: dict) -> dict:
    """The results file: provenance, counts and metrics of one run of run.py."""
    if trace:
        units = {**PER_LAYER_SPANS, **PER_LAYER_OTHER}
        result["metrics"] = {
            name: {"value": value, "unit": units.get(name, "ms")}
            for name, value in result.pop("values").items()
        }
    return {
        "schema": 1,
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(seed),
        **result,
        "failed_ratio": result["failed"] / result["attempted"],
    }


def last_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recip-sweep", "seq-build", "big-sums", "catalogue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "polydc" / "__init__.py").is_file():
        print(f"error: no polydc package under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    spans = result.pop("spans", None)
    record = make_record(args.workload, args.seed, args.seconds, args.trace, result)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    for name, metric in record["metrics"].items():
        per_op = f" (over {record['ops']} ops)" if name.startswith("op_") else ""
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{per_op}")
    print(f"{args.workload} runs = {record['runs']}, ops per run = {record['ops']}, "
          f"failed_ratio = {record['failed_ratio']:.6g} ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    line = last_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

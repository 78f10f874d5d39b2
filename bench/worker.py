"""Benchmark worker: one fresh process per run, so every run pays cold caches.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Its first
act is `import polydc, polydc.cli`; the CLOCK_MONOTONIC reading right after
that import ends the set-up interval that run.py started when it spawned the
process.  Next it times the calibration loop (calibration.py), from which
run.py scales the set-up time to the reference speed.  It prints one JSON
object on stdout.  In `run` mode that object also holds each op's start and
latency, and the calibration loops run between ops, from which run.py scales
latencies to the reference speed.

Modes:
  setup                         import only
  run --workload W --seed S     run a workload's ops once, timing each
  run ... --trace               the same, each call bottom up in its own span
  ladder [--ladder L --rung R]  the shared-process ladders, or one cold rung
"""

import sys
import time

import polydc
import polydc.cli

SETUP_DONE_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from polydc import dc_sums  # noqa: E402

import calibration  # noqa: E402
import ladders  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
CALIBRATE_EVERY_S = 0.025


def _traced_call(call: workloads.Call, op_id: int, parent, spans: list):
    """Make the calls below `call` first (bottom up), then `call`, each in a span.

    The calls below are then made once more, warm, outside any span: they
    run in the cache state that `call` saw when it repeated them, so their
    time is what `call` spent in them (the span's `children_warm_ms`).
    """
    span_id = len(spans)
    spans.append(None)
    for lower in call.below:
        _traced_call(lower, op_id, span_id, spans)
    start = time.perf_counter()
    try:
        return call.fn()
    finally:
        end = time.perf_counter()
        warm_ms = 0.0
        for lower in call.below:
            t0 = time.perf_counter()
            lower.fn()
            warm_ms += (time.perf_counter() - t0) * 1000
        spans[span_id] = {
            "id": span_id,
            "name": f"{call.layer}.{call.name}",
            "layer": call.layer,
            "start": start,
            "end": end,
            "parent": parent,
            "op": op_id,
            "children_warm_ms": warm_ms,
        }


def _run_traced(op: workloads.Op, op_id: int, spans: list):
    results = tuple(_traced_call(step, op_id, None, spans) for step in op.steps)
    return results[0] if len(results) == 1 else results


def _alt_bar_cache():
    """Hits, misses and entries of dc_sums' alt-bar cache, or None if it is gone."""
    cache = getattr(dc_sums, "_euler_alt_bar", None)
    if cache is None or not hasattr(cache, "cache_info"):
        return None
    info = cache.cache_info()
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def run_workload(ops: list, refs: dict, trace: bool) -> dict:
    """Run every op once in a closed loop; check each result after timing it.

    Between ops, at most every CALIBRATE_EVERY_S, the calibration loop runs
    outside any op's timer.
    """
    latencies, failures, spans = [], [], []
    starts, calibrations = [], []
    last_calibration = -1.0
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if time.perf_counter() - last_calibration > CALIBRATE_EVERY_S:
            calibrations.append((time.perf_counter() - start, calibration.calibrate()))
            last_calibration = time.perf_counter()
        t0 = time.perf_counter()
        starts.append(t0 - start)
        try:
            result = _run_traced(op, op_id, spans) if trace else workloads.run_op(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            latencies.append((time.perf_counter() - t0) * 1000)
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        latencies.append((time.perf_counter() - t0) * 1000)
        if not workloads.check_result(op, result, refs):
            failures.append(f"{op.key}: wrong result")
    wall_s = time.perf_counter() - start
    calibrations.append((wall_s, calibration.calibrate()))
    return {
        "wall_s": wall_s,
        "calibrations": calibrations,
        "starts": starts,
        "latencies_ms": latencies,
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "spans": spans if trace else None,
    }


def _time_ladder(ladder: ladders.Ladder, size) -> float:
    call = ladder.prepare(size)
    samples = []
    for _ in range(ladder.repeats):
        t0 = time.perf_counter()
        call()
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def run_ladders(name, rung) -> dict:
    if name is not None:
        ladder = next(l for l in ladders.LADDERS if l.name == name and rung in dict(l.rungs))
        return {f"{name}.{rung}_ms": _time_ladder(ladder, dict(ladder.rungs)[rung])}
    return {
        f"{ladder.name}.{tag}_ms": _time_ladder(ladder, size)
        for ladder in ladders.LADDERS
        if not ladder.cold
        for tag, size in ladder.rungs
    }


def cold_rungs() -> list:
    return [(l.name, tag) for l in ladders.LADDERS if l.cold for tag, _ in l.rungs]


def main() -> int:
    setup_calibration_s = calibration.sample()
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "ladder"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ladder")
    parser.add_argument("--rung")
    args = parser.parse_args()
    if not Path(polydc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"polydc imported from {polydc.__file__}, not from this checkout", file=sys.stderr)
        return 3
    out: dict = {"setup_done_ns": SETUP_DONE_NS, "setup_calibration_s": setup_calibration_s}
    if args.mode == "run":
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        ops = workloads.build(args.workload, args.seed)
        out.update(run_workload(ops, refs, args.trace))
        out["alt_bar"] = _alt_bar_cache()
    elif args.mode == "ladder":
        out["ladders"] = run_ladders(args.ladder, args.rung)
        if args.ladder is None:
            out["cold"] = cold_rungs()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

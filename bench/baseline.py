"""Run the benchmark twice over ten seeds and check that it is steady.

    python3 bench/baseline.py [--out PATH]

Runs two sets, one after the other.  A set is, for every workload in
BENCHMARK.json, one end-to-end run (bench/run.py --trace 0) per seed 1..10.
Then one traced run per workload at seed 1.  For each end-to-end metric it
prints each set's median and spread (third minus first quartile, over the
median), and the second median's change against the first.  It exits 1
unless every spread is below a third of the metric's bound and every change
is within the bound.  With --out, it writes all of it, the traced runs'
per-layer metrics and the provenance to PATH (the committed baseline is
bench/BENCH_baseline.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_set(workload: str, spec: dict) -> dict:
    results = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
    return {
        "runs_per_seed": [r["runs"] for r in results],
        "ops": results[0]["ops"],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {
            m["name"]: {"unit": m["unit"],
                        **summarize([r["metrics"][m["name"]]["value"] for r in results])}
            for m in spec["end_to_end"]
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    sets = [{name: run_set(name, spec) for name in names} for _ in range(SETS)]
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for name in names:
        entry = {
            "ops": sets[0][name]["ops"],
            "failed_ratio": sum(s[name]["failed"] for s in sets)
            / sum(s[name]["attempted"] for s in sets),
            "sets": [{k: s[name][k] for k in ("runs_per_seed", "end_to_end")} for s in sets],
            "change": {},
        }
        for metric in spec["end_to_end"]:
            metric_name, bound = metric["name"], metric["bound"]
            first, second = (s["end_to_end"][metric_name] for s in entry["sets"])
            change = (second["median"] - first["median"]) / first["median"]
            if metric["better"] == "higher":
                change = -change
            entry["change"][metric_name] = change
            ok = max(first["spread"], second["spread"]) < bound / 3 and change <= bound
            steady &= ok
            print(f"{name:12s} {metric_name:12s} median {first['median']:10.4f} "
                  f"{second['median']:10.4f}  spread {first['spread']:.3f} "
                  f"{second['spread']:.3f}  change {change:+.3f}  bound {bound}  "
                  f"{'ok' if ok else 'WIDE'}")
        traced = run(name, SEEDS[0], spec["run_seconds"], 1)
        entry["traced"] = {
            "seed": SEEDS[0],
            "untraced_wall_s": traced["untraced_wall_s"],
            "traced_wall_s": traced["traced_wall_s"],
            "cli_pairs": traced["cli_pairs"],
            "per_layer": traced["metrics"],
        }
        summary["workloads"][name] = entry
        summary["provenance"] = {k: v for k, v in traced["provenance"].items() if k != "seed"}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark (not of polydc).

    python3 -m unittest discover -s bench -t bench

They pin the results-file schema, the metric and workload names, and check
that a wrong result is counted as failed instead of passing.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import baseline as baseline_py  # noqa: E402
import calibration  # noqa: E402
import ladders  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["recip-sweep", "seq-build", "big-sums", "catalogue"]
END_TO_END = ["setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]
PER_LAYER = [
    "exact_algebra.series_reciprocal.n50_ms",
    "exact_algebra.series_reciprocal.n100_ms",
    "exact_algebra.series_reciprocal.n200_ms",
    "exact_algebra.series_compose.n25_ms",
    "exact_algebra.series_compose.n50_ms",
    "exact_algebra.series_compose.n100_ms",
    "exact_algebra.poly_affine.d10_ms",
    "exact_algebra.poly_affine.d20_ms",
    "sequences.calls",
    "sequences.busy_ms",
    "sequences.euler_numbers.n50_ms",
    "sequences.euler_numbers.n100_ms",
    "sequences.euler_numbers.n200_ms",
    "sequences.poly_genocchi_numbers.n25_ms",
    "sequences.poly_genocchi_numbers.n50_ms",
    "sequences.poly_genocchi_numbers.n100_ms",
    "sequences.poly_euler_poly.n10_ms",
    "sequences.poly_euler_poly.n20_ms",
    "sequences.poly_euler_poly.n40_ms",
    "sequences.poly_euler_poly.ascending_n40_ms",
    "dc_sums.calls",
    "dc_sums.busy_ms",
    "dc_sums.poly_dc_sum.m1001_ms",
    "dc_sums.poly_dc_sum.m2001_ms",
    "dc_sums.poly_dc_sum.m4001_ms",
    "dc_sums.reciprocity_sides.hm143_ms",
    "dc_sums.reciprocity_sides.hm575_ms",
    "dc_sums.reciprocity_sides.hm2295_ms",
    "dc_sums.reciprocity_sides.hm9191_ms",
    "dc_sums.alt_bar_hit_ratio",
    "dc_sums.alt_bar_entries",
    "identity_suite.calls",
    "identity_suite.busy_ms",
    "identity_suite.self_ms",
    "cli.sweep_proc_s",
    "cli.self_s",
    "trace.overhead_s",
]
RECORD_KEYS = {
    "schema", "workload", "trace", "seconds", "provenance", "metrics", "runs", "ops",
    "latency_samples", "attempted", "failed", "failures", "failed_ratio", "setup_samples_s",
    "per_run", "alt_bar",
}
PROVENANCE_KEYS = {"git_revision", "python", "nproc", "seed"}


def fake_spawn(*args):
    """Worker output of the shape worker.py prints, without running anything."""
    return {
        "setup_s": 0.1, "setup_ref_s": 0.1, "proc_s": 0.01, "wall_s": 1.5, "latencies_ms": [1.0, 2.0, 4.0],
        "ops": 3, "failed": 0, "failures": [], "peak_rss_mb": 20.0, "alt_bar": None,
        "calibrations": [(0.0, calibration.CALIBRATION_REF_S)], "starts": [0.0, 0.001, 0.003],
    }


class SchemaTest(unittest.TestCase):
    def test_results_file_schema(self):
        spawn = run.spawn
        run.spawn = fake_spawn
        try:
            result = run.end_to_end("recip-sweep", 7, 0)
        finally:
            run.spawn = spawn
        record = run.make_record("recip-sweep", 7, 0, 0, result)
        self.assertEqual(set(record), RECORD_KEYS)
        self.assertEqual(set(record["provenance"]), PROVENANCE_KEYS)
        self.assertEqual(record["runs"], run.MIN_RUNS)
        self.assertEqual(list(record["metrics"]), END_TO_END)
        self.assertEqual(record["metrics"]["op_p50_ms"], {"value": 2.0, "unit": "ms"})
        line = run.last_line(record)
        self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (True, 9, 0))

    def test_baseline_schema(self):
        baseline = json.loads((BENCH / "BENCH_baseline.json").read_text(encoding="utf-8"))
        self.assertEqual(set(baseline), {"run_seconds", "seeds", "workloads", "provenance"})
        self.assertEqual(set(baseline["provenance"]), PROVENANCE_KEYS - {"seed"})
        self.assertEqual(list(baseline["workloads"]), WORKLOADS)
        for entry in baseline["workloads"].values():
            self.assertEqual(set(entry), {"ops", "failed_ratio", "sets", "change", "traced"})
            self.assertEqual(entry["failed_ratio"], 0)
            self.assertEqual(len(entry["sets"]), baseline_py.SETS)
            for one in entry["sets"]:
                self.assertEqual(len(one["runs_per_seed"]), len(baseline["seeds"]))
                self.assertEqual(list(one["end_to_end"]), END_TO_END)
            self.assertEqual(list(entry["change"]), END_TO_END)
            self.assertEqual(sorted(entry["traced"]["per_layer"]), sorted(PER_LAYER))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_warm_children(self):
        spans = [
            {"id": 0, "layer": "dc_sums", "start": 0.0, "end": 0.004, "parent": 1,
             "children_warm_ms": 0.0},
            {"id": 1, "layer": "identity_suite", "start": 0.005, "end": 0.008, "parent": None,
             "children_warm_ms": 2.5},
        ]
        layers = run.span_summary(spans)
        self.assertAlmostEqual(layers["identity_suite"]["self_ms"], 0.5)
        self.assertAlmostEqual(layers["dc_sums"]["busy_ms"], 4.0)
        self.assertEqual(layers["dc_sums"]["calls"], 1)

    def test_traced_call_times_children_again_after_the_parent(self):
        order = []
        child = workloads.Call("dc_sums", "c", lambda: order.append("child"))
        parent = workloads.Call("identity_suite", "p", lambda: order.append("parent"), (child,))
        spans = []
        worker._traced_call(parent, 0, None, spans)
        self.assertEqual(order, ["child", "parent", "child"])
        self.assertEqual([s["parent"] for s in spans], [None, 0])
        self.assertGreater(spans[0]["children_warm_ms"], 0)
        self.assertEqual(spans[1]["children_warm_ms"], 0)


class NamesTest(unittest.TestCase):
    def test_benchmark_json_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], END_TO_END)
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_code_names(self):
        self.assertEqual(list(workloads.WORKLOADS), WORKLOADS)
        self.assertEqual(list(run.END_TO_END), END_TO_END)
        produced = [*run.PER_LAYER_SPANS, *run.PER_LAYER_OTHER, *ladders.metric_names()]
        self.assertEqual(sorted(produced), sorted(PER_LAYER))

    def test_every_workload_has_100_ops(self):
        for name in WORKLOADS:
            self.assertGreaterEqual(len(workloads.build(name, 1)), 100, name)

    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            keys = [op.key for op in workloads.build(name, 3)]
            self.assertEqual(keys, [op.key for op in workloads.build(name, 3)])
            self.assertNotEqual(keys, [op.key for op in workloads.build(name, 4)])


class FailureCountTest(unittest.TestCase):
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    ops = workloads.seq_build(1)[:3]  # the three row tables, under a second

    def test_reference_digests_pass(self):
        self.assertEqual(worker.run_workload(self.ops, self.refs, trace=False)["failed"], 0)

    def test_wrong_digest_is_counted_failed(self):
        refs = copy.deepcopy(self.refs)
        refs[self.ops[1].key] = "0" * 20
        out = worker.run_workload(self.ops, refs, trace=False)
        self.assertEqual(out["failed"], 1)
        self.assertIn(self.ops[1].key, out["failures"][0])

    def test_traced_run_checks_too(self):
        refs = copy.deepcopy(self.refs)
        refs[self.ops[0].key] = "0" * 20
        out = worker.run_workload(self.ops, refs, trace=True)
        self.assertEqual(out["failed"], 1)
        self.assertEqual(len(out["spans"]), 3)

    def test_false_identity_and_raising_op_fail(self):
        class Sides:
            holds = False

        def boom():
            raise ValueError("boom")

        ops = [
            workloads.Op("false", "holds", (workloads.Call("t", "f", Sides),)),
            workloads.Op("raises", "digest", (workloads.Call("t", "g", boom),)),
        ]
        out = worker.run_workload(ops, {}, trace=False)
        self.assertEqual(out["failed"], 2)
        self.assertEqual(len(out["latencies_ms"]), 2)


if __name__ == "__main__":
    unittest.main()

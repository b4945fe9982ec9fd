"""Self-tests for the benchmark itself: python3 perfbench/selftest.py

They check that inputs follow the seed, that the reference checker rejects
wrong answers, that the span recorder computes self time correctly, and
that the exact per-layer counts repeat between two traced runs.  They live
apart from the repository's test suite so they add nothing to its run time.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

import hostspeed
import reference
import run
import spans
import worker
import workloads


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_queries(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.queries(workload, 7), workloads.queries(workload, 7))
                self.assertNotEqual(workloads.queries(workload, 7), workloads.queries(workload, 8))

    def test_query_sets_are_large_enough_for_p90(self):
        for workload in workloads.WORKLOADS:
            self.assertGreaterEqual(len(workloads.queries(workload, 1)), 100)

    def test_oracle_set_is_the_fixed_mix(self):
        self.assertEqual(sorted(t for _, t in workloads.queries("oracle", 3)),
                         sorted(t for t, n in workloads.ORACLE_MIX.items() for _ in range(n)))

    def test_recursion_cost_sums_over_reachable_triples(self):
        # (1,1,2) reaches itself (mu = 3) and (1,1,1) (mu = 2).
        self.assertEqual(workloads.recursion_cost((1, 1, 2)), 3**2 + 2**2)


class Checker(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(reference.dynkin_count("A5"), 1296)
        self.assertEqual(reference.dynkin_count("D4"), 162)
        self.assertEqual(reference.dynkin_count("E8"), 37968750)
        self.assertEqual(reference.affine_count((2, 3, 5)), 2551500000)
        self.assertEqual(reference.forest_count(["A2", "A2", "A2"]), 90 * 27)
        self.assertEqual([reference.nc_size(t) for t in ("A3", "D4", "E6", "E7", "E8")],
                         [14, 50, 833, 4160, 25080])
        self.assertEqual(reference.admissible(3), [(1, 1, 1), (1, 1, 2)])

    def test_rejects_wrong_count(self):
        self.assertIsNone(reference.check("oracle", "E6", 41472))
        self.assertIsNotNone(reference.check("oracle", "E6", 41473))
        self.assertIsNotNone(reference.check("affine", (2, 3, 5), 2551500001))
        self.assertIsNotNone(reference.check("dynkin", "A100", 0))

    def test_rejects_cli_failures(self):
        argv = ("affine", "2", "3", "5", "--method", "both")
        good = '{"values": {"closed": "2551500000", "recursive": "2551500000"}, "agree": true}'
        self.assertIsNone(reference.check("cli", argv, (0, good)))
        self.assertIsNotNone(reference.check("cli", argv, (1, good)))
        self.assertIsNotNone(reference.check("cli", argv, (0, good.replace("true", "false"))))
        self.assertIsNotNone(reference.check("cli", argv, (0, good.replace("2551500000", "7", 1))))
        hurwitz = ("verify", "hurwitz", "--max", "1")
        record = '{"check": "hurwitz1", "lhs": "1", "rhs": "1", "holds": %s}\n'
        self.assertIsNone(reference.check("cli", hurwitz, (0, record % "true" * 2)))
        self.assertIsNotNone(reference.check("cli", hurwitz, (0, record % "false" * 2)))

    def test_executor_counts_a_wrong_answer_as_failed(self):
        executor = worker.Executor("oracle")
        executor.execute = lambda kind, arg: 41473
        self.assertIsNone(executor.run_query("oracle", "E6"))
        self.assertEqual((executor.attempted, executor.failed), (1, 1))


class HostSpeed(unittest.TestCase):
    def test_probe_walks_s5(self):
        self.assertEqual(hostspeed.probe(), 120)

    def test_scale_is_mean_probe_time_over_reference(self):
        host = hostspeed.HostSpeed()
        host.samples = [hostspeed.REFERENCE_PROBE_S, 3 * hostspeed.REFERENCE_PROBE_S]
        self.assertAlmostEqual(host.scale(), 2.0)

    def test_probing_is_left_out_of_pass_wall_time(self):
        executor = worker.Executor("oracle")
        executor.execute = lambda kind, arg: reference.dynkin_count(arg)
        host = hostspeed.HostSpeed()
        with mock.patch.object(hostspeed, "probe", lambda: time.sleep(0.01)):
            wall, latencies, scales = executor.run_pass([("oracle", "A3")] * 5, host=host)
        self.assertEqual((len(host.samples), len(latencies), len(scales)), (6, 5, 5))
        self.assertGreaterEqual(host.spent_s, 0.06)
        self.assertLess(wall, 0.01)
        self.assertTrue(all(s > 10 for s in scales))  # 10 ms probes against 0.5 ms


class SpanRecorder(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # a spans [0, 10] with children b [1, 2] and b [3, 5]; c [3.5, 4] is inside the second b.
        stats = spans.aggregate(["a", "b", "c"], [0, 1, 1, 2], [-1, 0, 0, 2],
                                [0.0, 1.0, 3.0, 3.5], [10.0, 2.0, 5.0, 4.0])
        self.assertEqual(stats, {"a": (1, 7.0), "b": (2, 2.5), "c": (1, 0.5)})

    def test_spans_file_round_trip(self):
        tracer = spans.Tracer()
        f = tracer.wrap("outer", lambda: tracer.wrap("inner", lambda: 3)())
        self.assertEqual(f(), 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "t.spans")
            tracer.write(path)
            names, arrays = spans.read_spans(path)
        self.assertEqual(names, ["outer", "inner"])
        self.assertEqual(list(arrays["parent"]), [-1, 0])
        self.assertEqual(list(arrays["end"]), list(tracer.end))


EXACT = ("weyl.elements_visited", "diagrams.classify_forest.calls",
         "counting.CountCache.get_affine.calls", "diagrams.vertices_classified",
         "counting.cache_file_bytes", "arith.calls", "cli.main.calls")
SMALL_SETS = {
    "oracle": [("oracle", t) for t in ("A3", "D4", "A4", "D5")],
    "recursion": [("affine", (2, 3, 5)), ("affine", (1, 6, 9)), ("dynkin", "D30")],
    "session": workloads.queries("session", 1)[:40],
}


class TracedRun(unittest.TestCase):
    def traced(self, workload: str) -> dict:
        executor = worker.Executor(workload)
        result = worker.traced_run(executor, SMALL_SETS[workload])
        self.assertEqual(executor.failures, [])
        return result["layers"]

    def test_exact_counts_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = self.traced(workload), self.traced(workload)
                self.assertEqual({m: first[m] for m in EXACT}, {m: second[m] for m in EXACT})

    def test_oracle_visits_nc_w(self):
        layers = self.traced("oracle")
        self.assertEqual(layers["weyl.elements_visited"],
                         sum(reference.nc_size(t) for _, t in SMALL_SETS["oracle"]))

    def test_self_times_account_for_wall_time(self):
        layers = self.traced("recursion")
        total = sum(layers[f"{m}.module_self_s"] for m in spans.MODULES) + layers["bench.self_s"]
        self.assertAlmostEqual(total, layers["traced_wall_s"], delta=1e-6)
        self.assertGreater(layers["diagrams.classify_forest.calls"], 0)
        self.assertEqual(layers["weyl.count_reflection_factorizations.calls"], 0)

    def test_tracer_restores_fecount(self):
        fecount = worker.Executor("recursion").fecount
        originals = (fecount.counting.classify_forest, fecount.CountCache.get_affine)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(fecount.counting.classify_forest, originals[0])
        tracer.remove()
        self.assertEqual((fecount.counting.classify_forest, fecount.CountCache.get_affine), originals)


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], spans.LAYER_METRICS)


if __name__ == "__main__":
    sys.exit(unittest.main())

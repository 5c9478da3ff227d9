"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s oasisbench -p 'test_*.py'
"""

import copy
import json
import os
import re
import unittest

import analysis
import run

BENCHMARK_JSON = os.path.join(analysis.HERE, "..", "BENCHMARK.json")
# The charsets BENCHMARK.json's names and units must keep to.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def rack_day(key="30x30+4/oasis-greedy", digest="00000000000000aa", cycle=0, **fields):
    op = {
        "kind": "rack_day", "key": key, "cycle": cycle, "checked": False, "ms": 30.0,
        "vm_days": 900.0, "rack_days": 1, "digest": digest, "error": "",
        "home_j": 5.0e8, "consolidation_j": 1.0e8, "memory_server_j": 1.0e7,
        "baseline_j": 9.0e8, "savings": 0.3, "delay_sum_s": 50.0, "lower_bound_j": 0.0,
        "schedule_j": 0.0, "local_savings": 0.0, "assisted_savings": 0.0,
        "global_savings": 0.0, "delay_count": 40, "events": 30000, "migrations": 100,
        "host_wakes": 20, "faults_injected": 0, "faults_recovered": 0,
        "migrated_bytes": 2**33, "checks": 0, "violations": 0, "drains": 0, "vms_drained": 0,
    }
    op.update(fields)
    return op


def oracle_solve(**fields):
    solve = dict(key="30x30+4/oracle", kind="oracle_solve", rack_days=0, lower_bound_j=4.0e8,
                 schedule_j=5.0e8, baseline_j=9.0e8, digest="00000000000000bb")
    solve.update(fields)
    return rack_day(**solve)


def synthetic_run():
    ops = [rack_day(), oracle_solve(),
           rack_day(cycle=1),
           rack_day(cycle=-1, checked=True, kind="strategy_day", ms=60.0, checks=1000),
           rack_day(cycle=-1), oracle_solve(cycle=-1)]
    raw = {"setup_s": [0.02, 0.021, 0.019], "input_digests": ["a", "a", "a"],
           "peak_rss_mib": 16.0,
           "cycles": [{"traced": True, "wall_s": 0.5}, {"traced": False, "wall_s": 0.45}],
           "prof": {"sim_dispatch_s": 0.4, "sim_heap_pop_s": 0.05, "sim_events": 60000,
                    "parallel_efficiency": 0.0, "worker_idle_share": 0.0,
                    "merge_serial_fraction": 0.0, "steals": 0},
           "ops": ops}
    spans = [
        {"name": "trace.generate", "module": "trace", "parent": -1, "op": -1, "items": 900,
         "start_ns": 0, "end_ns": 1_500_000},
        {"name": "op.rack_day", "module": "bench", "parent": -1, "op": 0, "items": 0,
         "start_ns": 2_000_000, "end_ns": 32_000_000},
        {"name": "cluster.ctor", "module": "cluster", "parent": 1, "op": 0, "items": 0,
         "start_ns": 2_100_000, "end_ns": 2_300_000},
        {"name": "cluster.run.oasis-greedy", "module": "cluster", "parent": 1, "op": 0,
         "items": 0, "start_ns": 2_300_000, "end_ns": 31_000_000},
    ]
    return raw, spans


class PercentileRuleTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(100), 90)
        self.assertEqual(analysis.tail_percentile(5000), 90)
        self.assertEqual(analysis.tail_percentile(99), 89)
        self.assertEqual(analysis.tail_percentile(20), 50)
        self.assertIsNone(analysis.tail_percentile(19))

    def test_fallback_is_the_highest_percentile_with_ten_beyond(self):
        for n in range(20, 100):
            p = analysis.tail_percentile(n)
            self.assertGreaterEqual(analysis.samples_beyond(n, p), 10, n)
            if p < 90:
                self.assertLess(analysis.samples_beyond(n, p + 1), 10, n)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.quantile(values, 50), 50)
        self.assertEqual(analysis.quantile(values, 90), 90)
        self.assertEqual(analysis.quantile([7.0], 90), 7.0)

    def test_short_run_reports_its_tail_under_its_own_name(self):
        raw, _ = synthetic_run()
        metrics = analysis.end_to_end(raw)
        self.assertIn("op_ms.p90", metrics)
        raw["ops"] = [rack_day(cycle=c // 15) for c in range(60)]
        self.assertIn("op_ms.p83", analysis.end_to_end(raw))


class NameTest(unittest.TestCase):
    def test_charset(self):
        for good in ("op_ms.p50", "cluster.strategy.first-fit-decreasing.day_ms", "9lives"):
            self.assertTrue(valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "semi;colon", "x" * 65, "slash/no"):
            self.assertFalse(valid_name(bad), bad)
        for good in ("ms", "1/s", "vm-day/s", "%", "fraction", "MiB"):
            self.assertTrue(valid_unit(good), good)
        self.assertFalse(valid_unit("milliseconds!"))

    def test_every_benchmark_name_and_unit_is_valid(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(valid_name(name), name)
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(valid_unit(metric["unit"]), metric)


class JudgeTest(unittest.TestCase):
    def test_clean_run_passes(self):
        raw, _ = synthetic_run()
        self.assertEqual(analysis.judge(raw["ops"])[0], 0)

    def test_corrupted_digest_fails_the_later_op(self):
        raw, _ = synthetic_run()
        raw["ops"][2]["digest"] = "00000000000000ab"
        failed, lines = analysis.judge(raw["ops"])
        self.assertEqual(failed, 1)
        self.assertIn("digest", lines[0])

    def test_each_failure_rule(self):
        cases = [
            rack_day(error="boom"),
            rack_day(violations=1),
            rack_day(home_j=-1.0),
            rack_day(consolidation_j=float("nan")),
            rack_day(savings=1.0),
            rack_day(savings=-0.01),
            oracle_solve(lower_bound_j=6.0e8),
            oracle_solve(schedule_j=9.5e8),
            rack_day(kind="datacenter_day", rack_days=4, local_savings=0.26,
                     assisted_savings=0.25, global_savings=0.27),
        ]
        for op in cases:
            self.assertEqual(analysis.judge([op])[0], 1, op)
        ok_dc = rack_day(kind="datacenter_day", rack_days=4, local_savings=0.25,
                         assisted_savings=0.26, global_savings=0.27)
        self.assertEqual(analysis.judge([ok_dc])[0], 0)

    def test_oracle_gap_pools_racks(self):
        ops = [rack_day(key="a/oasis-greedy", home_j=6.0e8, consolidation_j=0.0,
                        memory_server_j=0.0),
               oracle_solve(key="a/oracle", schedule_j=5.0e8),
               rack_day(key="b/oasis-greedy", home_j=3.0e8, consolidation_j=0.0,
                        memory_server_j=0.0),
               oracle_solve(key="b/oracle", schedule_j=2.5e8, lower_bound_j=2.0e8),
               oracle_solve(key="unpaired/oracle")]
        self.assertAlmostEqual(analysis.oracle_gap(ops), 9.0e8 / 7.5e8 - 1.0)

    def test_results_digest_sees_every_reference_result(self):
        raw, _ = synthetic_run()
        before = analysis.results_digest(raw["ops"])
        changed = copy.deepcopy(raw["ops"])
        changed[1]["digest"] = "00000000000000cc"
        self.assertNotEqual(analysis.results_digest(changed), before)


class SpecTest(unittest.TestCase):
    def test_every_metric_has_a_prediction_entry(self):
        bench = load_benchmark()
        spec = analysis.load_spec()
        workloads = {w["name"] for w in bench["workloads"]}
        end_to_end = {m["name"] for m in bench["end_to_end"]}
        self.assertEqual(workloads, set(run.WORKLOADS))
        self.assertEqual(end_to_end, set(spec["end_to_end"]))
        self.assertEqual({m["name"] for m in bench["per_layer"]}, set(spec["per_layer"]))
        for section in ("end_to_end", "per_layer"):
            for metric in bench[section]:
                entry = spec[section][metric["name"]]
                self.assertEqual(entry["unit"], metric["unit"], metric)
                self.assertEqual(entry["better"], metric["better"], metric)
                self.assertIn(entry["kind"], ("host", "simulated"), metric)
        for name, entry in spec["per_layer"].items():
            self.assertLessEqual(set(entry["moves"]), end_to_end, name)
            self.assertLessEqual(set(entry["on"]) | set(entry["flat_on"]), workloads, name)
            self.assertTrue(entry["moves"] or entry.get("note") or entry["kind"] == "simulated",
                            name)

    def test_reported_metrics_match_the_benchmark(self):
        bench = load_benchmark()
        raw, spans = synthetic_run()
        self.assertEqual(set(analysis.end_to_end(raw)),
                         {m["name"] for m in bench["end_to_end"]})
        self.assertEqual(set(analysis.per_layer(raw, spans)),
                         {m["name"] for m in bench["per_layer"]})

    def test_self_time_subtracts_children(self):
        _, spans = synthetic_run()
        selfs = analysis.self_times(spans)
        self.assertAlmostEqual(selfs[1], 30.0 - 0.2 - 28.7)
        self.assertAlmostEqual(selfs[3], 28.7)


if __name__ == "__main__":
    unittest.main()

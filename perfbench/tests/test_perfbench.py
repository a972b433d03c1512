#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/tests/test_perfbench.py

Covers the tail-percentile rule and metric derivation (run.py), the
comparison tool's verdicts on synthetic results (compare.py), the
seeded input generators (ena_perfbench --self-test, built on demand
through run.py --self-test), and the set-up-only processes behind
setup_s.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run = load("run")
compare = load("compare")


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        for p, least in ((50.0, 20), (75.0, 40), (99.0, 1000),
                         (99.9, 10000)):
            values = list(range(least))
            self.assertEqual(run.tail_latency(values, p),
                             least - 1 - run.TAIL_BEYOND, p)
            with self.assertRaises(ValueError):
                run.tail_latency(values[:-1], p)

    def test_every_accepted_pick_leaves_ten_beyond(self):
        for p in run.TAIL_PERCENTILE.values():
            for n in range(1, 1200):
                values = list(range(n, 0, -1))
                try:
                    v = run.tail_latency(values, p)
                except ValueError:
                    continue
                self.assertGreaterEqual(sum(x > v for x in values),
                                        run.TAIL_BEYOND, (p, n))

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.tail_latency(values, 90.0), 90)
        self.assertEqual(run.tail_latency(values, 50.0), 50)
        self.assertEqual(run.nearest_rank(1, 99.9), 1)


class EndToEnd(unittest.TestCase):
    def raw(self, n):
        return {"workload": "fig7_chiplet", "latencies_ms":
                [float(i) for i in range(1, n + 1)], "loop_s": 2.0,
                "setup_s": [0.3, 0.1, 0.2], "peak_rss_kb": 2048,
                "attempted": n, "failed": 1, "sim_events": 100}

    def test_metrics(self):
        m, ctx = run.end_to_end(self.raw(100))
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["ops_per_s"], 50.0)
        self.assertEqual(m["latency_p50_ms"], 50.5)
        self.assertEqual(m["latency_tail_ms"], 75.0)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(ctx["latency_tail_percentile"], 75.0)
        self.assertEqual(ctx["failed_frac"], 0.01)
        self.assertEqual(ctx["sim_events_per_s"], 50.0)

    def test_too_few_ops_is_an_error(self):
        with self.assertRaises(ValueError):
            run.end_to_end(self.raw(39))


def result(workload, seed, **metrics):
    return {"provenance": {"workload": workload, "seed": seed,
                           "trace": 0},
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()},
            "digests": {"d": "same"}}


SPEC = {"end_to_end": [
    {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def verdicts(parent_lat, change_lat, parent_tput=None, change_tput=None):
    parent_tput = parent_tput or [100.0] * len(parent_lat)
    change_tput = change_tput or [100.0] * len(change_lat)
    parent = [result("w", s, lat=a, tput=b)
              for s, (a, b) in enumerate(zip(parent_lat, parent_tput))]
    change = [result("w", s, lat=a, tput=b)
              for s, (a, b) in enumerate(zip(change_lat, change_tput))]
    rows = compare.compare(parent, change, SPEC)
    return {m["name"]: v for _, m, _, _, v, _ in rows}


class Verdicts(unittest.TestCase):
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]

    def test_improved(self):
        faster = [x * 0.8 for x in self.base]
        self.assertEqual(verdicts(self.base, faster)["lat"], "improved")

    def test_no_worse(self):
        same = list(reversed(self.base))
        v = verdicts(self.base, same)
        self.assertEqual(v["lat"], "no worse")
        self.assertEqual(v["tput"], "no worse")

    def test_worse(self):
        slower = [x * 1.3 for x in self.base]
        self.assertEqual(verdicts(self.base, slower)["lat"], "worse")
        lower = [70.0] * 10
        self.assertEqual(verdicts(self.base, self.base, [100.0] * 10,
                                  lower)["tput"], "worse")

    def test_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 6.0, 14.0, 8.0, 12.0, 10.0, 10.0]
        v = verdicts(noisy, [x * 1.05 for x in noisy])
        self.assertEqual(v["lat"], "unresolved")

    def test_small_win_within_spread_is_not_improved(self):
        slightly = [x * 0.99 for x in reversed(self.base)]
        self.assertEqual(verdicts(self.base, slightly)["lat"], "no worse")

    def test_digest_mismatch(self):
        a = [result("w", 1, lat=1.0, tput=1.0)]
        b = [result("w", 1, lat=1.0, tput=1.0)]
        b[0]["digests"] = {"d": "other"}
        self.assertEqual(compare.digest_mismatches(a, b), [("w", 1)])
        self.assertEqual(compare.digest_mismatches(a, a), [])


class Generators(unittest.TestCase):
    def test_self_test(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"),
             "--self-test"], capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn(" 0 failed", proc.stdout)


class SetupProcesses(unittest.TestCase):
    def test_each_workload_sets_up_and_removes_its_socket(self):
        binary = run.build()
        with tempfile.TemporaryDirectory() as tmp:
            sock = os.path.join(tmp, "s.sock")
            for w in run.WORKLOADS:
                times = run.setup_times(
                    binary, types.SimpleNamespace(workload=w),
                    dict(os.environ), sock, 2)
                self.assertEqual(len(times), 2, w)
                self.assertTrue(all(0.0 < t < 5.0 for t in times),
                                (w, times))
                self.assertFalse(os.path.exists(sock), w)


if __name__ == "__main__":
    unittest.main()

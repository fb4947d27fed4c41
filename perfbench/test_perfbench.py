#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a trisim checkout. Builds the benchmark (as
perfbench/run.py does), then checks:
  * perfbench --self-test: metric-name syntax, self-time arithmetic on
    a synthetic span tree, span nesting;
  * perfbench's metric tables match BENCHMARK.json exactly (names,
    units, directions), and every name matches [A-Za-z0-9_.-]+;
  * a minimum-size smoke of every workload, untraced and traced, prints
    every metric of its table with its unit and reports correct results.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("benchmark build failed")


def result_line(args):
    proc = subprocess.run([BINARY] + args,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class MetricTables(unittest.TestCase):
    def test_self_test(self):
        proc = subprocess.run([BINARY, "--self-test"], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_tables_match_benchmark_json(self):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                                text=True, check=True).stdout.split("\n")
        rows = [line.split() for line in listed if line]
        for table in ("end_to_end", "per_layer"):
            printed = [(n, u, b) for t, n, u, b in rows if t == table]
            declared = [(m["name"], m["unit"], m["better"]) for m in spec[table]]
            self.assertEqual(printed, declared, table)
            for name, _, _ in printed:
                self.assertRegex(name, NAME)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        code, result = result_line(["--workload", workload, "--seed", "1",
                                    "--seconds", "0.1", "--trace", str(trace),
                                    "--smoke"])
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        with open("BENCHMARK.json") as f:
            table = json.load(f)["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in table])
        for m in table:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        return result["metrics"]

    def test_sweep(self):
        self.check("sweep", 0)
        layers = self.check("sweep", 1)
        self.assertEqual(layers["optimize.boot_probe_hits"]["value"], 0)

    def test_campaign(self):
        self.check("campaign", 0)
        self.check("campaign", 1)

    def test_profile(self):
        self.check("profile", 0)
        self.check("profile", 1)

    def test_replay(self):
        self.check("replay", 0)
        layers = self.check("replay", 1)
        self.assertGreater(layers["frame_digest.overhead_ratio"]["value"], 1)


if __name__ == "__main__":
    unittest.main()

"""Tests of the repository benchmark, on its tiny --smoke sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py' -v

Run from the repository root (the first test builds the benchmark). Each
workload runs in both passes; the tests check that every metric
BENCHMARK.json names for the pass is printed, by name with its unit, both in
the report and in the JSON result, that every check passed, and that --seed
reaches the simulation.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke(workload, trace, seed=1):
    """Run one smoke pass; returns (report lines, JSON result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}")
    return lines[:-1], json.loads(lines[-1])


class ConfigTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        self.assertEqual(set(CONFIG), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end", "per_layer"})
        names = [w["name"] for w in CONFIG["workloads"]]
        for m in CONFIG["end_to_end"] + CONFIG["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in CONFIG["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SmokeTest(unittest.TestCase):
    def check_pass(self, workload, trace):
        report, result = smoke(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = CONFIG["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed = [line.split() for line in report
                       if line.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, m["name"])
            self.assertEqual(printed[0][2], m["unit"], m["name"])

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in CONFIG["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_pass(workload, trace)

    def test_seed_reaches_the_simulation(self):
        modelled = ("sim_p99_s", "sim_peak_c")
        for workload in ("fleet-1000", "fleet-100-churn"):
            with self.subTest(workload=workload):
                runs = [smoke(workload, 0, seed)[1]["metrics"]
                        for seed in (1, 1, 2)]
                same = [tuple(r[k]["value"] for k in modelled) for r in runs]
                self.assertEqual(same[0], same[1])
                self.assertNotEqual(same[0], same[2])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the repository benchmark (about two minutes).

    python3 perfbench/selftest.py

Checks the command-line contract, that BENCHMARK.json and the binary declare
the same metrics, that every metric is emitted with its unit, that inputs and
the output digest are a function of the seed alone, and that a traced run
reproduces the untraced run's digest.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def run_json(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "1", "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


class Cli(unittest.TestCase):
    def test_help_lists_workloads_and_metrics_with_units(self):
        proc = bench("--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for name in WORKLOADS:
            self.assertIn(name, proc.stdout)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertIn("%s [%s]" % (m["name"], m["unit"]), proc.stdout)

    def test_bad_arguments_exit_2_without_a_result(self):
        for args in (["--workload", "nope"],
                     ["--workload", WORKLOADS[0], "--frobnicate", "1"],
                     ["--workload", WORKLOADS[0], "--trace", "2"],
                     ["--workload", WORKLOADS[0], "--seconds", "x"],
                     ["--seed", "1"]):
            proc = bench(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "", args)

    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))


class Workloads(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_each_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                info, plain = run_json(name, 1, 0)
                self.assertTrue(plain["correct"], plain)
                self.assertEqual(plain["failed"], 0)
                self.assertGreaterEqual(plain["attempted"], 1)
                self.assertTrue(info["golden_digest"],
                                "no recorded digest for the default seed")
                self.assertEqual(info["digest"], info["golden_digest"])
                self.check_metrics(plain, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"],
                                       0, m["name"])

                # The traced run reproduces the untraced digest and inputs.
                tinfo, traced = run_json(name, 1, 1)
                self.assertTrue(traced["correct"], traced)
                self.assertEqual(tinfo["digest"], info["digest"])
                self.assertEqual(tinfo["inputs_digest"], info["inputs_digest"])
                self.check_metrics(traced, SPEC["per_layer"])

                # Another seed gives other inputs and other outputs.
                oinfo, other = run_json(name, 2, 0)
                self.assertTrue(other["correct"], other)
                self.assertNotEqual(oinfo["inputs_digest"],
                                    info["inputs_digest"])
                self.assertNotEqual(oinfo["digest"], info["digest"])


if __name__ == "__main__":
    unittest.main(verbosity=2)

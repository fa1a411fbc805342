#!/usr/bin/env python3
"""Tests for perfbench: the statistics and verdict helpers, the correctness
gates on corrupted outputs, and a smoke run of every workload at toy sizes
asserting that each prints exactly the metrics BENCHMARK.json names.

    python3 perfbench/test_run.py --cfdclean PATH --layers PATH

`dune runtest` runs it against the binaries it just built (perfbench/dune).
"""

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BINARIES = {}


class Stats(unittest.TestCase):
    def test_relative_spread(self):
        # statistics.quantiles' default method puts the quartiles of 1..10
        # at 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(run.relative_spread(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(run.relative_spread([2.0] * 7), 0.0)

    def test_percentile(self):
        self.assertEqual(run.percentile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(run.percentile(list(range(101)), 0.95), 95)
        self.assertAlmostEqual(run.percentile([0, 10], 0.95), 9.5)
        self.assertEqual(run.percentile([4], 0.95), 4)

    def test_tail_rule(self):
        # The highest percentile with at least ten samples beyond it.
        self.assertEqual(run.tail_percentile(1000), 0.99)
        self.assertEqual(run.tail_percentile(200), 0.95)
        self.assertEqual(run.tail_percentile(199), 0.90)
        self.assertEqual(run.tail_percentile(20), 0.50)
        self.assertIsNone(run.tail_percentile(19))

    def test_verdicts(self):
        v = run.verdict
        self.assertEqual(v("lower", 0.1, 1.0, 1.11), "regressed")
        self.assertEqual(v("lower", 0.1, 1.0, 1.09), "same")
        self.assertEqual(v("lower", 0.1, 1.0, 0.89), "improved")
        self.assertEqual(v("higher", 0.1, 100.0, 89.0), "regressed")
        self.assertEqual(v("higher", 0.1, 100.0, 91.0), "same")
        self.assertEqual(v("higher", 0.1, 100.0, 111.0), "improved")


class Gates(unittest.TestCase):
    """A corrupted output trips each CLI workload's gate."""

    def setUp(self):
        # The gates report each failure on stderr; these ones are expected.
        self.quiet = contextlib.redirect_stderr(io.StringIO())
        self.quiet.__enter__()
        self.dir = tempfile.mkdtemp(dir=os.getcwd())
        args = types.SimpleNamespace(workload="repair-3k", seed=3, seconds=1, smoke=True)
        self.bench = run.Bench(args, BINARIES["cfdclean"], BINARIES["layers"])
        self.bench.work = self.dir
        self.bench.gen_orders(self.dir, "--reference")
        self.p = lambda name: os.path.join(self.dir, name)

    def tearDown(self):
        shutil.rmtree(self.dir)
        self.quiet.__exit__(None, None, None)

    def repaired(self, name):
        subprocess.run([BINARIES["cfdclean"], "repair", self.p("dirty.csv"), self.p("sigma.cfd"),
                        "-o", self.p(name)], check=True, stderr=subprocess.DEVNULL)
        return self.p(name)

    def test_repair_gate(self):
        a, b = self.repaired("a.csv"), self.repaired("b.csv")
        run.repair_gate(self.bench, [a, b], self.p("sigma.cfd"))
        self.assertEqual(self.bench.problems, [])
        with open(b, "ab") as f:
            f.write(b"\n")
        run.repair_gate(self.bench, [a, b], self.p("sigma.cfd"))
        self.assertEqual(len(self.bench.problems), 1)
        run.repair_gate(self.bench, [self.p("dirty.csv")], self.p("sigma.cfd"))
        self.assertIn("violations", self.bench.problems[-1])

    def test_detect_gate(self):
        out = self.p("detect.out")
        with open(out, "wb") as f:
            subprocess.run([BINARIES["cfdclean"], "detect", self.p("dirty.csv"),
                            self.p("sigma.cfd")], stdout=f)
        run.detect_gate(self.bench, [out], self.p("reference.txt"))
        self.assertEqual(self.bench.problems, [])
        with open(out, "r+b") as f:
            f.write(b"9")
        run.detect_gate(self.bench, [out], self.p("reference.txt"))
        self.assertEqual(len(self.bench.problems), 1)


class Bodies(unittest.TestCase):
    def test_non_finite_cells_stay_json(self):
        # Seed 61's dirty relation holds a zip typo "inf" in tuple 1777,
        # which the CSV loader reads as a float; its batch body must still
        # be JSON.
        d = tempfile.mkdtemp(dir=os.getcwd())
        try:
            subprocess.run([BINARIES["layers"], "gen", "orders", "--n", "10000", "--seed", "61",
                            "--dir", d, "--clients", "1", "--rows", "2000", "--batch", "10"],
                           check=True)
            with open(os.path.join(d, "client0.jsonl")) as f:
                rows = [r for line in f for r in json.loads(line)["tuples"]]
            self.assertIn("inf", [cell for r in rows for cell in r])
        finally:
            shutil.rmtree(d)


class Smoke(unittest.TestCase):
    """Every workload at toy size, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.dir = tempfile.mkdtemp(dir=os.getcwd())
        shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), cls.dir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def smoke(self, workload, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--smoke",
             "--cfdclean", BINARIES["cfdclean"], "--layers", BINARIES["layers"]],
            cwd=self.dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        specs = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in specs})
        for m in specs:
            self.assertIn(m["name"], r.stdout)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        self.assertFalse(os.listdir(os.path.join(self.dir, run.WORK_DIR)))

    def test_workloads(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.smoke(w["name"], trace)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--cfdclean", required=True)
    ap.add_argument("--layers", required=True)
    args, rest = ap.parse_known_args()
    BINARIES.update(cfdclean=os.path.abspath(args.cfdclean), layers=os.path.abspath(args.layers))
    unittest.main(argv=[sys.argv[0], *rest])

#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [-v]

Builds the benchmark (through run.py) and checks that:
  - every workload runs briefly, answers correctly, and prints exactly the
    end-to-end metrics of BENCHMARK.json with their units;
  - the traced run prints exactly the per-layer metrics and writes a
    chrome trace that parses;
  - a deliberately corrupted reference makes the reply oracle fail the run;
  - a tuning variable in the environment makes the benchmark refuse to run;
  - a tree holding only BENCHMARK.json and perfbench/ exits non-zero
    without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "2"


def run(workload, *extra, trace=0, env=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def catalogue(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench[kind]}


def printed(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


class BenchmarkSelfTest(unittest.TestCase):
    def check_untraced(self, workload):
        proc, result = run(workload)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIsNotNone(result, proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(printed(result), catalogue("end_to_end"))
        for name, m in result["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_smoke_serve_unique(self):
        self.check_untraced("serve_unique")

    def test_smoke_serve_repeat(self):
        self.check_untraced("serve_repeat")

    def test_smoke_train_dtdbd(self):
        self.check_untraced("train_dtdbd")

    def test_traced_run_prints_per_layer_metrics_and_trace(self):
        proc, result = run("serve_repeat", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(printed(result), catalogue("per_layer"))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["serve.cache_hit_frac.closed"], 0.9)
        self.assertEqual(metrics["tensor.graph_recorded"], 0)
        trace = os.path.join(HERE, "out", "serve_repeat-seed7.trace.json")
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertTrue({"workload", "setup", "phase.open", "send", "receive",
                         "request", "probe.net"} <= names, names)

    def test_corrupted_reference_fails_the_run(self):
        proc, result = run("serve_unique", "--corrupt-reference")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_refuses_tuning_variables(self):
        env = dict(os.environ, DTDBD_NUM_THREADS="1")
        proc, result = run("serve_unique", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)
        self.assertIn("DTDBD_NUM_THREADS", proc.stderr)

    def test_bare_tree_exits_without_result(self):
        bare = os.path.join(HERE, "out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc, result = run("serve_unique", cwd=bare,
                               script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke tests of the adaptation-round benchmark.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py exactly as a benchmark run does, with a
short --seconds (every run still completes one pass per input variant, so
the whole file takes a couple of minutes). They check that every metric
BENCHMARK.json names is printed with its unit, that the correctness checks
pass, that quality and the plan fingerprint repeat for a seed, and that a
request for an unknown session is a failed op kept out of the latency
samples.
"""

import functools
import json
import math
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


@functools.lru_cache(maxsize=None)
def run(workload, seed=11, trace=0, inject=0, repeat=0):
    """Run one workload; returns (result object, {tag: info object}).
    Calls that differ only in `repeat` are separate processes."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject-unknown-every", str(inject)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{cmd} exited {done.returncode}:\n"
                             f"{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        if line.startswith("# ") and " {" in line:
            tag, _, body = line[2:].partition(" ")
            info[tag] = json.loads(body)
    return json.loads(lines[-1]), info


class MetricsEmitted(unittest.TestCase):
    def check_metrics(self, result, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, info = run(w)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, "end_to_end")
                # End-to-end metrics are never 0 on a healthy run.
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertEqual(info["run"]["samples"], info["run"]["rounds"])
                for key in ("nproc", "compiler", "build_type", "commit"):
                    self.assertIn(key, info["provenance"])
                self.assertEqual(info["provenance"]["seed"], 11)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, _ = run(w, trace=1)
                self.assertTrue(result["correct"])
                self.check_metrics(result, "per_layer")
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertGreater(metrics["trace.round_ms_p50"], 0)
                self.assertGreater(metrics["mesh.adapt_ms_p50"], 0)
                self.assertGreater(metrics["pared.step_ms_p50"], 0)
                spans = (BUILD / "trace" /
                         f"{w}-seed11.jsonl").read_text().splitlines()
                first = json.loads(spans[0])
                self.assertEqual(set(first),
                                 {"id", "name", "start_us", "end_us",
                                  "parent", "round"})

    def test_layers_land_on_their_workloads(self):
        plan = {k: v["value"] for k, v in run(WORKLOADS[0], trace=1)[0]
                ["metrics"].items()}
        svc = {k: v["value"] for k, v in run(WORKLOADS[1], trace=1)[0]
               ["metrics"].items()}
        fed = {k: v["value"] for k, v in run(WORKLOADS[2], trace=1)[0]
               ["metrics"].items()}
        self.assertGreater(plan["partition.kl_refine_ms"], 0)
        self.assertEqual(plan["svc.bytes_out_per_round"], 0)
        self.assertEqual(svc["partition.kl_refine_ms"], 0)
        self.assertGreater(svc["engine.sfc_ms"], 0)
        self.assertGreater(svc["svc.shard_busy_ms_per_round"], 0)
        self.assertGreater(fed["fed.shard_busy_ms_per_round"], 0)
        self.assertGreater(fed["fed.payload_kb_per_round"], 0)


class Repeatability(unittest.TestCase):
    def test_same_seed_same_quality_and_fingerprint(self):
        a, ia = run(WORKLOADS[0])
        b, ib = run(WORKLOADS[0], repeat=1)
        c, ic = run(WORKLOADS[0], trace=1)
        # Three separate processes of one seed, different pass counts.
        for other, oinfo in ((b, ib), (c, ic)):
            self.assertEqual(ia["run"]["fingerprint"],
                             oinfo["run"]["fingerprint"])
        for name in ("cut_mean", "migrated_frac_mean", "imbalance_p99"):
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)

    def test_other_seed_other_inputs(self):
        _, ia = run(WORKLOADS[0])
        _, ib = run(WORKLOADS[0], seed=12)
        self.assertNotEqual(ia["run"]["fingerprint"],
                            ib["run"]["fingerprint"])


class FailureAccounting(unittest.TestCase):
    def test_unknown_session_is_a_failed_op_without_a_sample(self):
        every = 10
        result, info = run("svc_sfc_sessions", inject=every)
        run_info = info["run"]
        rounds = run_info["passes"] * run_info["rounds_per_pass"]
        injected = run_info["passes"] * len(
            range(0, run_info["rounds_per_pass"], every))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], injected)
        ok = result["metrics"]["ok_frac"]["value"]
        self.assertAlmostEqual(ok, 1 - injected / result["attempted"],
                               places=12)
        self.assertLess(ok, 1)
        # The rounds that carried a failed op are not latency samples.
        self.assertEqual(info["run"]["samples"], rounds - injected)


if __name__ == "__main__":
    unittest.main()

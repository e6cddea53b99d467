"""Self-test of the benchmark, on the small `smoke` workload (leibniz2⊗B2).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
from speedprobe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkOutput(unittest.TestCase):
    def check_result(self, out: dict, wanted: list) -> None:
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], len(WORKLOADS["smoke"].ops))
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                         {m["name"]: m["unit"] for m in wanted})
        for value in out["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end_metrics_with_units(self):
        out = bench(0, 0)
        self.check_result(out, SPEC["end_to_end"])
        self.assertEqual(out["metrics"]["ok_frac"]["value"], 1.0)

    def test_per_layer_metrics_with_units(self):
        out = bench(0, 1)
        self.check_result(out, SPEC["per_layer"])
        self.assertEqual(out["metrics"]["tensor_bridge.psi_matrix.rows"]["value"], 11408)


class CorrectnessGate(unittest.TestCase):
    def test_wrong_pin_is_a_failed_op(self):
        z = worker.import_zinbiel()
        good = WORKLOADS["smoke"].ops[2]
        wrong = dataclasses.replace(good, pin={**good.pin, "ZBH": [3, 2, 2]})
        result = worker.run_pass(z, (good, wrong), seed=0)
        self.assertEqual([o["ok"] for o in result["ops"]], [True, False])

    def test_wrappers_reach_rebound_names_and_come_off(self):
        z = worker.import_zinbiel()
        original = z.cli.catalog_builtin
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(z.cli.catalog_builtin, original)
            self.assertIs(z.cli.catalog_builtin, z.catalog.builtin)
            self.assertIs(z.tensor_bridge.check_axioms, z.algebras.check_axioms)
        finally:
            tracer.uninstall()
        self.assertIs(z.cli.catalog_builtin, original)


class Probe(unittest.TestCase):
    def test_samples_inside_a_busy_loop_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with SpeedProbe(interval=0.005) as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        self.assertGreater(len(probe.samples), 5)
        self.assertGreater(probe.overhead_s, 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_untraced_pass_reports_normalised_time(self):
        z = worker.import_zinbiel()
        result = worker.run_pass(z, WORKLOADS["smoke"].ops, seed=0)
        self.assertAlmostEqual(result["wall_ref"], result["wall_s"] / result["kernel_s"])
        self.assertGreater(result["probe_samples"], 0)


if __name__ == "__main__":
    unittest.main()

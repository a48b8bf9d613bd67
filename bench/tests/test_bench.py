"""Tests of the benchmark itself (not of chainforge).

Run from the repository root:

    python3 -m unittest discover -s bench/tests -v

They take about two minutes: every workload runs once at smoke size in
both modes, and the fault-injection tests run one cycle each.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from chainforge import ces  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class OutputSchema(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_every_workload_in_both_modes(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "keyserve", "--seed", "1", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class FaultInjection(unittest.TestCase):
    def test_tampered_reference_khat_fails_the_op(self):
        reference = wl.load_reference()
        work = wl.PartitionRandom(5, reference)
        rec = wl.Recorder(SpeedProbe())
        work.setup(rec)
        key = work.inputs[0][0]
        reference[key] = dict(reference[key], khat=reference[key]["khat"] + 1)
        work.cycle(0, rec)
        self.assertEqual((rec.attempted, rec.failed, rec.wrong), (1, 1, 1))
        (what,) = rec.failures
        self.assertIn("khat", what)
        gated, detail = run.end_to_end(work, rec, [(1.0, 0)])
        self.assertEqual(detail["named"]["fail_ratio"][0], 1.0)

    def test_tampered_stored_key_fails_audit_and_derive(self):
        work = wl.KeyServe(5, wl.load_reference())
        rec = wl.Recorder(SpeedProbe())
        work.setup(rec)
        self.assertEqual(rec.failed, 0)
        svc = work.service
        x, y, _ = next(r for r in svc["requests"] if r[2])
        real_setup = ces.setup

        def tampered_setup(*args, **kwargs):
            material = real_setup(*args, **kwargs)
            material.keys[y] = bytes(b ^ 1 for b in material.keys[y])
            return material

        ces.setup = tampered_setup
        try:
            work.cycle(0, rec)
        finally:
            ces.setup = real_setup
        bad = sum(1 for r in svc["requests"] if r[2] and r[1] == y)
        self.assertEqual(rec.wrong, 1 + bad)
        self.assertEqual(rec.failed, rec.wrong)
        self.assertIn("audit: wrong answer: correctness_audit rejected the material", rec.failures)
        self.assertTrue(any(f.startswith(f"derive: wrong answer: wrong key for {y!r}") for f in rec.failures))


class Statistics(unittest.TestCase):
    def test_tail_is_highest_percentile_with_ten_beyond(self):
        xs = [float(i) for i in range(1, 1001)]
        self.assertEqual(run.tail(xs), (990.0, 99, 1000))
        self.assertEqual(run.tail(xs[:999]), (900.0, 90, 999))
        self.assertEqual(run.tail(xs[:99]), (50.0, 50, 99))

    def test_down_masks_match_the_poset(self):
        policy = wl.random_instance(7)
        p = policy.poset
        masks = wl.down_masks(p.elements, p.covers)
        for x in p.elements:
            below = {y for i, y in enumerate(p.elements) if masks[x] >> i & 1}
            self.assertEqual(below, set(p.down_set(x)))


if __name__ == "__main__":
    unittest.main()

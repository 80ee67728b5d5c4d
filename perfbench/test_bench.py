#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_bench.py

The digest test runs every workload twice at one seed and demands identical
exact-count digests, then once at a second seed and demands a different
digest, which proves the seed argument reaches the program. A traced run at
the first seed must print the first digest too: tracing observes the
simulation without changing it. Every run must pass its own output checks.
The whole file takes about half a minute.
"""

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own entry point)


class DigestTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_digest_repeats_at_one_seed_and_follows_the_seed(self):
        for workload in (w["name"] for w in run.load_spec()["workloads"]):
            with self.subTest(workload=workload):
                first = run.drive(workload, 1)
                again = run.drive(workload, 1)
                traced = run.drive(workload, 1, traced=True)
                other = run.drive(workload, 2)
                for record in (first, again, traced, other):
                    self.assertIsNotNone(record)
                    self.assertEqual(record["failed_checks"], [])
                self.assertEqual(first["digest"], again["digest"])
                self.assertEqual(first["text"][0], again["text"][0])
                self.assertEqual(first["digest"], traced["digest"])
                self.assertNotEqual(first["digest"], other["digest"])


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = run.ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "arpanet87-hnspf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

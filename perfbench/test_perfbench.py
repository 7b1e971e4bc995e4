#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark program like run.py does, then checks that every
workload's generator is deterministic: the same seed gives an identical
operation stream (preload included), a different seed a different one.
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("benchmark build failed")

    def digest(self, workload, seed, ops=20000):
        out = subprocess.run(
            [self.binary, "--digest", workload, "--seed", str(seed),
             "--ops", str(ops)],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_same_seed_same_stream(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.digest(w, 7), self.digest(w, 7))

    def test_other_seed_other_stream(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.digest(w, 7), self.digest(w, 8))

    def test_longer_stream_extends_digest(self):
        # The digest covers the requested number of operations, so a
        # difference past the first ops would show too.
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.digest(w, 7, 100),
                                    self.digest(w, 7, 200))


if __name__ == "__main__":
    unittest.main()

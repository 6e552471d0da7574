#!/usr/bin/env python3
"""Determinism test of the benchmark.

    python3 perfbench/test_perfbench.py

For every workload, two --digest runs on one seed must print the same
corpus digest and the same exact counts (MILP nodes, LP iterations, gaps,
objective, local-search evaluations, near-miss and cache hits). A second
seed must change the corpus of the serving workloads and leave the
waters-solve instance (the paper's) unchanged.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, OTHER_SEED = 7, 8


def digest_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0", "--digest"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload} seed {seed}: checks failed")
    return json.loads(lines[-2])["run_record"]


class Determinism(unittest.TestCase):
    def check(self, workload, digest_key, seed_changes_corpus):
        first = digest_run(workload, SEED)
        again = digest_run(workload, SEED)
        self.assertEqual(first["counts"], again["counts"])
        self.assertEqual(first[digest_key], again[digest_key])
        other = digest_run(workload, OTHER_SEED)
        if seed_changes_corpus:
            self.assertNotEqual(first[digest_key], other[digest_key])
        else:
            self.assertEqual(first[digest_key], other[digest_key])
        return first["counts"]

    def test_waters_solve(self):
        counts = self.check("waters-solve", "instance_digest", False)
        for key in ("nodes_obj_del", "nodes_obj_dmat", "lp_iterations_obj_del",
                    "lp_iterations_obj_dmat", "ls_evaluations"):
            self.assertGreater(counts[key], 0, key)

    def test_serve_hits(self):
        counts = self.check("serve-hits", "corpus_digest", True)
        self.assertEqual(counts["cache_hits"], counts["responses"])

    def test_serve_churn(self):
        counts = self.check("serve-churn", "corpus_digest", True)
        self.assertEqual(counts["cache_hits"], 0)
        self.assertGreater(counts["near_miss_hits"], 0)


if __name__ == "__main__":
    unittest.main()

"""Tests of the perfbench harness. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

Each test drives perfbench/run.py as the benchmark is used, with a
repetition length of 0 s so that every workload runs exactly once (about
a minute in all).
"""

import json
import os
import re
import subprocess
import sys
import unittest

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCRATCH = ".perfbench"


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def bench(workload, seed=42, trace=0, *extra):
    """The result JSON and the {experiment id: digest} of one run."""
    lines = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.splitlines()
    digests = dict(l.split()[1:3] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digests


class PerfbenchTest(unittest.TestCase):
    def test_metric_names(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)

    def test_traced_run_reports_every_per_layer_metric(self):
        result, _ = bench("serve-faults", trace=1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec()["per_layer"]})

    def test_seed_reproduces_digest(self):
        _, first = bench("serve-faults", seed=42)
        _, again = bench("serve-faults", seed=42)
        _, other = bench("serve-faults", seed=7)
        self.assertEqual(first, again)
        self.assertNotEqual(first["R2"], other["R2"])

    def test_corrupted_reference_is_a_failure(self):
        with open("perfbench/reference.json") as f:
            ref = json.load(f)
        ref["digests"]["serve-faults"]["R2"] = "0" * 32
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "corrupt-reference.json")
        with open(path, "w") as f:
            json.dump(ref, f)
        corrupt, _ = bench("serve-faults", ref["seed"], 0, "--reference", path)
        clean, _ = bench("serve-faults", ref["seed"])
        self.assertEqual((clean["correct"], clean["failed"]), (True, 0))
        self.assertEqual((corrupt["correct"], corrupt["failed"]), (False, 1))
        self.assertEqual(corrupt["attempted"], clean["attempted"])

    def test_report_s_is_most_of_the_run_only_where_obs_analyzes(self):
        names = {m["name"] for m in spec()["end_to_end"]}
        analyzed, _ = bench("observe-analyze")
        served, _ = bench("serve-faults")

        def share(result):
            m = result["metrics"]
            return m["report_s"]["value"] / m["wall_s"]["value"]

        for result in (analyzed, served):
            self.assertEqual(set(result["metrics"]), names)
        self.assertGreaterEqual(share(analyzed), 0.8)
        self.assertLess(share(served), 0.2)


if __name__ == "__main__":
    unittest.main()

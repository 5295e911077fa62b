"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pwproj import exactnum, schreier  # noqa: E402


class SmallTree(workloads.Tree):
    CAP = 60


class SmallWitness(workloads.Witness):
    T = 300
    M = 6


class SmallReturns(workloads.ReturnsZ):
    HORIZONS = (50, 100)
    M = 20


class SmallProducts(workloads.Products):
    PAIRS = 2


def _visits_by_enumeration(n: int) -> Fraction:
    total = 0
    for steps in itertools.product((1, -1), repeat=n):
        pos = 0
        for step in steps:
            pos += step
            total += pos == 0
    return Fraction(total, 2**n)


class ReturnOracleTest(unittest.TestCase):
    def test_matches_brute_force_enumeration(self):
        for n in range(13):
            self.assertEqual(workloads.expected_returns(n), _visits_by_enumeration(n), n)

    def test_closed_form_matches_series(self):
        for n in range(0, 400, 13):
            series = sum(Fraction(comb(2 * j, j), 4**j) for j in range(1, n // 2 + 1))
            self.assertEqual(workloads.expected_returns(n), series, n)


class RecordedDigestTest(unittest.TestCase):
    def test_corrupted_witness_digest_counts_as_failure(self):
        probe = SmallWitness(3, {}, "")
        master, report = probe.batch(0).result
        key = f"T={probe.T},M={probe.M}"
        good = workloads.digest(report)
        bad = ("0" if good[0] != "0" else "1") + good[1:]
        for recorded, failures in ((good, 0), (bad, 1)):
            witness = SmallWitness(3, {"witness": {key: {str(master): recorded}}}, "")
            attempted, messages = witness.check(witness.batch(0).result)
            self.assertEqual((attempted, len(messages)), (1, failures), messages)

    def test_corrupted_tree_digest_counts_as_failure(self):
        with tempfile.TemporaryDirectory() as outdir:
            summary = SmallTree(0, {}, outdir).batch(0).result
            recorded = {"tree": {str(SmallTree.CAP): dict(summary)}}
            self.assertEqual(SmallTree(0, recorded, outdir).check(summary), (1, []))
            recorded["tree"][str(SmallTree.CAP)]["dot_sha256"] = "0" * 64
            attempted, messages = SmallTree(0, recorded, outdir).check(summary)
            self.assertEqual((attempted, len(messages)), (1, 1))

    def test_missing_tree_record_counts_as_failure(self):
        with tempfile.TemporaryDirectory() as outdir:
            tree = SmallTree(0, {}, outdir)
            self.assertEqual(len(tree.check(tree.batch(0).result)[1]), 1)

    def test_returns_check_flags_a_wrong_mean(self):
        returns = SmallReturns(1, {}, "")
        report = returns.batch(0).result
        self.assertEqual(returns.check(report), (2, []))
        report.means[1] += 10 * report.stderrs[1] + 1
        self.assertEqual(len(returns.check(report)[1]), 1)


class TracerTest(unittest.TestCase):
    def _bindings(self):
        """Every (namespace, attribute, object) that a TARGETS entry names."""
        out = []
        modules = [m for n, m in sys.modules.items() if n == "pwproj" or n.startswith("pwproj.")]
        for _, module, path in tracing.TARGETS:
            owner = sys.modules[f"pwproj.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            out.append((owner, attr, original))
            for mod in modules:
                if not isinstance(owner, type) and vars(mod).get(attr) is original:
                    out.append((mod, attr, original))
        return out

    def test_traced_run_restores_every_wrapped_function(self):
        before = self._bindings()
        with tempfile.TemporaryDirectory() as outdir:
            runs = [
                SmallTree(0, {}, outdir),
                SmallProducts(0, {}, outdir),
                SmallWitness(0, {}, outdir),
                SmallReturns(0, {}, outdir),
            ]
            with tracing.Tracer() as tracer:
                for owner, attr, original in before:
                    self.assertIs(getattr(owner, attr).__wrapped__, original, f"{owner}.{attr}")
                for workload in runs:
                    workload.batch(0)
        self.assertEqual(tracer.patches, [])
        for owner, attr, original in before:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.assertIs(current, original, f"{owner}.{attr}")
        report = tracer.report()
        self.assertEqual(set(report), set(tracing.GROUPS))
        for group, stat in report.items():
            self.assertGreater(stat["calls"], 0, group)
            self.assertLessEqual(stat["self_s"], stat["incl_s"] + 1e-9, group)
        self.assertEqual(report["walk.kernel"]["calls"], 2)

    def test_imported_names_are_patched_too(self):
        original = exactnum.qn_compare
        with tracing.Tracer() as tracer:
            patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in tracer.patches}
            self.assertIn(("pwproj.schreier", "qn_compare"), patched)
            self.assertIn(("pwproj.piecewise", "canonical_key"), patched)
            self.assertIs(schreier.qn_compare.__wrapped__, original)
        self.assertIs(schreier.qn_compare, original)


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(run.SPEC) as handle:
            self.spec = json.load(handle)

    def test_end_to_end_values_match_benchmark_json(self):
        batches = [
            {"unit": [10, 0.5], "peak_rss_kb": 20480, "setup_s": 0.1, "host_factor": 1.0},
            {"unit": [10, 0.4], "peak_rss_kb": 10240, "setup_s": 0.3, "host_factor": 2.0},
            {"unit": None, "peak_rss_kb": 30720, "setup_s": 0.2, "host_factor": 1.0},
        ]
        values = run.end_to_end_values(batches)
        self.assertEqual(set(values), {m["name"] for m in self.spec["end_to_end"]})
        self.assertAlmostEqual(values["ops_per_s"], 35.0)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 20.0)

    def test_per_layer_values_match_benchmark_json(self):
        stats = {g: {"calls": 1, "incl_s": 2.0, "self_s": 1.0} for g in tracing.GROUPS}
        traced = {"trace": stats, "wall_s": 3.0}
        counters = {"vertices": 8, "steps": 4, "bfs_s": 1.5}
        plain = {"unit": [8, 2.0], "counters": counters, "wall_s": 2.5}
        values = run.per_layer_values(traced, plain)
        self.assertEqual(set(values), {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(values["schreier.bfs_s"], 1.5)
        self.assertEqual(values["schreier.export_s"], 0.0)
        self.assertEqual(values["schreier.us_per_vertex"], 2.5e5)
        self.assertEqual(values["walk.us_per_step"], 5e5)
        self.assertEqual(values["trace.overhead_s"], 0.5)

    def test_batch_set_does_not_depend_on_speed(self):
        self.assertEqual(run.RUN_SECONDS, self.spec["run_seconds"])
        for workload in run.WORKLOADS:
            self.assertEqual(run.batch_count(workload, run.RUN_SECONDS), run.BATCHES[workload])
            self.assertEqual(run.batch_count(workload, 0.1), 1)

    def test_every_witness_batch_of_a_run_is_recorded(self):
        digests = workloads.load_recorded()["witness"]
        key = f"T={workloads.Witness.T},M={workloads.Witness.M}"
        expected = {
            str(workloads.batch_seed(seed, index))
            for seed in run.RECORDED_SEEDS
            for index in range(run.batch_count("witness", run.RUN_SECONDS))
        }
        self.assertEqual(set(digests[key]), expected)


if __name__ == "__main__":
    unittest.main()

"""Smoke tests of the benchmark harness; run with ``python3 perfbench/selftest.py``.

Each workload runs a few steps (``--quick``) through the same code paths as a
full run, untraced and traced. The tests check that the printed metric names
and units are exactly those of ``BENCHMARK.json``, that the traced counts
agree with the per-step structure of the workloads, and that an injected
failure is counted. About a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search15", "train100", "cli_pipeline")


def run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if out.returncode != 0:
        raise AssertionError(f"run.py exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class PrintedMetrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)
        cls.results = {(w, t): run_bench(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_names_and_units_match_benchmark_json(self):
        for (workload, trace), result in self.results.items():
            declared = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                for m in declared:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_values_are_positive(self):
        for workload in WORKLOADS:
            for name, metric in self.results[(workload, 0)]["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_traced_search_counts(self):
        # one epoch of search15 is 8 alpha+theta steps: a tenth of the full counts
        m = {k: v["value"] for k, v in self.results[("search15", 1)]["metrics"].items()}
        self.assertEqual(m["tensor.ops"], 37_200)
        self.assertEqual(m["tensor.embedding.calls"], 9_856)
        self.assertEqual(m["encoders.encode_text.calls_per_step"], 30)
        self.assertEqual(m["prompts.compose_shallow.calls_per_step"], 240)
        self.assertEqual(m["search.candidate_logits.calls_per_step"], 30)
        # the op spans and tensor._make agree on what an op is
        sys.path.insert(0, HERE)
        import spans

        saved = spans.load_spans(os.path.join(
            ROOT, ".bench_out", "search15-s0-t1-quick", "trace", "spans-main.npz"))
        self.assertEqual(saved["header"]["counts"]["tensor.make_calls"], m["tensor.ops"])

    def test_traced_cli_covers_every_command(self):
        m = {k: v["value"] for k, v in self.results[("cli_pipeline", 1)]["metrics"].items()}
        for name in ("gen_data", "search_attrs", "train", "train_classic", "eval", "report"):
            self.assertGreater(m[f"cli.{name}.s"], 0, name)
        self.assertGreater(m["cli.import_s"], 0)
        self.assertGreater(m["serialize.bytes_written"], 0)


class InjectedFailures(unittest.TestCase):
    """Failures are counted per operation, not raised."""

    @classmethod
    def setUpClass(cls):
        sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
        import workload

        cls.workload = workload
        cls.probes = workload.Probes()

    def test_exception_fails_the_operation(self):
        import promptlab.search as search

        original = search.select_candidate
        search.select_candidate = lambda pool, w: tuple(pool[int(w.argmin())])
        try:
            wl = self.workload.Search15(0, True, "")
            passes = self.workload.run_passes(wl, self.probes, 0, 1, 0)
        finally:
            search.select_candidate = original
        ops = [op for p in passes for op in p["ops"]]
        self.assertEqual(sum(not op["ok"] for op in ops) / len(ops), 1.0)
        self.assertIn("DataError", ops[0]["error"])

    def test_non_finite_loss_fails_the_operation(self):
        def poisoned():
            self.probes.losses.append(float("nan"))
            return {}

        op = self.workload.run_operation("poisoned", poisoned, self.probes)
        self.assertFalse(op["ok"])
        self.assertEqual(op["error"], "non-finite loss")

    def test_changed_output_between_passes_fails(self):
        class Drifting:
            calls = 0

            def run_pass(self, probes, index):
                Drifting.calls += 1
                return [self_op(Drifting.calls)]

        def self_op(value):
            return {"name": "op", "ok": True, "error": None, "outputs": {"v": value}}

        passes = self.workload.run_passes(Drifting(), self.probes, 60, 2, 0)
        self.assertTrue(passes[0]["ops"][0]["ok"])
        self.assertFalse(passes[1]["ops"][0]["ok"])


if __name__ == "__main__":
    unittest.main()

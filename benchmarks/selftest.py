"""Self-test of the benchmark at tiny budgets.

    python3 benchmarks/selftest.py

Runs every workload untraced and traced at SMOKE_SIZES, checks the
result shape against BENCHMARK.json and the layer predictions, and
checks that the output checks and the missing-source exit work. All
outputs go to temporary directories. The file name keeps it out of a
bare ``python -m pytest`` collection; it takes about half a minute.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from traced_cli import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class WorkloadTest(unittest.TestCase):
    results: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        for name in run.WORKLOADS:
            for trace in (False, True):
                cls.results[name, trace] = run.benchmark(
                    name, 5, 0, trace, Path(cls.tmp.name) / f"{name}{trace}",
                    run.SMOKE_SIZES)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_every_run_is_correct(self):
        for key, result in self.results.items():
            with self.subTest(key):
                self.assertTrue(result["correct"], result["details"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 2)

    def test_metric_names_match_the_spec(self):
        for (name, trace), result in self.results.items():
            spec = SPEC["per_layer" if trace else "end_to_end"]
            with self.subTest((name, trace)):
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(m["name"] for m in spec))
                for m in spec:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertTrue(math.isfinite(got["value"]))

    def test_layer_predictions(self):
        def calls(name, fn):
            return self.results[name, True]["metrics"][f"{fn}.calls"]["value"]

        self.assertEqual(calls("sweep", "policy.decision_statistic"), 0)
        self.assertEqual(calls("sweep", "optimizer.spsa_gradient"), 0)
        self.assertEqual(calls("oracle", "optimizer.rollout"), 0)
        self.assertEqual(calls("oracle", "observability.belief_step"), 0)
        self.assertGreater(calls("persistent", "policy.decision_statistic"), 0)
        self.assertGreater(calls("persistent", "filter_core.lyapunov_update"),
                           calls("persistent", "filter_core.riccati_update"))
        self.assertGreater(calls("train", "optimizer.spsa_gradient"), 0)
        self.assertIn("envelope_gap_nats",
                      self.results["train", False]["details"])


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name) / "persistent"
        self.out.mkdir()

    def tearDown(self):
        self.tmp.cleanup()

    def _call(self, stop_rows, trace_rows, listed):
        cfg = {"scenario": {"tau_max": 60, "targets": [{}, {}]},
               "overrides": {}}
        (self.out / "manifest.json").write_text(
            json.dumps({"config": cfg, "outputs": listed}))
        (self.out / "stop_times.csv").write_text(
            "# h\ncycle,tau,priority_target\n" + "".join(stop_rows))
        (self.out / "logdet_trace.csv").write_text(
            "# h\ncycle,epoch,target,log_det_P\n" + "".join(trace_rows))
        return run.Call(["persistent", "--out", str(self.out)], 0, 1.0, 1.0,
                        "")

    def test_good_outputs_pass(self):
        call = self._call(["0,2,0\n"], ["0,1,0,1.5\n"] * 4,
                          ["logdet_trace.csv", "stop_times.csv"])
        run.check_call(call, {})
        self.assertEqual(call.failures, [])

    def test_defects_are_caught(self):
        call = self._call(["0,2,0\n", "1,61,1\n"], ["0,1,0,nan\n"] * 4,
                          ["stop_times.csv"])
        run.check_call(call, {})
        text = " ".join(call.failures)
        for needle in ("manifest lists", "NaN or inf", "rows, expected",
                       "outside [1, 60]"):
            self.assertIn(needle, text)

    def test_nonzero_exit_fails(self):
        call = run.Call(["persistent", "--out", str(self.out)], 3, 1.0, 1.0,
                        "")
        run.check_call(call, {})
        self.assertEqual(len(call.failures), 1)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        inner = tracer.wrap("toy.inner", lambda: sum(range(20000)))
        outer = tracer.wrap("toy.outer", lambda: [inner() for _ in range(3)])
        outer()
        summary = tracer.summary()["layers"]
        self.assertEqual(summary["toy.inner"]["calls"], 3)
        _, start, end, _ = tracer.spans[0]
        inclusive = end - start
        self.assertAlmostEqual(summary["toy.outer"]["self_s"]
                               + summary["toy.inner"]["self_s"], inclusive,
                               places=9)


class MissingSourceTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH.name}/run.py", "--workload",
                 "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

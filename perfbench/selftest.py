"""The benchmark's own tests: ``python3 perfbench/run.py --self-test``.

Unit checks of the percentile rule, self-time subtraction and the golden
gate, then a tiny-scale pass of every workload through the same command
a measured run uses (timed and traced), a perturbed golden, and a run in a
directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from perfbench import golden, hermetic, spec, tracer
from perfbench.stats import spread, tail

RUN_PY = Path(__file__).with_name("run.py")


def _run(*args: str, cwd: Path = hermetic.ROOT):
    proc = subprocess.run([sys.executable, str(RUN_PY)] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


class StatsTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(tail(list(range(10))))
        pct, value, n = tail(list(range(1, 12)))
        self.assertEqual((value, n), (1, 11))
        self.assertAlmostEqual(pct, 100 / 11)
        pct, value, n = tail(list(range(100, 0, -1)))
        self.assertEqual((pct, value, n), (90.0, 90, 100))

    def test_spread_is_interquartile_share_of_median(self):
        self.assertAlmostEqual(spread([10, 10, 10, 10]), 0.0)
        values = [8, 9, 10, 11, 12]
        self.assertAlmostEqual(spread(values), (11.5 - 8.5) / 10)


class TracerTest(unittest.TestCase):
    def test_self_time_values(self):
        # outer 0..20 > mid 2..12 > leaf 3..5 and leaf 8..9; tail 14..19
        ticks = iter([0, 2, 3, 5, 8, 9, 12, 14, 19, 20])
        t = tracer.Tracer(clock=lambda: float(next(ticks)))
        outer = t.open(t.sid("outer"))
        mid = t.open(t.sid("mid"))
        for _ in range(2):
            t.close(t.open(t.sid("leaf")))
        t.close(mid)
        t.close(t.open(t.sid("tail")))
        t.close(outer)
        self.assertEqual(t.get("leaf", "total"), 3.0)
        self.assertEqual(t.get("mid", "total"), 10.0)
        self.assertEqual(t.get("mid"), 7.0)
        self.assertEqual(t.get("tail"), 5.0)
        self.assertEqual(t.get("outer"), 20.0 - 10.0 - 5.0)
        self.assertEqual(t.root_s, 20.0)
        self.assertEqual(list(t.col_parent), [-1, 0, 1, 1, 0])

    def test_dump_round_trip(self):
        t = tracer.Tracer()
        t.run = 3
        x = t.open(t.sid("x"))
        t.close(t.open(t.sid("y")))
        t.close(x)
        path = hermetic.scratch("selftest") / "spans"
        self.assertEqual(t.dump(path), 2)
        names, cols = tracer.load_spans(path)
        self.assertEqual([names[i] for i in cols["name"]], ["x", "y"])
        self.assertEqual(list(cols["parent"]), [-1, 0])
        self.assertEqual(list(cols["run"]), [3, 3])
        shutil.rmtree(path.parent)

    def test_wrappers_restore_and_reach_aliases(self):
        import repro.trace._cache as trace_cache
        import repro.trace.workloads as workloads_module
        original = workloads_module.build_streams
        t = tracer.Tracer()
        with tracer.Installation(t):
            self.assertIsNot(trace_cache.build_streams, original)
            trace_cache.build_streams("histogram", cores=2, per_core=5)
        self.assertIs(workloads_module.build_streams, original)
        self.assertIs(trace_cache.build_streams, original)
        self.assertEqual(t.get("trace.build", "calls"), 1)

    def test_missing_target_fails_the_traced_run(self):
        saved = tracer.ENTRY_POINTS
        tracer.ENTRY_POINTS = saved + (
            ("system.gone", "repro.system.machine", "", ("no_such_fn",),
             tracer._plain),)
        try:
            with self.assertRaises(tracer.MissingTarget):
                with tracer.Installation(tracer.Tracer()):
                    pass
        finally:
            tracer.ENTRY_POINTS = saved
        import repro.system.machine as machine
        self.assertFalse(hasattr(machine.simulate, "__wrapped__"))


class GoldenTest(unittest.TestCase):
    def test_mismatch_is_counted_not_raised(self):
        from repro.api import RunSpec, parse_protocol
        cell = RunSpec("histogram", parse_protocol("mw"), None, 2, 20, 0)
        checker = golden.Checker({golden.cell_key(cell): "0" * 64})
        checker.observe(cell, {"not": "the real stats"})
        checker.fail("a request that raised")
        checker.settle()
        self.assertEqual((checker.attempted, checker.failed), (2, 2))
        self.assertEqual(checker.golden_checked, 1)

    def test_reference_path_matches_committed_golden(self):
        digests = golden.load()
        key = next(k for k in digests if "/4c/300/" in k)
        from repro.api import ProtocolKind, RunSpec
        workload, protocol, _, cores, per_core, seed = key.split("/")
        cell = RunSpec(workload, ProtocolKind(protocol), None,
                       int(cores[:-1]), int(per_core), int(seed[1:]))
        self.assertEqual(golden.reference_digest(cell), digests[key])


class CounterTest(unittest.TestCase):
    def test_counter_sum_filters_on_labels(self):
        from repro.obs.metrics import series_key
        from perfbench.workloads import counter_sum
        counters = {
            series_key("retry", {"op": "get", "outcome": "retried"}): 2,
            series_key("retry", {"op": "put", "outcome": "recovered"}): 1,
            "retry_other": 7,
        }
        self.assertEqual(counter_sum(counters, "retry"), 3)
        self.assertEqual(counter_sum(counters, "retry", outcome="retried"), 2)


class CommandTest(unittest.TestCase):
    """The same command line as a measured run, at the tiny scale."""

    def test_tiny_timed_pass_of_every_workload(self):
        names = {m.name for m in spec.END_TO_END}
        for workload in spec.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc, result = _run("--workload", workload, "--seed", "0",
                                    "--seconds", "1", "--trace", "0",
                                    "--scale", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_tiny_traced_pass_of_every_workload(self):
        names = {m.name for m in spec.PER_LAYER}
        for workload in spec.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                proc, result = _run("--workload", workload, "--seed", "0",
                                    "--seconds", "1", "--trace", "1",
                                    "--scale", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), names)

    def test_perturbed_golden_exits_nonzero(self):
        digests = golden.load()
        key = next(k for k in digests
                   if k.startswith("linear-regression/") and "/4c/300/" in k)
        digests[key] = "f" * 64
        path = hermetic.scratch("selftest") / "goldens.json"
        path.write_text(json.dumps({"digests": digests}))
        try:
            proc, result = _run("--workload", "replay-hits", "--seed", "0",
                                "--seconds", "1", "--scale", "tiny",
                                "--goldens", str(path))
        finally:
            shutil.rmtree(path.parent)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn(f"digest mismatch: {key}", proc.stdout)

    def test_fails_without_the_program(self):
        bare = hermetic.scratch("selftest-bare")
        shutil.copytree(RUN_PY.parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(hermetic.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "replay-hits", "--seed", "0", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_manifest_is_current(self):
        with open(hermetic.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.assertEqual(json.load(fh), spec.manifest())


if __name__ == "__main__":
    unittest.main()

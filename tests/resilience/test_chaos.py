"""The chaos harness end to end (small plan, small sweep)."""

import json

import pytest

from repro.resilience.chaos import DEFAULT_FAULTS, matrix_json, render, run_chaos
from repro.resilience.faults import FAULT_SITES, FaultPlan


class TestDefaults:
    def test_default_plan_covers_every_site(self):
        plan = FaultPlan.parse(DEFAULT_FAULTS)
        assert set(plan.sites) == set(FAULT_SITES)
        # The acceptance bar is >= 3 distinct fault kinds.
        assert len(plan.sites) >= 3


class TestMatrixJson:
    def test_canonical_and_order_independent(self, tmp_path):
        from repro.common.params import ProtocolKind
        from repro.experiments._engine import (
            ExperimentEngine,
            ResultCache,
            RunSpec,
        )
        from repro.store import FsStore

        specs = [RunSpec("histogram", ProtocolKind.MESI, cores=2, per_core=60),
                 RunSpec("histogram", ProtocolKind.PROTOZOA_MW, cores=2,
                         per_core=60)]
        cache = ResultCache(store=FsStore(tmp_path), enabled=True)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            results = engine.run_many(specs)
        forward = matrix_json(results)
        backward = matrix_json(dict(reversed(list(results.items()))))
        assert forward == backward
        assert json.loads(forward)  # valid, parseable JSON


@pytest.mark.slow
class TestRunChaos:
    def test_faulted_sweep_is_bit_identical(self, tmp_path):
        report = run_chaos(
            faults="worker-kill:n=1;worker-exc:n=1;cache-corrupt:n=1",
            seed=0, workloads=("histogram",), cores=2, per_core=60,
            jobs=2, out=str(tmp_path / "report.json"))
        assert report["identical"], report
        assert report["quarantine_leaks"] == []
        assert report["ok"], report
        # Every armed kind actually fired.
        assert report["fired"].get("worker-kill") == 1
        assert report["fired"].get("worker-exc") == 1
        assert report["fired"].get("cache-corrupt") == 1
        assert report["result_blobs_quarantined"] == 1
        assert report["trace_blobs_quarantined"] == 0
        assert report["journal"]["completed"] == report["cells"]
        # The report round-trips to disk and renders a PASS.
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["ok"]
        assert "chaos: PASS" in render(report)

    def test_worker_trace_quarantine_is_counted(self):
        # Phase 1 already cached every trace, so the corrupted read -- and
        # its quarantine -- happens in a pool worker, not in this process.
        report = run_chaos(faults="trace-corrupt:n=1", seed=0,
                           workloads=("histogram",), cores=2, per_core=60,
                           jobs=2)
        assert report["ok"], report
        assert report["fired"] == {"trace-corrupt": 1}
        assert report["trace_blobs_quarantined"] == 1
        assert report["result_blobs_quarantined"] == 0
        assert ("0 result and 1 trace blob(s) quarantined"
                in render(report))

    def test_scratch_cleaned_up_unless_kept(self, tmp_path):
        import os

        report = run_chaos(faults="worker-exc:n=1", seed=1,
                           workloads=("histogram",), cores=2, per_core=60,
                           jobs=2)
        assert report["scratch"] == ""
        # Arming env vars must not leak into the calling process.
        assert "REPRO_FAULTS" not in os.environ
        assert "REPRO_FAULTS_DIR" not in os.environ

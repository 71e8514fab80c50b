"""``repro doctor``: integrity audit verdicts and --fix behaviour."""

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.resilience.doctor import (
    check_result_cache,
    check_trace_cache,
    run_doctor,
)
from repro.resilience.storage import quarantine_dir
from repro.store import FsStore
from repro.trace._cache import TraceCache

SPEC = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
               cores=2, per_core=60, seed=0)
RECIPE = dict(workload="histogram", cores=2, per_core=60, seed=0)


@pytest.fixture()
def result_root(tmp_path):
    cache = ResultCache(store=FsStore(tmp_path / "results"), enabled=True)
    with ExperimentEngine(jobs=1, cache=cache) as engine:
        engine.run(SPEC)
    return cache.root


@pytest.fixture()
def trace_root(tmp_path):
    cache = TraceCache(store=FsStore(trace_root=tmp_path / "traces"),
                       enabled=True)
    cache.get_or_build(**RECIPE)
    return cache.root


def verdict(checks):
    return all(check.ok for check in checks)


class TestResultCacheAudit:
    def test_healthy_cache_passes(self, result_root):
        assert verdict(check_result_cache(result_root))

    def test_absent_cache_passes(self, tmp_path):
        assert verdict(check_result_cache(tmp_path / "nowhere"))

    def test_corrupt_entry_fails(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad not json")
        checks = check_result_cache(result_root)
        assert not verdict(checks)

    def test_fix_quarantines_corrupt_entry(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad not json")
        assert verdict(check_result_cache(result_root, fix=True))
        assert not blob.exists()
        assert (quarantine_dir(result_root) / blob.name).exists()
        # A re-audit of the repaired cache is clean (quarantine listed).
        assert verdict(check_result_cache(result_root))

    def test_misfiled_entry_fails(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        wrong = result_root / "zz"
        wrong.mkdir()
        blob.rename(wrong / blob.name)
        assert not verdict(check_result_cache(result_root))

    def test_orphan_tmp_file_fails_and_fix_removes(self, result_root):
        orphan = result_root / "ab"
        orphan.mkdir(exist_ok=True)
        orphan = orphan / "tmpXYZ.tmp"
        orphan.write_bytes(b"half-written")
        assert not verdict(check_result_cache(result_root))
        assert verdict(check_result_cache(result_root, fix=True))
        assert not orphan.exists()

    def test_excluded_subtree_not_scanned(self, result_root):
        nested = result_root / "traces"
        nested.mkdir()
        (nested / "leftover.tmp").write_bytes(b"x")
        assert not verdict(check_result_cache(result_root))
        assert verdict(check_result_cache(result_root, exclude=nested))


class TestTraceCacheAudit:
    def test_healthy_cache_passes(self, trace_root):
        assert verdict(check_trace_cache(trace_root))

    def test_corrupt_trace_fails(self, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(b"\xde\xad\xbe\xef")
        assert not verdict(check_trace_cache(trace_root))

    def test_truncated_trace_fails(self, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(blob.read_bytes()[:10])
        assert not verdict(check_trace_cache(trace_root))

    def test_fix_quarantines_corrupt_trace(self, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(b"\xde\xad\xbe\xef")
        assert verdict(check_trace_cache(trace_root, fix=True))
        assert not blob.exists()
        assert (quarantine_dir(trace_root) / blob.name).exists()


class TestRunDoctor:
    def test_full_report_renders(self, result_root, trace_root):
        report = run_doctor(result_root, trace_root)
        assert report.ok
        rendered = report.render()
        assert "[PASS]" in rendered and "[FAIL]" not in rendered
        assert "all checks passed" in rendered

    def test_problem_flips_verdict_and_warns(self, result_root, trace_root):
        from repro.obs.metrics import process_registry

        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad")
        report = run_doctor(result_root, trace_root)
        assert not report.ok
        assert "PROBLEMS FOUND" in report.render()
        assert any("doctor-problems" in key
                   for key in process_registry().counters())

    def test_nested_default_layout_no_double_report(self, result_root):
        """The default trace cache nests under the result root; its temp
        files must be attributed to the trace audit only."""
        nested_traces = result_root / "traces"
        cache = TraceCache(store=FsStore(trace_root=nested_traces),
                           enabled=True)
        cache.get_or_build(**RECIPE)
        (nested_traces / "leftover.tmp").write_bytes(b"x")
        report = run_doctor(result_root, nested_traces)
        failing = [check.name for check in report.checks if not check.ok]
        assert failing == [f"trace cache {nested_traces}: orphaned temp files"]


class TestPrune:
    """--prune-older-than: manifest-logged GC that never touches quarantine."""

    def _age(self, path, days):
        import os
        import time

        old = time.time() - days * 86400
        os.utime(path, (old, old))

    def test_old_entry_evicted_and_manifest_logged(self, result_root):
        from repro.resilience.doctor import prune_cache, read_gc_manifest

        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=10)
        check = prune_cache(result_root, ".json", 7.0, "result cache")
        assert check.ok
        assert not blob.exists()
        (entry,) = read_gc_manifest(result_root)
        assert entry["file"] == f"{blob.parent.name}/{blob.name}"
        assert entry["age_days"] > 7
        # The emptied fan-out directory is gone too.
        assert not blob.parent.exists()

    def test_fresh_entry_kept(self, result_root):
        from repro.resilience.doctor import prune_cache, read_gc_manifest

        blob = next(result_root.glob("??/*.json"))
        check = prune_cache(result_root, ".json", 7.0, "result cache")
        assert check.ok
        assert blob.exists()
        assert read_gc_manifest(result_root) == []

    def test_quarantine_never_pruned(self, result_root):
        from repro.resilience.doctor import prune_cache
        from repro.resilience.storage import quarantine_file

        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"junk")
        quarantined = quarantine_file(result_root, blob, "test damage")
        self._age(quarantined, days=100)
        prune_cache(result_root, ".json", 7.0, "result cache")
        assert quarantined.exists()

    def test_absent_cache_is_fine(self, tmp_path):
        from repro.resilience.doctor import prune_cache

        check = prune_cache(tmp_path / "nowhere", ".json", 7.0, "result cache")
        assert check.ok

    def test_run_doctor_prunes_then_audits_clean(self, result_root,
                                                 trace_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=30)
        report = run_doctor(result_root, trace_root,
                            prune_older_than_days=7.0)
        assert report.ok
        assert not blob.exists()
        rendered = report.render()
        assert "GC (older than 7 day(s))" in rendered
        assert "1 entr(ies) evicted" in rendered

    def test_run_doctor_without_flag_never_prunes(self, result_root,
                                                  trace_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=3650)
        report = run_doctor(result_root, trace_root)
        assert report.ok
        assert blob.exists()
        assert "GC" not in report.render()

    def test_gc_manifest_never_audited_as_orphan(self, result_root):
        from repro.resilience.doctor import prune_cache

        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=10)
        prune_cache(result_root, ".json", 7.0, "result cache")
        assert verdict(check_result_cache(result_root))

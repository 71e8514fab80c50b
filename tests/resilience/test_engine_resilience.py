"""Engine failure paths: kills, retries, stalls, degradation, corruption.

Each scenario arms ``REPRO_FAULTS`` (the production fault sites) and
asserts the engine still returns the complete, correct matrix — the
contract ``repro chaos`` enforces end to end.
"""

from pathlib import Path

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.obs.metrics import process_registry
from repro.resilience.faults import reset_injector
from repro.resilience.retry import RetryPolicy
from repro.store import FsStore
from repro.trace._cache import TraceCache

SPEC_KW = dict(cores=2, per_core=60, seed=0)


def small_specs(n=4):
    protocols = [ProtocolKind.MESI, ProtocolKind.PROTOZOA_SW,
                 ProtocolKind.PROTOZOA_SW_MR, ProtocolKind.PROTOZOA_MW]
    return [RunSpec(workload="histogram", protocol=protocols[i % 4],
                    seed=i // 4, cores=2, per_core=60) for i in range(n)]


@pytest.fixture()
def reference(tmp_path_factory):
    """Fault-free serial results to compare every faulted run against."""
    specs = small_specs()
    cache = ResultCache(store=FsStore(tmp_path_factory.mktemp("ref-cache")),
                        enabled=True)
    with ExperimentEngine(jobs=1, cache=cache) as engine:
        results = engine.run_many(specs)
    return specs, {spec.digest(): result.to_dict()
                   for spec, result in results.items()}


def arm(monkeypatch, tmp_path, faults, shared_budget=True):
    monkeypatch.setenv("REPRO_FAULTS", faults)
    if shared_budget:
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "budget"))
    else:
        monkeypatch.delenv("REPRO_FAULTS_DIR", raising=False)
    reset_injector()


def as_dicts(results):
    return {spec.digest(): result.to_dict() for spec, result in results.items()}


class TestWorkerCrash:
    def test_worker_kill_mid_chunk_recovers(self, monkeypatch, tmp_path,
                                            reference):
        """A worker dying mid-chunk breaks the pool; the engine rebuilds
        it and the retried sweep matches the fault-free reference."""
        specs, expected = reference
        arm(monkeypatch, tmp_path, "worker-kill:n=1")
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        with ExperimentEngine(jobs=2, cache=cache,
                              retry=RetryPolicy(backoff_base_s=0.01)) as engine:
            results = engine.run_many(specs)
            assert as_dicts(results) == expected
            assert engine.pool_rebuilds >= 1
            assert not engine.degraded
            counters = engine.metrics.counters()
            assert counters.get("repro_engine_worker_deaths_total", 0) >= 1

    def test_transient_exception_retries_to_success(self, monkeypatch,
                                                    tmp_path, reference):
        specs, expected = reference
        arm(monkeypatch, tmp_path, "worker-exc:n=1")
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        with ExperimentEngine(jobs=2, cache=cache,
                              retry=RetryPolicy(backoff_base_s=0.01)) as engine:
            results = engine.run_many(specs)
            assert as_dicts(results) == expected
            assert not engine.degraded
            counters = engine.metrics.counters()
            assert counters.get("repro_engine_retries_total", 0) >= 1
            assert any(key.startswith("repro_engine_worker_errors_total")
                       for key in counters)


class TestDegradation:
    def test_exhausted_retries_degrade_to_serial(self, monkeypatch, tmp_path,
                                                 reference):
        """Per-process budgets (no REPRO_FAULTS_DIR) re-arm in every
        worker, so parallel rounds keep failing until the engine gives
        up on the pool — the serial fallback still completes the matrix
        because in-process execution never consults the worker sites."""
        specs, expected = reference
        arm(monkeypatch, tmp_path, "worker-exc:n=999", shared_budget=False)
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001)
        with ExperimentEngine(jobs=2, cache=cache, retry=policy) as engine:
            results = engine.run_many(specs)
            assert as_dicts(results) == expected
            assert engine.degraded
            counters = engine.metrics.counters()
            assert any(key.startswith("repro_engine_degraded_total")
                       for key in counters)

    def test_degraded_engine_stays_serial(self, monkeypatch, tmp_path):
        specs = small_specs()
        arm(monkeypatch, tmp_path, "worker-exc:n=999", shared_budget=False)
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        policy = RetryPolicy(max_retries=0, backoff_base_s=0.001)
        with ExperimentEngine(jobs=2, cache=cache, retry=policy) as engine:
            engine.run_many(specs)
            assert engine.degraded
            assert engine.warm_pool() is None  # no pool comes back


class TestStall:
    def test_stalled_chunk_redispatches(self, monkeypatch, tmp_path,
                                        reference):
        """A chunk sleeping past the deadline counts as stalled: the
        pool is abandoned (never joined — it is asleep) and the retry
        completes once the shared budget is spent."""
        specs, expected = reference
        arm(monkeypatch, tmp_path, "task-stall:n=8:ms=2500")
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        policy = RetryPolicy(timeout_s=0.5, backoff_base_s=0.01)
        with ExperimentEngine(jobs=2, cache=cache, retry=policy) as engine:
            results = engine.run_many(specs)
            assert as_dicts(results) == expected
            counters = engine.metrics.counters()
            assert counters.get("repro_engine_stalls_total", 0) >= 1
            assert engine.pool_rebuilds >= 1


class TestResultCacheCorruption:
    def test_corrupt_blob_quarantined_and_rerun(self, monkeypatch, tmp_path):
        spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                       **SPEC_KW)
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            first = engine.run(spec)
            arm(monkeypatch, tmp_path, "cache-corrupt:n=1")
            again = engine.run(spec)
        assert again.to_dict() == first.to_dict()
        assert cache.quarantined == 1
        assert engine.executed == 2  # the corrupt read forced a rerun
        # Evidence preserved, recorded, and the entry rebuilt on disk.
        quarantine = cache.store.quarantine_inventory("results")
        assert [Path(name).suffix for name in quarantine["files"]] == [".json"]
        assert len(quarantine["manifest"]) == 1
        assert cache.path_for(spec).exists()
        assert cache.get(spec).to_dict() == first.to_dict()
        counters = process_registry().counters()
        assert any("result-cache-corrupt" in key for key in counters)

    def test_unreadable_bytes_take_quarantine_path(self, monkeypatch,
                                                   tmp_path):
        """Non-UTF-8 garbage (the injector's stamp) must be treated as
        corruption, not crash the reader."""
        spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                       **SPEC_KW)
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            engine.run(spec)
        cache.path_for(spec).write_bytes(b"\xde\xad\xbe\xef not json")
        assert cache.get(spec) is None
        assert cache.quarantined == 1

    def test_missing_blob_is_a_plain_miss(self, tmp_path):
        spec = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
                       **SPEC_KW)
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        assert cache.get(spec) is None
        assert cache.quarantined == 0  # absent != corrupt


class TestTraceCacheCorruption:
    RECIPE = dict(workload="histogram", cores=2, per_core=60, seed=0)

    def test_corrupt_trace_quarantined_and_rebuilt(self, monkeypatch,
                                                   tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path / "traces"),
                           enabled=True)
        good = cache.get_or_build(**self.RECIPE)
        arm(monkeypatch, tmp_path, "trace-corrupt:n=1")
        rebuilt = cache.get_or_build(**self.RECIPE)
        assert rebuilt == good
        assert cache.quarantined == 1 and cache.built == 2
        quarantine = cache.store.quarantine_inventory("traces")
        assert [Path(name).suffix for name in quarantine["files"]] == [".bin"]
        assert len(quarantine["manifest"]) == 1
        # The recovery is observable: warning counter + structured event.
        counters = process_registry().counters()
        assert any("trace-cache-corrupt" in key for key in counters)

    def test_rebuild_repairs_entry_on_disk(self, monkeypatch, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path / "traces"),
                           enabled=True)
        good = cache.get_or_build(**self.RECIPE)
        arm(monkeypatch, tmp_path, "trace-corrupt:n=1")
        cache.get_or_build(**self.RECIPE)
        reset_injector()
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert cache.get(**self.RECIPE) == good


class TestJournalIntegration:
    def test_run_many_journals_every_completion(self, tmp_path):
        from repro.resilience.journal import SweepJournal

        specs = small_specs()
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        with ExperimentEngine(jobs=1, cache=cache, journal=journal) as engine:
            engine.run_many(specs)
        journal.close()
        assert journal.completed() == {spec.digest() for spec in specs}

    def test_cache_hits_are_journaled_too(self, tmp_path):
        """A resumed sweep serves completed specs from the cache; the
        fresh journal must still end up covering the full grid."""
        from repro.resilience.journal import SweepJournal

        specs = small_specs()
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        with ExperimentEngine(jobs=1, cache=cache) as engine:
            engine.run_many(specs)
        journal = SweepJournal(tmp_path / "journal.jsonl")
        with ExperimentEngine(jobs=1, cache=cache, journal=journal) as engine:
            engine.run_many(specs)
            assert engine.executed == 0  # all hits
        journal.close()
        assert len(journal) == len(specs)


class TestFaultFreePathUntouched:
    def test_unarmed_engine_has_no_resilience_counters(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        reset_injector()
        specs = small_specs()
        cache = ResultCache(store=FsStore(tmp_path / "cache"), enabled=True)
        with ExperimentEngine(jobs=2, cache=cache) as engine:
            engine.run_many(specs)
            assert engine.pool_rebuilds == 0 and not engine.degraded
            assert not any(key.startswith(("repro_engine_retries",
                                           "repro_engine_stalls",
                                           "repro_engine_worker"))
                           for key in engine.metrics.counters())
        assert cache.quarantined == 0

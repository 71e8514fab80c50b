"""Dispatcher thread and a running job's live progress."""

import sys
import threading
import time

import repro.experiments._engine as engine_module
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.service.dispatcher import Dispatcher
from repro.service.app import SweepService
from repro.service.jobs import JobState
from repro.store import FsStore

SPECS = [RunSpec(workload="histogram", protocol=protocol,
                 cores=2, per_core=80, seed=0)
         for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]


def wait_until(predicate, timeout_s=30.0, poll_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def service_over(tmp_path):
    engine = ExperimentEngine(jobs=1, cache=ResultCache(
        store=FsStore(tmp_path / "cache"), enabled=True))
    return SweepService(state_dir=tmp_path / "state", engine=engine)


def watch_progress(monkeypatch, service, job_id):
    """``job_status``'s ``completed`` as each simulation starts."""
    seen = []
    real = engine_module.execute_spec

    def observed(spec):
        seen.append(service.job_status(job_id)["completed"])
        return real(spec)

    monkeypatch.setattr(engine_module, "execute_spec", observed)
    return seen


class TestProgress:
    """``completed`` counts each spec as it lands, from the engine's
    completion count; no per-job file records it."""

    def test_completed_counts_each_spec_as_it_lands(self, tmp_path,
                                                    monkeypatch):
        service = service_over(tmp_path)
        try:
            job_id = service.submit([s.payload() for s in SPECS])["job_id"]
            seen = watch_progress(monkeypatch, service, job_id)
            assert service.process_next() is True
            job = service.queue.get(job_id)
            assert seen == [0, 1]
            assert job.completed == job.executed == len(SPECS)
            assert service.metrics.counter_value(
                "repro_service_specs_completed_total") == len(SPECS)
        finally:
            service.stop()
        assert not (tmp_path / "state" / "journals").exists()

    def test_cached_specs_complete_without_a_run(self, tmp_path,
                                                 monkeypatch):
        service = service_over(tmp_path)
        try:
            service.engine.run(SPECS[0])  # finished by an earlier run
            job_id = service.submit([s.payload() for s in SPECS])["job_id"]
            seen = watch_progress(monkeypatch, service, job_id)
            assert service.process_next() is True
            job = service.queue.get(job_id)
            assert seen == [1]  # the hit landed before the one simulation
            assert (job.completed, job.cache_hits, job.executed) == (2, 1, 1)
        finally:
            service.stop()


    def test_concurrent_status_reads_see_monotone_progress(self, tmp_path):
        """RPC threads read ``completed`` while the dispatcher writes the
        engine's count: every reader sees it rise from 0 to the total,
        never past it and never back."""
        specs = [RunSpec(workload="histogram", protocol=protocol, cores=2,
                         per_core=80, seed=seed)
                 for seed in (0, 1, 2)
                 for protocol in (ProtocolKind.MESI,
                                  ProtocolKind.PROTOZOA_MW)]
        service = service_over(tmp_path)
        job_id = service.submit([s.payload() for s in specs])["job_id"]
        seen = [[] for _ in range(4)]
        stop = threading.Event()

        def poll(values):
            while not stop.is_set():
                values.append(service.job_status(job_id)["completed"])

        readers = [threading.Thread(target=poll, args=(values,))
                   for values in seen]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            assert service.process_next() is True
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
            service.stop()
        assert not any(reader.is_alive() for reader in readers)
        for values in seen:
            assert values and values == sorted(values)
            assert 0 <= values[0] and values[-1] <= len(specs)
        assert service.job_status(job_id)["completed"] == len(specs)


class _StubService:
    """process_next that raises once, then reports an idle queue."""

    def __init__(self):
        self.calls = 0

    def process_next(self):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("boom")
        return False


class TestDispatcher:
    def test_survives_a_process_next_exception(self):
        stub = _StubService()
        dispatcher = Dispatcher(stub, idle_poll_s=0.01)
        dispatcher.start()
        try:
            assert wait_until(lambda: stub.calls >= 3)
            assert dispatcher.running
        finally:
            dispatcher.stop()
        assert not dispatcher.running

    def test_start_is_idempotent(self):
        stub = _StubService()
        dispatcher = Dispatcher(stub, idle_poll_s=0.01)
        dispatcher.start()
        thread = dispatcher._thread
        dispatcher.start()
        assert dispatcher._thread is thread
        dispatcher.stop()

    def test_drains_submissions_in_background(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(tmp_path / "cache"), enabled=True))
        with SweepService(state_dir=tmp_path / "state", engine=engine,
                          idle_poll_s=0.05) as service:
            submitted = service.submit([s.payload() for s in SPECS])
            assert submitted["state"] == "queued"
            job = service.queue.get(submitted["job_id"])
            assert wait_until(lambda: job.state is JobState.DONE,
                              timeout_s=120.0)
            assert job.completed == len(SPECS)
            assert job.executed == len(SPECS)
            assert service.result_path(job).exists()

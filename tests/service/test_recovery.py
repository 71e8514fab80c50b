"""Crash recovery: a killed service finishes exactly the remaining work.

Two layers: a deterministic in-process reconstruction of the crash
(queue closed with a job RUNNING, part of the sweep already in the
result cache), and a real SIGKILL of a live service subprocess mid-job.
The result cache alone carries a job's finished specs across the crash.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.service.app import SweepService
from repro.service.jobs import JobState
from repro.service.queue import JobQueue
from repro.store import FsStore

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

SPECS = [RunSpec(workload="histogram", protocol=protocol, cores=2,
                 per_core=80, seed=seed)
         for seed in (0, 1, 2)
         for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]


def reference_results(tmp_path):
    with ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(tmp_path / "ref"), enabled=True)) as engine:
        return engine.run_many(SPECS)


class TestInProcessRecovery:
    def test_requeued_job_skips_completed_specs(self, tmp_path):
        state = tmp_path / "state"
        cache_root = tmp_path / "cache"

        # A prior process claimed the job, finished 2 of 6 specs (the
        # result cache has them), then died without a terminal state
        # transition.  Older services also left a per-job journal under
        # journals/; a restart ignores it.
        with JobQueue(state) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
        with ExperimentEngine(jobs=1, cache=ResultCache(
                store=FsStore(cache_root), enabled=True)) as engine:
            for spec in SPECS[:2]:
                engine.run(spec)
        old_journal = state / "journals" / f"{job.id}.jsonl"
        old_journal.parent.mkdir()
        old_journal.write_text("".join(
            json.dumps({"digest": spec.digest(), "spec": spec.payload()},
                       sort_keys=True) + "\n" for spec in SPECS[:2]))
        journaled = old_journal.read_bytes()

        # Restart: the queue journal re-queues the in-flight job ...
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(cache_root), enabled=True))
        service = SweepService(state_dir=state, engine=engine)
        try:
            assert service.queue.requeued == 1
            back = service.queue.get(job.id)
            assert back.state is JobState.QUEUED
            assert back.requeues == 1
            assert service.metrics.counter_value(
                "repro_service_jobs_requeued_total") == 1

            # ... and one dispatch pass completes only the remainder.
            assert service.process_next() is True
            assert back.state is JobState.DONE
            assert back.completed == len(SPECS)
            assert back.executed == len(SPECS) - 2
            assert back.cache_hits == 2

            payload = service.job_result(job.id)
        finally:
            service.stop()
        assert old_journal.read_bytes() == journaled  # never read or written

        reference = reference_results(tmp_path)
        assert ({cell["spec"]["seed"]: cell["result"]
                 for cell in payload["results"]
                 if cell["spec"]["protocol"] == "mesi"} ==
                {spec.seed: result.to_dict()
                 for spec, result in reference.items()
                 if spec.protocol is ProtocolKind.MESI})

    def test_done_job_survives_restart_and_serves_results(self, tmp_path):
        state = tmp_path / "state"
        cache_root = tmp_path / "cache"
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(cache_root), enabled=True))
        service = SweepService(state_dir=state, engine=engine)
        try:
            submitted = service.submit([s.payload() for s in SPECS[:2]])
            assert service.process_next() is True
            first = service.job_result(submitted["job_id"])
        finally:
            service.stop()

        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(cache_root), enabled=True))
        service = SweepService(state_dir=state, engine=engine)
        try:
            job = service.queue.get(submitted["job_id"])
            assert job.state is JobState.DONE
            assert service.job_result(submitted["job_id"]) == first
            # A resubmission dedups onto the finished record: no new run.
            again = service.submit([s.payload() for s in SPECS[:2]])
            assert again["deduped"] is True and again["cached"] is True
            assert service.engine.executed == 0
        finally:
            service.stop()

    def test_result_blob_rebuilt_from_cache_when_deleted(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(tmp_path / "cache"), enabled=True))
        service = SweepService(state_dir=tmp_path / "state", engine=engine)
        try:
            submitted = service.submit([s.payload() for s in SPECS[:2]])
            service.process_next()
            job = service.queue.get(submitted["job_id"])
            first = service.job_result(job.id)
            service.result_path(job).unlink()
            assert service.job_result(job.id) == first
            assert service.result_path(job).exists()  # rebuilt durably
        finally:
            service.stop()


CHILD = textwrap.dedent("""\
    import time

    import repro.experiments._engine as eng

    real_simulate = eng.simulate

    def slow_simulate(*args, **kwargs):
        time.sleep(0.15)  # window for the parent's SIGKILL
        return real_simulate(*args, **kwargs)

    eng.simulate = slow_simulate

    from repro.common.params import ProtocolKind
    from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
    from repro.service.app import SweepService
    from repro.store import FsStore

    specs = [RunSpec(workload="histogram", protocol=protocol, cores=2,
                     per_core=80, seed=seed).payload()
             for seed in (0, 1, 2)
             for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]
    engine = ExperimentEngine(jobs=1, cache=ResultCache(
        store=FsStore({cache!r}), enabled=True))
    service = SweepService(state_dir={state!r}, engine=engine,
                           idle_poll_s=0.05).start()
    service.submit(specs)
    time.sleep(300)  # the dispatcher thread works; the parent kills us
""")


@pytest.mark.slow
class TestSigkillRecovery:
    def test_restarted_service_finishes_the_job(self, tmp_path):
        state = tmp_path / "state"
        cache_root = tmp_path / "cache"
        script = CHILD.format(cache=str(cache_root), state=str(state))
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        env.pop("REPRO_FAULTS", None)
        child = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            # Wait for some — but not all — results to land in the
            # result cache, then kill.
            deadline = time.time() + 60
            while time.time() < deadline:
                if len(list(cache_root.glob("??/*.json"))) >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("service child never cached a result")
            child.kill()  # SIGKILL: no flush, no atexit, no cleanup
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGKILL

        # Restart over the same state dir: the queue journal re-queues
        # the in-flight job and the re-run touches only the remainder.
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(cache_root), enabled=True))
        service = SweepService(state_dir=state, engine=engine)
        try:
            assert service.queue.requeued == 1
            (job,) = service.queue.jobs()
            assert job.state is JobState.QUEUED
            assert job.requeues == 1
            assert service.process_next() is True
            assert job.state is JobState.DONE
            assert job.completed == len(SPECS)
            assert job.cache_hits >= 1
            assert job.executed < len(SPECS)
            payload = service.job_result(job.id)
        finally:
            service.stop()

        reference = reference_results(tmp_path)
        assert ({RunSpec.from_payload(cell["spec"]).digest():
                 cell["result"] for cell in payload["results"]} ==
                {spec.digest(): result.to_dict()
                 for spec, result in reference.items()})

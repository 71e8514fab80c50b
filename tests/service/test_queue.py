"""JobQueue: durability, dedup, priority ordering, TTL, cancellation,
and waiters woken by terminal transitions."""

import json
import sys
import threading
import time

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import RunSpec
from repro.service.jobs import JobState, job_key
from repro.service.queue import QUEUE_JOURNAL_NAME, JobQueue


def spec(workload="histogram", protocol=ProtocolKind.MESI, seed=0):
    return RunSpec(workload=workload, protocol=protocol,
                   cores=2, per_core=60, seed=seed)


SPECS = [spec(), spec(protocol=ProtocolKind.PROTOZOA_MW)]


class TestSubmit:
    def test_submit_queues_and_journals(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, deduped = queue.submit(SPECS)
            assert not deduped
            assert job.state is JobState.QUEUED
            assert job.key == job_key(SPECS)
        lines = (tmp_path / QUEUE_JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["event"] == "submit"
        assert entry["job"]["key"] == job.key

    def test_same_specs_dedup_in_any_order(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            first, _ = queue.submit(SPECS)
            second, deduped = queue.submit(list(reversed(SPECS)))
            assert deduped
            assert second is first
            assert first.waiters == 2
            assert len(queue) == 1

    def test_done_job_dedups_too(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
            queue.finish(job, JobState.DONE)
            again, deduped = queue.submit(SPECS)
            assert deduped and again is job

    def test_terminal_failure_states_resubmit_fresh(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.cancel(job.id)
            fresh, deduped = queue.submit(SPECS)
            assert not deduped
            assert fresh.state is JobState.QUEUED
            assert fresh.seq > job.seq


class TestDispatchOrder:
    def test_priority_then_fifo(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            low, _ = queue.submit([spec(seed=1)], priority=0)
            high, _ = queue.submit([spec(seed=2)], priority=5)
            low2, _ = queue.submit([spec(seed=3)], priority=0)
            assert queue.pop_next() is high
            assert queue.pop_next() is low
            assert queue.pop_next() is low2
            assert queue.pop_next() is None

    def test_pop_marks_running(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            queue.submit(SPECS)
            job = queue.pop_next(now=42.0)
            assert job.state is JobState.RUNNING
            assert job.started_at == 42.0


class TestCancel:
    def test_cancel_queued(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            cancelled = queue.cancel(job.id)
            assert cancelled.state is JobState.CANCELLED

    def test_cancel_running_refused(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
            with pytest.raises(ValueError, match="running"):
                queue.cancel(job.id)

    def test_cancel_unknown_returns_none(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            assert queue.cancel("no-such-job") is None


class TestTtl:
    def test_queued_job_expires_instead_of_dispatching(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS, ttl_s=10.0, now=100.0)
            assert queue.pop_next(now=200.0) is None
            assert job.state is JobState.EXPIRED

    def test_default_ttl_applies(self, tmp_path):
        with JobQueue(tmp_path, default_ttl_s=5.0) as queue:
            job, _ = queue.submit(SPECS, now=0.0)
            assert job.ttl_s == 5.0


def waiter(queue, job, timeout_s=30.0):
    """Run ``queue.wait(job, timeout_s)`` on a thread; returns a dict that
    gets the waited job and how long the wait took."""
    out = {}
    started = threading.Event()

    def run():
        started.set()
        start = time.monotonic()
        out["job"] = queue.wait(job, timeout_s)
        out["took"] = time.monotonic() - start

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    started.wait()
    time.sleep(0.05)  # let it park on the condition
    return thread, out


class TestWait:
    def test_finish_wakes_a_waiter(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
            thread, out = waiter(queue, job)
            queue.finish(job, JobState.DONE)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert out["job"] is job and job.state is JobState.DONE
            assert out["took"] < 2.0

    def test_cancel_wakes_a_waiter_at_once(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            thread, out = waiter(queue, job)
            queue.cancel(job.id)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert out["job"].state is JobState.CANCELLED
            assert out["took"] < 2.0

    def test_release_waiters_frees_a_blocked_wait(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            thread, out = waiter(queue, job)
            queue.release_waiters()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert out["job"].state is JobState.QUEUED
            assert out["took"] < 2.0
            # Later waits return at once too: the service is stopping.
            start = time.monotonic()
            queue.wait(job, 30.0)
            assert time.monotonic() - start < 1.0

    def test_wait_times_out_on_an_unsettled_job(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            start = time.monotonic()
            assert queue.wait(job, 0.2).state is JobState.QUEUED
            assert 0.2 <= time.monotonic() - start < 2.0

    def test_wait_is_cut_short_at_the_ttl(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS, ttl_s=0.1)
            start = time.monotonic()
            assert queue.wait(job, 30.0).state is JobState.EXPIRED
            assert time.monotonic() - start < 2.0

    def test_zero_wait_expires_a_due_job(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS, ttl_s=10.0, now=time.time() - 60)
            assert queue.wait(job).state is JobState.EXPIRED
        with JobQueue(tmp_path) as queue:  # and the expiry is journaled
            assert queue.get(job.id).state is JobState.EXPIRED

    def test_no_wakeup_is_lost_under_contention(self, tmp_path):
        # More waiters than cores and a tiny switch interval: every waiter
        # must see its job settle; a lost notify would leave one parked
        # until its 30 s timeout.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobQueue(tmp_path) as queue:
                jobs = [queue.submit([spec(seed=seed)])[0]
                        for seed in range(8)]
                states = []
                threads = [threading.Thread(
                    target=lambda job=job: states.append(
                        queue.wait(job, 30.0).state), daemon=True)
                    for job in jobs for _ in range(2)]
                for thread in threads:
                    thread.start()
                for index, job in enumerate(jobs):
                    if index % 2:
                        queue.cancel(job.id)
                    else:
                        queue.finish(job, JobState.DONE)
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(state.value for state in states) == (
                    ["cancelled"] * 8 + ["done"] * 8)
        finally:
            sys.setswitchinterval(interval)

    def test_settled_job_returns_at_once(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.cancel(job.id)
            start = time.monotonic()
            assert queue.wait(job, 30.0) is job
            assert time.monotonic() - start < 1.0


class TestDurability:
    def test_replay_restores_jobs(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS, priority=2)
        with JobQueue(tmp_path) as queue:
            assert queue.replayed == 1
            back = queue.get(job.id)
            assert back is not None
            assert back.specs == SPECS
            assert back.priority == 2
            assert back.state is JobState.QUEUED

    def test_running_job_requeues_on_replay(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
            assert job.state is JobState.RUNNING
        # A new process over the same journal: in-flight work re-queues.
        with JobQueue(tmp_path) as queue:
            assert queue.requeued == 1
            back = queue.get(job.id)
            assert back.state is JobState.QUEUED
            assert back.started_at is None
            assert back.requeues == 1

    def test_terminal_states_survive_replay(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
            job.completed = job.executed = len(SPECS)
            queue.finish(job, JobState.DONE)
        with JobQueue(tmp_path) as queue:
            back = queue.get(job.id)
            assert back.state is JobState.DONE
            assert back.completed == len(SPECS)

    def test_torn_final_line_tolerated(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
        path = tmp_path / QUEUE_JOURNAL_NAME
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "state", "key"')  # killed mid-write
        with JobQueue(tmp_path) as queue:
            assert queue.get(job.id).state is JobState.QUEUED

    def test_load_compacts_to_one_line_per_job(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            job, _ = queue.submit(SPECS)
            queue.pop_next()
            queue.finish(job, JobState.DONE)
            queue.submit([spec(seed=9)])
        # Journal now holds 3+ events for 2 jobs; loading compacts it.
        with JobQueue(tmp_path):
            pass
        lines = (tmp_path / QUEUE_JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["event"] == "submit" for line in lines)

    def test_empty_dir_is_fine(self, tmp_path):
        with JobQueue(tmp_path / "nowhere") as queue:
            assert len(queue) == 0
            assert queue.pop_next() is None


class TestListing:
    def test_jobs_newest_first_with_state_filter(self, tmp_path):
        with JobQueue(tmp_path) as queue:
            first, _ = queue.submit([spec(seed=1)])
            second, _ = queue.submit([spec(seed=2)])
            queue.pop_next()  # claims first (FIFO)
            assert queue.jobs() == [second, first]
            assert queue.jobs(state=JobState.QUEUED) == [second]
            assert queue.jobs(limit=1) == [second]
            assert queue.counts() == {"queued": 1, "running": 1}

"""The durable, dedup'ing job queue behind the sweep service.

A JSONL event journal (``queue.jsonl`` under the service state
directory) is the queue's single source of truth, appended through the
same fsync'd :class:`~repro.resilience.storage.JsonlLog` as the sweep
journal — so a SIGKILL at any point loses at most one torn final line,
which the loader skips.  Two event kinds:

* ``{"event": "submit", "job": {...}}`` — a job record snapshot
  (creation, resubmission, and the compacted image written on load);
* ``{"event": "state", "key": ..., "state": ..., ...}`` — one state
  transition, carrying the final progress counters for terminal states.

**Replay.** On construction the journal is replayed into the in-memory
job table, then *compacted*: the live table is rewritten as one snapshot
line per job via :func:`~repro.resilience.storage.durable_replace`, so
the journal's size is bounded by the job count, not the event count.
Jobs found ``RUNNING`` were in flight when the previous process died;
they re-queue (``requeues`` incremented) and their re-run serves every
spec the result cache already holds as a hit, simulating only the rest.

**Dedup.** Submission is content-addressed by
:func:`~repro.service.jobs.job_key`: a second submission of the same
spec set attaches to the existing queued/running/done job instead of
creating a new one (``waiters`` counts the sharing clients).  Jobs in a
terminal failure state (failed / cancelled / expired) restart fresh.

**Ordering.** ``pop_next`` serves the highest priority first, FIFO
within a priority class; queued jobs past their TTL expire instead of
dispatching.

**Waiting.** :meth:`JobQueue.wait` parks a caller on a condition over
the queue lock until a job settles: every terminal transition (finish,
cancel, TTL expiry) and :meth:`JobQueue.release_waiters` notify it, so
a long-polling ``job_status`` answers the moment its job is done
instead of on the client's next poll.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments._engine import RunSpec
from repro.resilience.storage import JsonlLog, durable_replace
from repro.service.jobs import (
    ACTIVE_STATES,
    DEFAULT_TTL_S,
    Job,
    JobState,
    job_key,
)

QUEUE_JOURNAL_NAME = "queue.jsonl"

#: Terminal states: the job will never dispatch again without a resubmit.
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
                   JobState.EXPIRED)


class JobQueue:
    """Durable priority queue of :class:`~repro.service.jobs.Job` records.

    Thread-safe: every public method takes the queue lock, so RPC handler
    threads and the dispatcher thread interleave freely.  ``_settled``
    is a condition over that same lock, notified on every terminal
    transition.
    """

    def __init__(self, state_dir, default_ttl_s: float = DEFAULT_TTL_S):
        self.state_dir = Path(state_dir)
        self.path = self.state_dir / QUEUE_JOURNAL_NAME
        self.default_ttl_s = default_ttl_s
        self._jobs: Dict[str, Job] = {}   # full key -> Job
        self._lock = threading.RLock()
        self._settled = threading.Condition(self._lock)
        self._released = False            # set by release_waiters()
        self._log = JsonlLog(self.path)
        self._seq = 0
        self.replayed = 0                 # jobs loaded from a prior process
        self.requeued = 0                 # RUNNING jobs re-queued on load
        self._load()

    # -- durability ----------------------------------------------------------

    def _load(self) -> None:
        """Replay the journal, re-queue in-flight jobs, compact."""
        for entry in self._log.read()[0]:
            self._replay_entry(entry)
        self.replayed = len(self._jobs)
        for job in self._jobs.values():
            self._seq = max(self._seq, job.seq)
            if job.state is JobState.RUNNING:
                # The previous process died mid-run: put the job back in
                # line.  Finished specs are in the result cache, so the
                # re-run only simulates the remainder.
                job.state = JobState.QUEUED
                job.started_at = None
                job.requeues += 1
                self.requeued += 1
        if self._jobs:
            self._compact()

    def _replay_entry(self, entry: Dict) -> None:
        event = entry.get("event")
        if event == "submit":
            try:
                job = Job.from_dict(entry["job"])
            except (KeyError, ValueError, TypeError):
                return  # malformed snapshot; skip rather than abort replay
            self._jobs[job.key] = job
        elif event == "state":
            job = self._jobs.get(entry.get("key", ""))
            if job is None:
                return
            try:
                job.state = JobState(entry["state"])
            except (KeyError, ValueError):
                return
            for field in ("started_at", "finished_at", "completed",
                          "cache_hits", "executed", "error"):
                if field in entry:
                    setattr(job, field, entry[field])

    def _compact(self) -> None:
        """Rewrite the journal as one snapshot line per live job."""
        self._log.close()  # the append handle would outlive the rename
        lines = [json.dumps({"event": "submit", "job": job.to_dict()},
                            sort_keys=True)
                 for job in sorted(self._jobs.values(), key=lambda j: j.seq)]
        durable_replace(self.path, "".join(line + "\n" for line in lines))

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, specs: List[RunSpec], priority: int = 0,
               ttl_s: Optional[float] = None,
               now: Optional[float] = None) -> Tuple[Job, bool]:
        """Enqueue a sweep; returns ``(job, deduped)``.

        ``deduped`` is true when the submission attached to an existing
        queued/running/done job with the same content key instead of
        creating (or restarting) one.
        """
        now = time.time() if now is None else now
        key = job_key(specs)
        with self._lock:
            self._expire_due(now)
            job = self._jobs.get(key)
            if job is not None and job.state in ACTIVE_STATES:
                job.waiters += 1
                return job, True
            self._seq += 1
            job = Job(
                key=key,
                specs=list(specs),
                priority=priority,
                ttl_s=self.default_ttl_s if ttl_s is None else ttl_s,
                seq=self._seq,
                state=JobState.QUEUED,
                submitted_at=now,
            )
            self._jobs[key] = job
            self._log.append({"event": "submit", "job": job.to_dict()})
            return job, False

    # -- lookup --------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        """Resolve a job by short id or full key."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                return job
            for job in self._jobs.values():
                if job.id == job_id:
                    return job
        return None

    def jobs(self, state: Optional[JobState] = None,
             limit: int = 0) -> List[Job]:
        """Jobs newest-first, optionally filtered by state."""
        with self._lock:
            self._expire_due(time.time())
            out = sorted(self._jobs.values(), key=lambda j: -j.seq)
        if state is not None:
            out = [job for job in out if job.state is state]
        return out[:limit] if limit > 0 else out

    def counts(self) -> Dict[str, int]:
        with self._lock:
            self._expire_due(time.time())
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state.value] = counts.get(job.state.value, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- dispatch ------------------------------------------------------------

    def pop_next(self, now: Optional[float] = None) -> Optional[Job]:
        """Claim the next runnable job (highest priority, then FIFO) and
        mark it ``RUNNING``; ``None`` when nothing is queued."""
        now = time.time() if now is None else now
        with self._lock:
            self._expire_due(now)
            queued = [job for job in self._jobs.values()
                      if job.state is JobState.QUEUED]
            if not queued:
                return None
            job = min(queued, key=lambda j: (-j.priority, j.seq))
            job.state = JobState.RUNNING
            job.started_at = now
            self._log.append({"event": "state", "key": job.key,
                              "state": job.state.value, "started_at": now})
            return job

    def finish(self, job: Job, state: JobState,
               error: Optional[str] = None,
               now: Optional[float] = None) -> None:
        """Record a terminal transition with its final progress counters."""
        now = time.time() if now is None else now
        with self._lock:
            job.state = state
            job.finished_at = now
            job.error = error
            self._log.append({
                "event": "state", "key": job.key, "state": state.value,
                "finished_at": now, "completed": job.completed,
                "cache_hits": job.cache_hits, "executed": job.executed,
                "error": error,
            })
            self._settled.notify_all()

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job; returns it, or ``None`` if unknown.

        Raises :class:`ValueError` when the job exists but is not
        cancellable (running jobs run to completion; terminal states are
        already settled).
        """
        with self._lock:
            job = self.get(job_id)
            if job is None:
                return None
            if job.state is not JobState.QUEUED:
                raise ValueError(
                    f"job {job.id} is {job.state.value}; only queued jobs "
                    "can be cancelled")
            self.finish(job, JobState.CANCELLED)
            return job

    # -- TTL -----------------------------------------------------------------

    def _expire(self, job: Job, now: float) -> None:
        """Record one TTL expiry (caller holds the lock)."""
        job.state = JobState.EXPIRED
        job.finished_at = now
        self._log.append({"event": "state", "key": job.key,
                          "state": job.state.value, "finished_at": now})
        self._settled.notify_all()

    def _expire_due(self, now: float) -> List[Job]:
        """Expire queued jobs past their TTL (caller holds the lock)."""
        expired = [job for job in self._jobs.values() if job.expired(now)]
        for job in expired:
            self._expire(job, now)
        return expired

    # -- waiting -------------------------------------------------------------

    def wait(self, job: Job, timeout_s: float = 0.0) -> Job:
        """Block until ``job`` settles, ``timeout_s`` passes, or
        :meth:`release_waiters` is called; returns ``job`` either way.

        A queued job whose TTL has run out expires here rather than on
        the dispatcher's next pass, and a wait on a queued job with a
        TTL is cut short at its expiry time — so a waiter sees
        ``expired`` on time even while the dispatcher is busy with
        another job.  ``timeout_s=0`` only applies that TTL check.
        """
        deadline = time.monotonic() + timeout_s
        with self._settled:
            while True:
                now = time.time()
                if job.expired(now):
                    self._expire(job, now)
                left = deadline - time.monotonic()
                if (job.state in TERMINAL_STATES or self._released
                        or left <= 0):
                    return job
                if job.state is JobState.QUEUED and job.ttl_s > 0:
                    # Job.expired() is strict (age > ttl), hence the
                    # millisecond past the expiry instant.
                    due = job.submitted_at + job.ttl_s - now + 1e-3
                    left = min(left, max(due, 1e-3))
                self._settled.wait(left)

    def release_waiters(self) -> None:
        """Wake every :meth:`wait` now and make later ones return at
        once (the service is stopping)."""
        with self._settled:
            self._released = True
            self._settled.notify_all()

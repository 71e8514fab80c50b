"""The job model: one submitted sweep, content-addressed for dedup.

A *job* is an ordered batch of :class:`~repro.experiments._engine.RunSpec`
recipes plus queueing metadata (priority, TTL, timestamps, progress).
Its identity is the **job key**: the sha256 over the sorted set of spec
digests (plus a schema version), so two clients submitting the same
sweep — in any spec order — address the same job and share one
execution.  The key doubles as the durable name for the job's result
blob.

Jobs move through a small state machine::

    QUEUED -> RUNNING -> DONE
       |          |
       |          +----> FAILED   (engine raised; error recorded)
       +-------> CANCELLED        (client cancel before dispatch)
       +-------> EXPIRED          (TTL elapsed while still queued)

Only ``QUEUED`` jobs can be cancelled or expire: once the dispatcher
picks a job up it runs to completion (the engine's own retry/degrade
machinery decides how).  A crash while ``RUNNING`` is not a terminal
state — on restart the queue replays the journal and re-queues the job,
and the result cache serves every spec that already finished, so the
re-run simulates only the rest.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    # The client needs only JobState; the engine loads where specs are
    # rebuilt.
    from repro.experiments._engine import RunSpec

#: Bump when the job record layout or key derivation changes; old queue
#: journals replay fine (unknown fields are ignored, missing get defaults)
#: but keys from another schema never collide with current ones.
JOB_SCHEMA = 1

#: Queued jobs older than this expire unless the submitter set a TTL.
DEFAULT_TTL_S = 24 * 3600.0


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


#: States a dedup'ing submit may attach to instead of creating a new job.
ACTIVE_STATES = (JobState.QUEUED, JobState.RUNNING, JobState.DONE)

#: States from which a resubmission starts the job over.
RESUBMIT_STATES = (JobState.FAILED, JobState.CANCELLED, JobState.EXPIRED)


def job_key(specs: List[RunSpec]) -> str:
    """Content address of a sweep: order-insensitive over its spec set."""
    digests = sorted(spec.digest() for spec in specs)
    blob = json.dumps({"schema": JOB_SCHEMA, "specs": digests},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Job:
    """One submitted sweep plus everything the queue must remember."""

    key: str                      # sha256 over the sorted spec digests
    specs: List[RunSpec]          # submission order (result order too)
    priority: int = 0             # higher dispatches first
    ttl_s: float = DEFAULT_TTL_S  # queued-state lifetime; <= 0: never expires
    seq: int = 0                  # submission counter (FIFO within priority)
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    completed: int = 0            # specs finished so far (progress)
    cache_hits: int = 0           # specs served from the result cache
    executed: int = 0             # specs actually simulated
    requeues: int = 0             # crash-recovery replays of this job
    error: Optional[str] = None
    #: volatile (not journaled): clients sharing this execution via dedup
    waiters: int = field(default=1, compare=False)

    @property
    def id(self) -> str:
        """The short client-facing handle (prefix of the full key)."""
        return self.key[:16]

    @property
    def total(self) -> int:
        return len(self.specs)

    def expired(self, now: Optional[float] = None) -> bool:
        """TTL check — only meaningful while still queued."""
        if self.state is not JobState.QUEUED or self.ttl_s <= 0:
            return False
        now = time.time() if now is None else now
        return now - self.submitted_at > self.ttl_s

    # -- wire/journal form ---------------------------------------------------

    def to_dict(self) -> Dict:
        """The journaled (and RPC ``job_status``) form of this job."""
        return {
            "id": self.id,
            "key": self.key,
            "specs": [spec.payload() for spec in self.specs],
            "priority": self.priority,
            "ttl_s": self.ttl_s,
            "seq": self.seq,
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "total": self.total,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "requeues": self.requeues,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        """Inverse of :meth:`to_dict`; unknown keys ignored, missing
        optional keys take their defaults (forward-compatible replay)."""
        from repro.experiments._engine import RunSpec

        specs = [RunSpec.from_payload(p) for p in data["specs"]]
        return cls(
            key=data["key"],
            specs=specs,
            priority=data.get("priority", 0),
            ttl_s=data.get("ttl_s", DEFAULT_TTL_S),
            seq=data.get("seq", 0),
            state=JobState(data.get("state", "queued")),
            submitted_at=data.get("submitted_at", 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            completed=data.get("completed", 0),
            cache_hits=data.get("cache_hits", 0),
            executed=data.get("executed", 0),
            requeues=data.get("requeues", 0),
            error=data.get("error"),
        )

    def __repr__(self) -> str:
        return (f"Job({self.id!r}, state={self.state.value}, "
                f"specs={self.total}, completed={self.completed})")

"""``repro.service``: the multi-tenant sweep service.

A long-running HTTP/JSON-RPC front end over the experiment engine
(docs/service.md).  Submissions are content-addressed and dedup'd
against both in-flight jobs and the persistent result cache, the job
queue is durable (fsynced JSONL journal; SIGKILL-safe with automatic
resume), and a background dispatcher drains it through one shared
:class:`~repro.experiments._engine.ExperimentEngine` with a persistent
warm worker pool.

Layering::

    rpc.py         JSON-RPC method registry + ThreadingHTTPServer
    client.py      stdlib urllib client (ServiceClient)
    app.py         SweepService: wiring + the RPC method bodies + serve()
    dispatcher.py  the drain thread
    queue.py       durable, dedup'ing priority queue (JobQueue)
    jobs.py        the job model and its content-addressed key

Use :func:`~repro.service.app.serve` / ``repro serve`` to run one, and
:class:`~repro.service.client.ServiceClient` / ``repro submit`` /
``repro jobs`` to talk to it.  Both are re-exported from
:mod:`repro.api`.
"""

from repro.service.app import DEFAULT_PORT, SweepService, serve, service_state_dir
from repro.service.client import ServiceClient
from repro.service.dispatcher import Dispatcher
from repro.service.jobs import DEFAULT_TTL_S, Job, JobState, job_key
from repro.service.queue import JobQueue
from repro.service.rpc import METHODS, ServiceError, make_server

__all__ = [
    "DEFAULT_PORT",
    "DEFAULT_TTL_S",
    "Dispatcher",
    "Job",
    "JobQueue",
    "JobState",
    "METHODS",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "job_key",
    "make_server",
    "serve",
    "service_state_dir",
]

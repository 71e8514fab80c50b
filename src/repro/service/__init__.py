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
:mod:`repro.api`.  Every name here is bound on first access, so a
client (``repro submit``, ``repro jobs``) never loads the server side
or the simulator behind it.
"""

from repro._lazy import lazy_names

_SOURCES = {
    "DEFAULT_PORT": "repro.service.app",
    "DEFAULT_TTL_S": "repro.service.jobs",
    "Dispatcher": "repro.service.dispatcher",
    "Job": "repro.service.jobs",
    "JobQueue": "repro.service.queue",
    "JobState": "repro.service.jobs",
    "METHODS": "repro.service.rpc",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.rpc",
    "SweepService": "repro.service.app",
    "job_key": "repro.service.jobs",
    "make_server": "repro.service.rpc",
    "serve": "repro.service.app",
    "service_state_dir": "repro.service.app",
}

__getattr__, __dir__ = lazy_names(__name__, globals(), _SOURCES)

__all__ = sorted(_SOURCES)

"""``ServiceClient``: a thin stdlib JSON-RPC client for the sweep service.

Everything goes over one ``urllib`` POST per call; no sockets are held
between calls, so a client object is cheap and safe to share.  The
helper methods mirror the server's method registry one-for-one, plus two
conveniences: :meth:`ServiceClient.wait` (long-poll ``job_status`` until
the job settles: the server holds each call until the job is done or
``poll_s`` passes, so the wait ends when the job does) and
:meth:`ServiceClient.results` (fetch ``job_result`` and inflate it back
into the same ``{RunSpec: RunResult}`` matrix ``repro.api.sweep``
returns — byte-identical content, different transport).

RPC-level failures raise :class:`~repro.service.rpc.ServiceError`
carrying the JSON-RPC error code; transport failures (server down,
connection refused) raise the stdlib ``URLError`` untouched so callers
can distinguish "the service said no" from "there is no service".
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from repro.service.jobs import JobState
from repro.service.rpc import INTERNAL_ERROR, MAX_WAIT_S, ServiceError

if TYPE_CHECKING:
    # Imported where a matrix is inflated: `repro submit` and `repro
    # jobs` never load the simulator.
    from repro.experiments._engine import RunSpec
    from repro.system.results import RunResult

#: Terminal job states wait() stops on.
_SETTLED = {JobState.DONE.value, JobState.FAILED.value,
            JobState.CANCELLED.value, JobState.EXPIRED.value}


def _spec_payload(spec: Union[RunSpec, Dict]) -> Dict:
    return dict(spec) if isinstance(spec, dict) else spec.payload()


class ServiceClient:
    """One sweep service endpoint, spoken JSON-RPC over HTTP."""

    def __init__(self, url: str = "http://127.0.0.1:8673",
                 timeout_s: float = 60.0):
        self.url = url.rstrip("/") + "/"
        self.timeout_s = timeout_s
        self._next_id = 0

    # -- transport -----------------------------------------------------------

    def call(self, method: str, **params):
        """One JSON-RPC round trip; returns the ``result`` member."""
        self._next_id += 1
        body = json.dumps({
            "jsonrpc": "2.0",
            "id": self._next_id,
            "method": method,
            "params": params,
        }).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        if "error" in payload:
            error = payload["error"] or {}
            raise ServiceError(error.get("message", "unknown service error"),
                               error.get("code", INTERNAL_ERROR))
        return payload.get("result")

    # -- the method registry, mirrored ----------------------------------------

    def submit_sweep(self, specs: Iterable[Union[RunSpec, Dict]],
                     priority: int = 0,
                     ttl_s: Optional[float] = None) -> Dict:
        payloads = [_spec_payload(spec) for spec in specs]
        params = {"specs": payloads, "priority": priority}
        if ttl_s is not None:
            params["ttl_s"] = ttl_s
        return self.call("submit_sweep", **params)

    def job_status(self, job_id: str, wait_s: float = 0) -> Dict:
        return self.call("job_status", job_id=job_id, wait_s=wait_s)

    def job_result(self, job_id: str) -> Dict:
        return self.call("job_result", job_id=job_id)

    def cancel(self, job_id: str) -> Dict:
        return self.call("cancel", job_id=job_id)

    def list_jobs(self, state: Optional[str] = None,
                  limit: int = 0) -> List[Dict]:
        return self.call("list_jobs", state=state, limit=limit)["jobs"]

    def health(self) -> Dict:
        return self.call("health")

    def metrics(self) -> Dict:
        return self.call("metrics")

    # -- conveniences ----------------------------------------------------------

    def wait(self, job_id: str, timeout_s: float = 600.0,
             poll_s: float = 0.2) -> Dict:
        """Block until the job settles; returns its final status record.

        Each ``job_status`` call long-polls: the server answers as soon
        as the job settles, or after ``poll_s`` with a fresh status —
        so ``poll_s`` is the longest the caller goes without one, not a
        delay added to every wait.  ``poll_s`` is capped at the server's
        :data:`~repro.service.rpc.MAX_WAIT_S`, half the client's
        ``timeout_s`` and the time left.  A server that ignores
        ``wait_s`` answers at once; the rest of ``poll_s`` is then slept
        here, so the loop never spins.

        Raises :class:`ServiceError` if the job settles anywhere other
        than ``done`` (the error message carries the job's recorded
        failure), or :class:`TimeoutError` past the deadline.
        """
        if poll_s < 0:
            raise ValueError(f"poll_s must be >= 0, got {poll_s}")
        deadline = time.monotonic() + timeout_s
        while True:
            asked = time.monotonic()
            # Half the socket timeout at most, so a held reply always
            # arrives before the read times out.
            wait_s = max(0.0, min(poll_s, MAX_WAIT_S, self.timeout_s / 2,
                                  deadline - asked))
            status = self.job_status(job_id, wait_s=wait_s)
            if status["state"] in _SETTLED:
                if status["state"] != JobState.DONE.value:
                    detail = status.get("error") or ""
                    raise ServiceError(
                        f"job {job_id} settled as {status['state']}"
                        + (f": {detail}" if detail else ""))
                return status
            answered = time.monotonic()
            if answered >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout_s:.0f}s ({status['completed']}/"
                    f"{status['total']} specs done)")
            time.sleep(max(0.0, asked + wait_s - answered))

    def results(self, job_id: str) -> Dict[RunSpec, RunResult]:
        """The job's matrix in ``repro.api.sweep``'s shape."""
        from repro.experiments._engine import RunSpec
        from repro.system.results import RunResult

        payload = self.job_result(job_id)
        return {
            RunSpec.from_payload(cell["spec"]):
                RunResult.from_dict(cell["result"])
            for cell in payload["results"]
        }

    def sweep(self, specs: Iterable[Union[RunSpec, Dict]],
              priority: int = 0, ttl_s: Optional[float] = None,
              timeout_s: float = 600.0,
              poll_s: float = 0.2) -> Dict[RunSpec, RunResult]:
        """Submit, wait, fetch: the one-call remote equivalent of
        :func:`repro.api.sweep`.  A submission answered ``done`` (from
        the result cache) goes straight to the fetch."""
        submitted = self.submit_sweep(specs, priority=priority, ttl_s=ttl_s)
        if submitted["state"] != JobState.DONE.value:
            self.wait(submitted["job_id"], timeout_s=timeout_s,
                      poll_s=poll_s)
        return self.results(submitted["job_id"])

    def __repr__(self) -> str:
        return f"ServiceClient({self.url!r})"

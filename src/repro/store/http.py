"""``HttpStore``: the blob store spoken over a running ``repro serve``.

One service instance owns an :class:`~repro.store.fs.FsStore` and
exposes it two ways (see :mod:`repro.service.rpc`):

* **raw blob endpoints** for the data plane —
  ``GET/PUT/HEAD/DELETE /blob/<key>`` move payload bytes without any
  JSON framing, so a fleet of workers shares one warm cache at wire
  speed;
* **JSON-RPC methods** for the management plane — ``store_list``,
  ``store_quarantine``, ``store_orphans``, ``store_gc_log``, ... carry
  the doctor/GC surface, so ``repro doctor --store http://...`` audits
  the remote tree exactly like a local one.

The remote leg is hardened for coordinator flaps (docs/distributed.md):

* every round trip runs under a seeded
  :class:`~repro.resilience.retry.RetryPolicy` — transport failures
  (socket errors, timeouts, 5xx) retry with deterministic jittered
  exponential backoff (:data:`DEFAULT_STORE_RETRIES` retries from a
  :data:`DEFAULT_STORE_BACKOFF_S` base, jitter seeded by
  ``$REPRO_RETRY_SEED``); HTTP *answers* below 500 (404 included) never
  retry, they are semantics, not weather;
* the per-request timeout is configurable: an explicit ``timeout_s``
  beats a ``?timeout=SECONDS`` URL query, which beats
  ``$REPRO_STORE_TIMEOUT``, which beats the 60 s default;
* a trip-open/half-open **circuit breaker** guards the endpoint: after
  :data:`DEFAULT_BREAKER_THRESHOLD` consecutive transport failures the
  store goes *degraded* — calls fail fast with
  :class:`StoreUnavailableError` instead of burning a timeout each —
  until a :data:`DEFAULT_BREAKER_COOLDOWN_S` cooldown admits one
  half-open probe.  Degradation is counted, never silent:
  ``repro_store_retry_total{op,outcome}`` and
  ``repro_store_degraded_seconds_total`` land in the process metrics
  registry (exported by the service ``/metrics`` endpoint), and every
  trip/recovery logs through :mod:`repro.resilience.log`.

The network fault sites (``store-get-error`` / ``store-put-stall`` /
``store-conn-refused``, armed via ``REPRO_FAULTS``) are consulted once
per attempt, so ``repro chaos`` rehearses exactly the path a real
flapping coordinator exercises.

This client is deliberately free of :mod:`repro.service` imports (the
service itself sits *above* the store layer); the ~20 lines of JSON-RPC
framing are duplicated here instead of creating an import cycle.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import process_registry
from repro.resilience.faults import get_injector
from repro.resilience.log import warn as resilience_warn
from repro.resilience.retry import RetryPolicy
from repro.store.base import BlobStat, BlobStore, StoreError, validate_key

#: Fallback per-request timeout when nothing else names one.
DEFAULT_TIMEOUT_S = 60.0

#: Retries after a failed attempt (so 3 attempts per operation).
DEFAULT_STORE_RETRIES = 2

#: The first retry's backoff, doubling per retry.
DEFAULT_STORE_BACKOFF_S = 0.05

#: Consecutive transport failures before the breaker trips open.
DEFAULT_BREAKER_THRESHOLD = 3

#: Seconds a tripped breaker waits before admitting a half-open probe.
DEFAULT_BREAKER_COOLDOWN_S = 5.0


class StoreUnavailableError(StoreError):
    """The endpoint is degraded (breaker open): failed fast, no I/O."""


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "")
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return default


def default_store_timeout() -> float:
    """``$REPRO_STORE_TIMEOUT`` seconds, else the 60 s default."""
    return _env_float("REPRO_STORE_TIMEOUT", DEFAULT_TIMEOUT_S)


def default_store_retry() -> RetryPolicy:
    """The remote-leg retry policy (seeded so backoffs are replayable).

    ``$REPRO_RETRY_SEED`` seeds the jitter — the same seed the engine's
    policy uses, so one knob makes a whole chaos run deterministic.
    """
    return RetryPolicy(
        max_retries=DEFAULT_STORE_RETRIES,
        backoff_base_s=DEFAULT_STORE_BACKOFF_S,
        seed=int(_env_float("REPRO_RETRY_SEED", 0)),
    )


def _retryable(exc: BaseException) -> bool:
    """Transport weather retries; HTTP answers below 500 do not."""
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code >= 500
    return isinstance(exc, (OSError, http.client.HTTPException))


class _Breaker:
    """Trip-open/half-open circuit state for one endpoint.

    Closed: requests flow.  Open: requests fail fast until the cooldown
    elapses.  Half-open: exactly one probe is admitted; its outcome
    closes or re-opens the circuit.  Time spent non-closed accrues to
    ``repro_store_degraded_seconds_total`` as it passes, so the metric
    is live during an outage, not only after recovery.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, url: str, threshold: Optional[int] = None,
                 cooldown_s: Optional[float] = None):
        self.url = url
        self.threshold = (DEFAULT_BREAKER_THRESHOLD if threshold is None
                          else threshold)
        self.cooldown_s = (DEFAULT_BREAKER_COOLDOWN_S if cooldown_s is None
                           else cooldown_s)
        self.state = self.CLOSED
        self.failures = 0          # consecutive transport failures
        self.trips = 0
        self._since = 0.0          # monotonic mark of the degraded span
        self._opened = 0.0         # monotonic instant the circuit tripped

    def _account(self) -> None:
        """Accrue degraded wall-clock up to now (non-closed states)."""
        now = time.monotonic()
        if self.state != self.CLOSED:
            process_registry().inc("repro_store_degraded_seconds_total",
                                   round(now - self._since, 6))
        self._since = now

    def allow(self) -> bool:
        """May a request go out right now?  (Counts degraded time.)"""
        if self.threshold <= 0 or self.state == self.CLOSED:
            return True
        self._account()
        if self.state == self.OPEN and self._cooled():
            self.state = self.HALF_OPEN  # admit exactly one probe
            return True
        # OPEN still cooling, or HALF_OPEN with the probe already spent.
        return False

    def _cooled(self) -> bool:
        return time.monotonic() - self._opened >= self.cooldown_s

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        self.failures += 1
        if self.state == self.HALF_OPEN or (
                self.state == self.CLOSED and self.failures >= self.threshold):
            reopened = self.state == self.HALF_OPEN
            self._account()
            self.state = self.OPEN
            self._opened = time.monotonic()
            self.trips += 1
            process_registry().inc("repro_store_breaker_trips_total")
            resilience_warn(
                "store-degraded",
                f"store {self.url} degraded "
                f"({'probe failed' if reopened else self.failures} "
                f"consecutive transport failure(s)); failing fast for "
                f"{self.cooldown_s:g}s",
                url=self.url)

    def record_success(self) -> None:
        if self.state != self.CLOSED:
            self._account()
            self.state = self.CLOSED
            resilience_warn("store-recovered",
                            f"store {self.url} reachable again",
                            url=self.url)
        self.failures = 0


class HttpStore(BlobStore):
    """Blob storage over a ``repro serve`` endpoint (``http://host:port``).

    The URL may carry a ``?timeout=SECONDS`` query; an explicit
    ``timeout_s`` argument wins over it (see the module docstring for
    the full precedence chain).
    """

    def __init__(self, url: str, timeout_s: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker_threshold: Optional[int] = None,
                 breaker_cooldown_s: Optional[float] = None):
        self.base, url_timeout = self._split_url(url)
        if timeout_s is not None:
            self.timeout_s = float(timeout_s)
        elif url_timeout is not None:
            self.timeout_s = url_timeout
        else:
            self.timeout_s = default_store_timeout()
        self._url_timeout = url_timeout
        self.retry = retry if retry is not None else default_store_retry()
        self._breaker = _Breaker(self.base, threshold=breaker_threshold,
                                 cooldown_s=breaker_cooldown_s)
        self._next_id = 0

    @staticmethod
    def _split_url(url: str) -> Tuple[str, Optional[float]]:
        parts = urllib.parse.urlsplit(url.strip())
        timeout: Optional[float] = None
        if parts.query:
            for name, values in urllib.parse.parse_qs(parts.query).items():
                if name != "timeout":
                    raise StoreError(
                        f"unknown store URL parameter {name!r} in {url!r} "
                        "(http stores accept only ?timeout=SECONDS)")
                try:
                    timeout = float(values[-1])
                except ValueError:
                    raise StoreError(
                        f"bad ?timeout= value {values[-1]!r} in {url!r}")
        base = urllib.parse.urlunsplit(
            (parts.scheme, parts.netloc, parts.path, "", "")).rstrip("/")
        return base, timeout

    @property
    def degraded(self) -> bool:
        """Is the breaker currently failing fast?"""
        return self._breaker.state != _Breaker.CLOSED

    # -- the guarded round trip ----------------------------------------------

    def _count(self, op: str, outcome: str) -> None:
        process_registry().inc("repro_store_retry_total",
                               op=op, outcome=outcome)

    def _do(self, op: str, attempt_fn: Callable):
        """Run one logical store operation with retries + the breaker.

        ``attempt_fn`` performs a complete round trip (request, read,
        parse) and may raise; the fault-injection sites are consulted
        per *attempt*, so an injected failure exercises the identical
        retry path a real one would.
        """
        attempts = self.retry.max_retries + 1
        last: Optional[BaseException] = None
        for attempt in range(attempts):
            if not self._breaker.allow():
                self._count(op, "fast-fail")
                raise StoreUnavailableError(
                    f"store {self.base} is degraded (circuit open after "
                    f"{self._breaker.failures} consecutive transport "
                    f"failure(s)); retrying after the "
                    f"{self._breaker.cooldown_s:g}s cooldown")
            try:
                injector = get_injector()
                if injector is not None:
                    injector.on_store_op(op)
                result = attempt_fn()
            except BaseException as exc:  # noqa: BLE001 — classified below
                if not _retryable(exc):
                    raise
                last = exc
                self._breaker.record_failure()
                if attempt + 1 >= attempts or self.degraded:
                    break
                self._count(op, "retried")
                delay = self.retry.backoff(attempt + 1)
                if delay > 0:
                    time.sleep(delay)
                continue
            self._breaker.record_success()
            if attempt:
                self._count(op, "recovered")
            return result
        self._count(op, "exhausted")
        raise last

    # -- wire helpers --------------------------------------------------------

    def _blob_url(self, key: str) -> str:
        return f"{self.base}/blob/{urllib.parse.quote(validate_key(key))}"

    def _request(self, method: str, key: str, data: Optional[bytes] = None):
        request = urllib.request.Request(self._blob_url(key), data=data,
                                         method=method)
        if data is not None:
            request.add_header("Content-Type", "application/octet-stream")
        return urllib.request.urlopen(request, timeout=self.timeout_s)

    def _rpc(self, method: str, **params):
        """One JSON-RPC round trip to the service (management plane)."""
        self._next_id += 1
        body = json.dumps({"jsonrpc": "2.0", "id": self._next_id,
                           "method": method, "params": params}).encode()

        def attempt():
            request = urllib.request.Request(
                self.base + "/", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))

        payload = self._do("rpc", attempt)
        if "error" in payload:
            error = payload["error"] or {}
            raise StoreError(f"store RPC {method} failed: "
                             f"{error.get('message', 'unknown error')}")
        return payload.get("result")

    # -- blob data -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        def attempt():
            try:
                with self._request("GET", key) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return None
                raise
        return self._do("get", attempt)

    def put(self, key: str, data: Union[str, bytes]) -> None:
        payload = data.encode("utf-8") if isinstance(data, str) else data

        def attempt():
            with self._request("PUT", key, data=payload):
                pass
        self._do("put", attempt)

    def put_blob(self, key: str, writer: Callable) -> None:
        buffer = io.BytesIO()
        writer(buffer)
        self.put(key, buffer.getvalue())

    def delete(self, key: str) -> bool:
        def attempt():
            try:
                with self._request("DELETE", key):
                    return True
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return False
                raise
        return self._do("delete", attempt)

    def stat(self, key: str) -> Optional[BlobStat]:
        def attempt():
            try:
                with self._request("HEAD", key) as resp:
                    return BlobStat(
                        size=int(resp.headers.get("Content-Length", "0")),
                        mtime=float(resp.headers.get("X-Repro-Mtime", "0")))
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return None
                raise
        return self._do("stat", attempt)

    def list(self, prefix: str = "") -> List[str]:
        return self._rpc("store_list", prefix=prefix)["keys"]

    # -- connectivity --------------------------------------------------------

    def probe(self) -> Tuple[bool, str]:
        """One unretried liveness round trip (``GET /health``)."""
        try:
            request = urllib.request.Request(self.base + "/health")
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except Exception as exc:  # noqa: BLE001 — a probe reports, not raises
            return False, f"{type(exc).__name__}: {exc}"
        version = payload.get("version", "?")
        return True, f"repro serve {version} reachable"

    # -- integrity / quarantine ----------------------------------------------

    def quarantine(self, key: str, reason: str) -> Optional[str]:
        return self._rpc("store_quarantine", key=validate_key(key),
                         reason=reason)["quarantined"]

    def quarantine_inventory(self, namespace: str) -> Dict:
        return self._rpc("store_quarantine_inventory", namespace=namespace)

    def orphans(self, namespace: str) -> List[str]:
        return self._rpc("store_orphans", namespace=namespace)["orphans"]

    def remove_orphan(self, namespace: str, name: str) -> bool:
        return self._rpc("store_remove_orphan", namespace=namespace,
                         name=name)["removed"]

    def structural_check(self, namespace: str, fix: bool = False) -> List[str]:
        return self._rpc("store_structural_check", namespace=namespace,
                         fix=fix)["problems"]

    # -- garbage collection --------------------------------------------------

    def gc_log(self, namespace: str, entry: Dict) -> None:
        self._rpc("store_gc_log", namespace=namespace, entry=entry)

    def gc_manifest(self, namespace: str) -> List[Dict]:
        return self._rpc("store_gc_manifest", namespace=namespace)["entries"]

    # -- identity ------------------------------------------------------------

    def url(self) -> str:
        if self._url_timeout is not None:
            return f"{self.base}?timeout={self._url_timeout:g}"
        return self.base

"""JSON-RPC 2.0 over HTTP: the sweep service's wire protocol.

One endpoint (``POST /``) accepts JSON-RPC request objects::

    {"jsonrpc": "2.0", "id": 1, "method": "submit_sweep",
     "params": {"specs": [{"workload": "kmeans", "protocol": "mesi"}]}}

and answers ``{"jsonrpc": "2.0", "id": 1, "result": ...}`` or an error
object with the standard codes (parse error -32700, unknown method
-32601, invalid params -32602) plus two service codes: ``-32001`` job
not found, ``-32002`` invalid state transition (e.g. cancelling a
running job).  ``job_status`` takes an optional ``wait_s``: the handler
thread holds the reply until the job settles or ``wait_s`` (at most
:data:`MAX_WAIT_S`) passes, so a waiting client hears about completion
at once instead of on its next poll.  For operator convenience
``GET /health`` and ``GET /metrics`` return the same payloads as the
corresponding RPC methods, so a bare ``curl`` works as a liveness probe.

The service is also a shared **blob store**
(:class:`repro.store.HttpStore` is the client):

* ``GET/PUT/HEAD/DELETE /blob/<namespace>/<name>`` move raw payload
  bytes (results, packed traces) with no JSON framing — the data plane
  a fleet of sweep workers hammers;
* the ``store_*`` JSON-RPC methods (``store_list``,
  ``store_quarantine``, ``store_orphans``, ...) carry the management
  plane, so ``repro doctor --store http://...`` audits the remote tree
  exactly like a local one.

Keys are validated with :func:`repro.store.validate_key` before any
filesystem work, so a request can never escape the store root.

The server is the stdlib :class:`http.server.ThreadingHTTPServer` —
one thread per connection, no third-party dependency — and every
handler routes through the :data:`METHODS` registry, a plain name ->
``f(service, params) -> result`` table.  Registering a method is one
decorator; the registry is what ``repro.service.client`` mirrors.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional

from repro.common.errors import ReproError
from repro.store.base import StoreError, validate_key

# JSON-RPC 2.0 standard codes
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
# service codes
NOT_FOUND = -32001
INVALID_STATE = -32002

#: Longest a ``job_status`` long-poll (``wait_s``) holds its handler
#: thread; larger requests are clamped to it.
MAX_WAIT_S = 30.0


class ServiceError(ReproError):
    """An RPC-visible failure, carrying its JSON-RPC error code."""

    def __init__(self, message: str, code: int = INTERNAL_ERROR):
        super().__init__(message)
        self.code = code


#: The method registry: name -> handler(service, params) -> JSON result.
METHODS: Dict[str, Callable] = {}


def rpc_method(name: str):
    """Register a handler under ``name`` in the method registry."""
    def register(fn: Callable) -> Callable:
        METHODS[name] = fn
        return fn
    return register


def _require(params: Dict, key: str):
    if key not in params:
        raise ServiceError(f"missing required param {key!r}", INVALID_PARAMS)
    return params[key]


@rpc_method("submit_sweep")
def _submit_sweep(service, params: Dict) -> Dict:
    return service.submit(
        _require(params, "specs"),
        priority=params.get("priority", 0),
        ttl_s=params.get("ttl_s"),
    )


@rpc_method("job_status")
def _job_status(service, params: Dict) -> Dict:
    return service.job_status(_require(params, "job_id"),
                              wait_s=params.get("wait_s", 0))


@rpc_method("job_result")
def _job_result(service, params: Dict) -> Dict:
    return service.job_result(_require(params, "job_id"))


@rpc_method("cancel")
def _cancel(service, params: Dict) -> Dict:
    return service.cancel(_require(params, "job_id"))


@rpc_method("list_jobs")
def _list_jobs(service, params: Dict) -> Dict:
    return service.list_jobs(state=params.get("state"),
                             limit=params.get("limit", 0))


@rpc_method("health")
def _health(service, params: Dict) -> Dict:
    return service.health()


@rpc_method("metrics")
def _metrics(service, params: Dict) -> Dict:
    return service.metrics_dump()


# -- blob-store management plane (repro.store.HttpStore mirrors these) -------

def _store_key(params: Dict) -> str:
    try:
        return validate_key(_require(params, "key"))
    except StoreError as exc:
        raise ServiceError(str(exc), INVALID_PARAMS)


@rpc_method("store_list")
def _store_list(service, params: Dict) -> Dict:
    return {"keys": service.store.list(params.get("prefix", ""))}


@rpc_method("store_quarantine")
def _store_quarantine(service, params: Dict) -> Dict:
    return {"quarantined": service.store.quarantine(
        _store_key(params), params.get("reason", ""))}


@rpc_method("store_quarantine_inventory")
def _store_quarantine_inventory(service, params: Dict) -> Dict:
    return service.store.quarantine_inventory(_require(params, "namespace"))


@rpc_method("store_orphans")
def _store_orphans(service, params: Dict) -> Dict:
    return {"orphans": service.store.orphans(_require(params, "namespace"))}


@rpc_method("store_remove_orphan")
def _store_remove_orphan(service, params: Dict) -> Dict:
    return {"removed": service.store.remove_orphan(
        _require(params, "namespace"), _require(params, "name"))}


@rpc_method("store_structural_check")
def _store_structural_check(service, params: Dict) -> Dict:
    return {"problems": service.store.structural_check(
        _require(params, "namespace"), fix=bool(params.get("fix", False)))}


@rpc_method("store_gc_log")
def _store_gc_log(service, params: Dict) -> Dict:
    entry = _require(params, "entry")
    if not isinstance(entry, dict):
        raise ServiceError("'entry' must be an object", INVALID_PARAMS)
    service.store.gc_log(_require(params, "namespace"), entry)
    return {"ok": True}


@rpc_method("store_gc_manifest")
def _store_gc_manifest(service, params: Dict) -> Dict:
    return {"entries": service.store.gc_manifest(_require(params, "namespace"))}


def dispatch(service, request: Dict) -> Dict:
    """Execute one parsed JSON-RPC request object; returns the response."""
    request_id = request.get("id")
    response = {"jsonrpc": "2.0", "id": request_id}
    method = request.get("method")
    params = request.get("params", {})
    if not isinstance(method, str):
        response["error"] = {"code": INVALID_REQUEST,
                             "message": "request needs a string 'method'"}
        return response
    if not isinstance(params, dict):
        response["error"] = {"code": INVALID_PARAMS,
                             "message": "'params' must be an object"}
        return response
    handler = METHODS.get(method)
    if handler is None:
        response["error"] = {"code": METHOD_NOT_FOUND,
                             "message": f"unknown method {method!r} "
                                        f"(have {sorted(METHODS)})"}
        return response
    try:
        response["result"] = handler(service, params)
    except ServiceError as exc:
        response["error"] = {"code": exc.code, "message": str(exc)}
    except Exception as exc:  # noqa: BLE001 — a handler bug must come
        # back as a structured error, not a dropped connection.
        response["error"] = {"code": INTERNAL_ERROR,
                             "message": f"{type(exc).__name__}: {exc}"}
    return response


class RpcHandler(BaseHTTPRequestHandler):
    """One JSON-RPC request per POST; GET /health and /metrics mirrors."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    #: set by make_server
    service = None
    quiet = True

    def _send_json(self, payload: Dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- raw blob data plane (GET/PUT/HEAD/DELETE /blob/<key>) ---------------

    def _blob_key(self) -> Optional[str]:
        """The validated blob key of this request, or ``None`` after an
        error response has been sent."""
        key = urllib.parse.unquote(self.path[len("/blob/"):])
        try:
            return validate_key(key)
        except StoreError as exc:
            if self.command == "HEAD":
                self._send_headers_only(400)
            else:
                self._send_json({"error": {"code": INVALID_PARAMS,
                                           "message": str(exc)}}, status=400)
            return None

    def _send_headers_only(self, status: int,
                           headers: Optional[Dict] = None) -> None:
        """A body-less response (HEAD answers must not carry a body)."""
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if not headers or "Content-Length" not in headers:
            self.send_header("Content-Length", "0")
        self.end_headers()

    def _blob_request(self, method: str) -> None:
        key = self._blob_key()
        if key is None:
            return
        try:
            if method == "GET":
                data = self.service.blob_get(key)
                if data is None:
                    self._send_json({"error": {"code": NOT_FOUND,
                                               "message": f"no blob {key}"}},
                                    status=404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", "application/octet-stream")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            elif method == "HEAD":
                stat = self.service.blob_stat(key)
                if stat is None:
                    self._send_headers_only(404)
                    return
                self._send_headers_only(200, {
                    "Content-Type": "application/octet-stream",
                    "Content-Length": str(stat.size),
                    "X-Repro-Mtime": repr(stat.mtime),
                })
            elif method == "PUT":
                length = int(self.headers.get("Content-Length", "0"))
                data = self.rfile.read(length)
                self.service.blob_put(key, data)
                self._send_json({"ok": True, "key": key, "size": len(data)})
            elif method == "DELETE":
                removed = self.service.blob_delete(key)
                if not removed:
                    self._send_json({"error": {"code": NOT_FOUND,
                                               "message": f"no blob {key}"}},
                                    status=404)
                    return
                self._send_json({"ok": True, "key": key})
        except Exception as exc:  # noqa: BLE001 — a store fault must come
            # back as a structured error, not a dropped connection.
            if method == "HEAD":
                self._send_headers_only(500)
            else:
                self._send_json(
                    {"error": {"code": INTERNAL_ERROR,
                               "message": f"{type(exc).__name__}: {exc}"}},
                    status=500)

    def do_POST(self) -> None:  # noqa: N802 — http.server naming
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
            request = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json({"jsonrpc": "2.0", "id": None,
                             "error": {"code": PARSE_ERROR,
                                       "message": "body is not valid JSON"}})
            return
        if not isinstance(request, dict):
            self._send_json({"jsonrpc": "2.0", "id": None,
                             "error": {"code": INVALID_REQUEST,
                                       "message": "batch requests are not "
                                                  "supported"}})
            return
        self._send_json(dispatch(self.service, request))

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        if self.path.startswith("/blob/"):
            self._blob_request("GET")
            return
        name = self.path.rstrip("/").lstrip("/") or "health"
        if name not in ("health", "metrics"):
            self._send_json({"error": {"code": NOT_FOUND,
                                       "message": f"no such page /{name}"}},
                            status=404)
            return
        self._send_json(dispatch(self.service,
                                 {"jsonrpc": "2.0", "id": None,
                                  "method": name}).get("result", {}))

    def do_HEAD(self) -> None:  # noqa: N802 — http.server naming
        if self.path.startswith("/blob/"):
            self._blob_request("HEAD")
            return
        self._send_headers_only(404)

    def do_PUT(self) -> None:  # noqa: N802 — http.server naming
        if self.path.startswith("/blob/"):
            self._blob_request("PUT")
            return
        self._send_json({"error": {"code": NOT_FOUND,
                                   "message": "PUT is only for /blob/<key>"}},
                        status=404)

    def do_DELETE(self) -> None:  # noqa: N802 — http.server naming
        if self.path.startswith("/blob/"):
            self._blob_request("DELETE")
            return
        self._send_json({"error": {"code": NOT_FOUND,
                                   "message": "DELETE is only for "
                                              "/blob/<key>"}},
                        status=404)

    def log_message(self, fmt: str, *args) -> None:
        if not self.quiet:
            super().log_message(fmt, *args)


def make_server(service, host: str = "127.0.0.1", port: int = 0,
                quiet: bool = True) -> ThreadingHTTPServer:
    """A ready-to-run HTTP server bound to ``host:port`` (0: ephemeral).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` to stop.  The bound port is
    ``server.server_address[1]``.
    """
    handler = type("BoundRpcHandler", (RpcHandler,),
                   {"service": service, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server

"""End-to-end JSON-RPC over HTTP: the wire protocol and the full loop.

A real ``ThreadingHTTPServer`` on an ephemeral port, a real
``ServiceClient`` over ``urllib`` — the same path ``repro serve`` /
``repro submit`` take, minus the argv parsing.
"""

import json
import math
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro._version import package_version
from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.service import (
    METHODS,
    ServiceClient,
    ServiceError,
    SweepService,
    make_server,
)
from repro.service.jobs import JobState
from repro.service.rpc import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    INVALID_STATE,
    METHOD_NOT_FOUND,
    NOT_FOUND,
    PARSE_ERROR,
)
from repro.store import FsStore

SPECS = [RunSpec(workload="histogram", protocol=protocol,
                 cores=2, per_core=80, seed=0)
         for protocol in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_MW)]


class CountingClient(ServiceClient):
    """A client that records every RPC method it calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.methods = []

    def call(self, method, **params):
        self.methods.append(method)
        return super().call(method, **params)


def serving(service):
    """Serve ``service`` over HTTP on an ephemeral port in a thread;
    returns ``(server, url)``."""
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def live(tmp_path):
    """A running service + HTTP server + client, all torn down after."""
    engine = ExperimentEngine(jobs=1, cache=ResultCache(
        store=FsStore(tmp_path / "cache"), enabled=True))
    service = SweepService(state_dir=tmp_path / "state", engine=engine,
                           idle_poll_s=0.05).start()
    server, url = serving(service)
    try:
        yield service, CountingClient(url, timeout_s=30.0), url
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def rpc(url, body: bytes):
    """One raw POST; returns the parsed JSON response."""
    request = urllib.request.Request(
        url + "/", data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as resp:
        return json.loads(resp.read().decode("utf-8"))


class TestEndToEnd:
    def test_health_reports_version(self, live):
        _, client, _ = live
        health = client.health()
        assert health["ok"] is True
        assert health["version"] == package_version()
        assert health["dispatcher"] is True

    def test_sweep_matches_direct_api(self, live, tmp_path):
        _, client, _ = live
        remote = client.sweep(SPECS, timeout_s=120.0)
        with ExperimentEngine(jobs=1, cache=ResultCache(
                store=FsStore(tmp_path / "ref"),
                enabled=True)) as reference_engine:
            reference = reference_engine.run_many(SPECS)
        assert ({s.digest(): r.to_dict() for s, r in remote.items()} ==
                {s.digest(): r.to_dict() for s, r in reference.items()})

    def test_second_submission_is_a_pure_cache_hit(self, live):
        service, client, _ = live
        first = client.submit_sweep(SPECS)
        client.wait(first["job_id"], timeout_s=120.0)
        executed_after_first = service.engine.executed
        # Same sweep, reversed spec order: dedups onto the done job.
        again = client.submit_sweep(list(reversed(SPECS)))
        assert again["job_id"] == first["job_id"]
        assert again["deduped"] is True
        assert again["cached"] is True
        assert service.engine.executed == executed_after_first
        counters = client.metrics()["counters"]
        hits = [v for k, v in counters.items()
                if k.startswith("repro_service_cache_hits_total")]
        assert sum(hits) >= len(SPECS)

    def test_dict_specs_accepted(self, live):
        _, client, _ = live
        submitted = client.submit_sweep(
            [{"workload": "histogram", "protocol": "mesi",
              "cores": 2, "per_core": 80}])
        client.wait(submitted["job_id"], timeout_s=120.0)
        results = client.results(submitted["job_id"])
        (spec, result), = results.items()
        assert spec.workload == "histogram"
        assert result.traffic_bytes() > 0

    def test_cancel_then_status(self, live):
        service, client, _ = live
        service.dispatcher.stop()  # keep the job queued
        submitted = client.submit_sweep(SPECS)
        cancelled = client.cancel(submitted["job_id"])
        assert cancelled["state"] == "cancelled"
        assert client.job_status(submitted["job_id"])["state"] == "cancelled"

    def test_list_jobs(self, live):
        service, client, _ = live
        service.dispatcher.stop()
        submitted = client.submit_sweep(SPECS)
        jobs = client.list_jobs()
        assert [job["id"] for job in jobs] == [submitted["job_id"]]
        assert client.list_jobs(state="done") == []


class TestLongPoll:
    def test_wait_returns_when_the_job_does(self, live):
        _, client, _ = live
        submitted = client.submit_sweep(SPECS[:1])
        assert not submitted["cached"]
        start = time.monotonic()
        status = client.wait(submitted["job_id"], timeout_s=60.0,
                             poll_s=30.0)
        assert status["state"] == "done"
        assert time.monotonic() - start < 5.0
        assert client.methods.count("job_status") <= 2

    def test_cached_sweep_skips_the_status_call(self, live):
        _, client, _ = live
        client.sweep(SPECS[:1], timeout_s=60.0)
        client.methods.clear()
        client.sweep(SPECS[:1], timeout_s=60.0)
        assert client.methods == ["submit_sweep", "job_result"]

    @pytest.mark.parametrize("wait_s", [-1, -0.5, "1", True, False, None,
                                        math.nan, [1]])
    def test_bad_wait_s_rejected(self, live, wait_s):
        service, client, _ = live
        service.dispatcher.stop()
        submitted = client.submit_sweep(SPECS)
        with pytest.raises(ServiceError) as exc:
            client.call("job_status", job_id=submitted["job_id"],
                        wait_s=wait_s)
        assert exc.value.code == INVALID_PARAMS

    def test_wait_s_above_the_cap_is_clamped(self, live, monkeypatch):
        service, client, _ = live
        monkeypatch.setattr("repro.service.app.MAX_WAIT_S", 0.2)
        service.dispatcher.stop()  # keep the job queued
        submitted = client.submit_sweep(SPECS)
        start = time.monotonic()
        status = client.call("job_status", job_id=submitted["job_id"],
                             wait_s=1e9)
        assert status["state"] == "queued"
        assert 0.2 <= time.monotonic() - start < 5.0

    def test_cancel_wakes_a_long_poll(self, live):
        service, client, url = live
        service.dispatcher.stop()
        submitted = client.submit_sweep(SPECS)
        out = {}

        def long_poll():
            start = time.monotonic()
            out["status"] = ServiceClient(url, timeout_s=60.0).job_status(
                submitted["job_id"], wait_s=25.0)
            out["took"] = time.monotonic() - start

        thread = threading.Thread(target=long_poll, daemon=True)
        thread.start()
        time.sleep(0.2)
        client.cancel(submitted["job_id"])
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert out["status"]["state"] == "cancelled"
        assert out["took"] < 5.0

    def test_stop_releases_a_blocked_waiter(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(tmp_path / "cache"), enabled=True))
        service = SweepService(state_dir=tmp_path / "state", engine=engine)
        job_id = service.submit([s.payload() for s in SPECS])["job_id"]
        out = {}

        def blocked():
            start = time.monotonic()
            out["status"] = service.job_status(job_id, wait_s=30.0)
            out["took"] = time.monotonic() - start

        thread = threading.Thread(target=blocked, daemon=True)
        thread.start()
        time.sleep(0.2)
        service.stop()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert out["status"]["state"] == "queued"
        assert out["took"] < 5.0

    def test_ttl_expiry_seen_while_the_dispatcher_is_busy(self, tmp_path):
        # A stub engine holds job A; B's TTL runs out behind it.  The
        # long-poll on B must answer "expired" at B's expiry time, not
        # when A finishes and the dispatcher next looks at the queue.
        engine = ExperimentEngine(jobs=1, cache=ResultCache(
            store=FsStore(tmp_path / "cache"), enabled=True))
        running, release = threading.Event(), threading.Event()
        real_run_many = engine.run_many

        def blocking_run_many(specs):
            running.set()
            release.wait(60.0)
            return real_run_many(specs)

        engine.run_many = blocking_run_many
        service = SweepService(state_dir=tmp_path / "state", engine=engine,
                               idle_poll_s=0.05).start()
        server, url = serving(service)
        client = ServiceClient(url, timeout_s=30.0)
        try:
            first = client.submit_sweep(SPECS[:1])
            assert running.wait(30.0)
            second = client.submit_sweep(SPECS[1:], ttl_s=0.1)
            start = time.monotonic()
            with pytest.raises(ServiceError, match="expired"):
                client.wait(second["job_id"], timeout_s=5.0, poll_s=30.0)
            assert time.monotonic() - start < 2.0
            assert (service.queue.get(first["job_id"]).state
                    is JobState.RUNNING)
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.stop()

    def test_negative_poll_s_rejected(self):
        # A negative interval would long-poll for 0 s and never sleep.
        with pytest.raises(ValueError, match="poll_s"):
            ServiceClient("http://127.0.0.1:9").wait("0" * 16, poll_s=-1)

    def test_wait_never_spins_against_a_server_ignoring_wait_s(self):
        class OldService:
            """A server from before long-polling: answers at once."""

            def __init__(self):
                self.calls = 0

            def job_status(self, job_id, wait_s=0):
                self.calls += 1
                return {"state": "running", "completed": 0, "total": 1}

        old = OldService()
        server, url = serving(old)
        try:
            poll_s, timeout_s = 0.1, 1.0
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                ServiceClient(url).wait("0" * 16, timeout_s=timeout_s,
                                        poll_s=poll_s)
            took = time.monotonic() - start
        finally:
            server.shutdown()
            server.server_close()
        assert old.calls <= (math.ceil(1 / poll_s) + 2) * max(took, 1.0)


class TestJobLatencyHistogram:
    def test_one_fresh_job_records_its_milliseconds(self, live):
        _, client, _ = live
        client.sweep(SPECS[:1], timeout_s=60.0)
        histograms = client.metrics()["histograms"]
        assert "repro_service_job_seconds" not in histograms
        job_ms = histograms["repro_service_job_ms"]
        assert job_ms["count"] == 1
        assert job_ms["max"] > 0


class TestErrorPaths:
    def test_unknown_method(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError) as exc:
            client.call("explode")
        assert exc.value.code == METHOD_NOT_FOUND

    def test_missing_required_param(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError) as exc:
            client.call("job_status")
        assert exc.value.code == INVALID_PARAMS

    def test_unknown_job(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError) as exc:
            client.job_status("0000000000000000")
        assert exc.value.code == NOT_FOUND

    def test_result_of_unfinished_job_is_invalid_state(self, live):
        service, client, _ = live
        service.dispatcher.stop()
        submitted = client.submit_sweep(SPECS)
        with pytest.raises(ServiceError) as exc:
            client.job_result(submitted["job_id"])
        assert exc.value.code == INVALID_STATE

    def test_bad_specs_rejected_eagerly(self, live):
        _, client, _ = live
        for specs in ([],
                      [{"workload": "doom"}],
                      [{"workload": "histogram", "protocol": "moesi"}],
                      [{"workload": "histogram", "flux_capacitor": 1}]):
            with pytest.raises(ServiceError) as exc:
                client.submit_sweep(specs)
            assert exc.value.code == INVALID_PARAMS

    def test_duplicate_specs_rejected(self, live):
        _, client, _ = live
        with pytest.raises(ServiceError, match="duplicates") as exc:
            client.submit_sweep([SPECS[0], SPECS[0]])
        assert exc.value.code == INVALID_PARAMS

    def test_parse_error(self, live):
        _, _, url = live
        response = rpc(url, b"this is not json {")
        assert response["error"]["code"] == PARSE_ERROR

    def test_batch_requests_rejected(self, live):
        _, _, url = live
        response = rpc(url, json.dumps(
            [{"jsonrpc": "2.0", "id": 1, "method": "health"}]).encode())
        assert response["error"]["code"] == INVALID_REQUEST

    def test_non_string_method(self, live):
        _, _, url = live
        response = rpc(url, json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": 7}).encode())
        assert response["error"]["code"] == INVALID_REQUEST

    def test_params_must_be_object(self, live):
        _, _, url = live
        response = rpc(url, json.dumps(
            {"jsonrpc": "2.0", "id": 1, "method": "health",
             "params": [1, 2]}).encode())
        assert response["error"]["code"] == INVALID_PARAMS


class TestGetMirrors:
    def test_get_health(self, live):
        _, _, url = live
        with urllib.request.urlopen(url + "/health", timeout=30.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        assert payload["ok"] is True
        assert payload["version"] == package_version()

    def test_get_metrics(self, live):
        _, _, url = live
        with urllib.request.urlopen(url + "/metrics", timeout=30.0) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
        # The merged registry's wire form, and nothing synthetic beside it.
        assert set(payload) == {"counters", "histograms"}
        assert not any(key.startswith("repro_obs_")
                       for key in payload["counters"])

    def test_get_unknown_page_404(self, live):
        _, _, url = live
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(url + "/nope", timeout=30.0)
        # The error carries the open response: close its socket.
        with exc.value:
            assert exc.value.code == 404


class TestRegistry:
    def test_every_advertised_method_is_registered(self):
        assert set(METHODS) == {"submit_sweep", "job_status", "job_result",
                                "cancel", "list_jobs", "health", "metrics",
                                "store_list", "store_quarantine",
                                "store_quarantine_inventory", "store_orphans",
                                "store_remove_orphan",
                                "store_structural_check", "store_gc_log",
                                "store_gc_manifest"}

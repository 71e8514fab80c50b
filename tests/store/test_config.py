"""Store selection: URL parsing, configure_store, and get_store."""

import os

import pytest

from repro.obs.metrics import reset_process_registry
from repro.resilience.log import clear_events
from repro.store import (
    FsStore,
    HttpStore,
    StoreError,
    configure_store,
    get_store,
)
from repro.store.config import parse_store_url, store_url
from repro.store.http import DEFAULT_BREAKER_THRESHOLD

#: Nothing listens here (port 9 is discard; nobody binds it in tests).
DEAD_URL = "http://127.0.0.1:9"


class TestParseStoreUrl:
    def test_file_url(self, tmp_path):
        store = parse_store_url(f"file://{tmp_path}")
        assert isinstance(store, FsStore) and store.root == tmp_path

    def test_bare_path(self, tmp_path):
        store = parse_store_url(str(tmp_path))
        assert isinstance(store, FsStore) and store.root == tmp_path

    def test_path_object(self, tmp_path):
        store = parse_store_url(tmp_path)
        assert isinstance(store, FsStore) and store.root == tmp_path

    def test_http_url(self):
        store = parse_store_url("http://cache-host:8673")
        assert isinstance(store, HttpStore)
        assert store.url() == "http://cache-host:8673"

    def test_trailing_slash_stripped(self):
        assert parse_store_url("http://h:1/").url() == "http://h:1"

    @pytest.mark.parametrize("bad", ["", "   ", "file://", "s3://bucket"])
    def test_rejects(self, bad):
        with pytest.raises(StoreError):
            parse_store_url(bad)

    def test_round_trips_through_url(self, tmp_path):
        store = parse_store_url(f"file://{tmp_path}")
        again = parse_store_url(store_url(store))
        assert isinstance(again, FsStore) and again.root == store.root


class TestConfigureStore:
    def test_configure_exports_env_and_pins_instance(self, tmp_path):
        store = configure_store(tmp_path)
        assert os.environ["REPRO_STORE"] == f"file://{tmp_path}"
        assert get_store() is store

    def test_env_change_invalidates_configured_store(self, tmp_path):
        configure_store(tmp_path / "a")
        os.environ["REPRO_STORE"] = f"file://{tmp_path / 'b'}"
        resolved = get_store()
        assert isinstance(resolved, FsStore)
        assert resolved.root == tmp_path / "b"

    def test_configure_none_reverts_to_environment(self, tmp_path,
                                                   monkeypatch):
        configure_store(tmp_path)
        assert configure_store(None) is None
        assert "REPRO_STORE" not in os.environ
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "legacy"))
        resolved = get_store()
        assert isinstance(resolved, FsStore)
        assert resolved.root == tmp_path / "legacy"

    def test_repro_store_env_alone_resolves(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", f"file://{tmp_path / 'env'}")
        resolved = get_store()
        assert isinstance(resolved, FsStore)
        assert resolved.root == tmp_path / "env"

    def test_bad_url_raises_store_error(self):
        with pytest.raises(StoreError):
            configure_store("gopher://nope")


class TestOneStorePerProcess:
    """A store named only by the environment is built once per process."""

    def test_env_lookups_return_one_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", f"file://{tmp_path}")
        assert get_store() is get_store()
        monkeypatch.setenv("REPRO_STORE", DEAD_URL)
        assert get_store() is get_store()

    def test_tripped_breaker_stays_open_across_lookups(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_STORE", DEAD_URL)
        try:
            for _ in range(DEFAULT_BREAKER_THRESHOLD):
                with pytest.raises((OSError, StoreError)):
                    get_store().get(f"results/{'ab' * 32}.json")
            assert get_store().degraded
        finally:
            reset_process_registry()
            clear_events()

    def test_forked_child_builds_its_own_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", f"file://{tmp_path}")
        parent = get_store()
        pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 1
            try:
                child = get_store()
                code = 0 if (child is not parent and child is get_store()
                             and child.root == parent.root) else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert get_store() is parent


class TestPublicSurface:
    def test_store_names_exported_from_api_and_repro(self):
        import repro
        import repro.api as api

        for name in ("BlobStore", "FsStore", "HttpStore", "StoreError",
                     "configure_store", "get_store", "LeaseBoard"):
            assert hasattr(api, name), name
            assert hasattr(repro, name), name
            assert name in api.__all__
            assert name in repro.__all__

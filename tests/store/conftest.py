"""Store-suite isolation: no test leaks a configured store."""

import os

import pytest

import repro.store.config as store_config


@pytest.fixture(autouse=True)
def _per_test_trace_dir(tmp_path, monkeypatch):
    """Default trace roots resolve per-test, not to the shared session
    dir — a store test writing a garbage trace blob must not leak it
    into every later engine-backed test's cache."""
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))


@pytest.fixture(autouse=True)
def _clean_store_config():
    """Snapshot ``REPRO_STORE`` and the process's built stores."""
    saved_env = os.environ.get("REPRO_STORE")
    saved_built = dict(store_config._BUILT)
    yield
    store_config._BUILT.clear()
    store_config._BUILT.update(saved_built)
    if saved_env is None:
        os.environ.pop("REPRO_STORE", None)
    else:
        os.environ["REPRO_STORE"] = saved_env

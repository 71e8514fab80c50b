"""Trace-cache correctness: content addressing, degradation, hermeticity."""

import os

import pytest

import repro.trace._cache as trace_cache_mod
from repro.store import FsStore, default_trace_root
from repro.trace._cache import TraceCache, packed_streams, trace_digest
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams

RECIPE = dict(workload="kmeans", cores=4, per_core=80, seed=0)


class TestDigest:
    def test_digest_is_stable(self):
        assert trace_digest("kmeans", 4, 80, 0) == trace_digest("kmeans", 4, 80, 0)

    def test_digest_covers_every_axis(self):
        base = trace_digest("kmeans", 4, 80, 0)
        variants = {
            trace_digest("histogram", 4, 80, 0),
            trace_digest("kmeans", 8, 80, 0),
            trace_digest("kmeans", 4, 81, 0),
            trace_digest("kmeans", 4, 80, 1),
        }
        assert base not in variants
        assert len(variants) == 4

    def test_digest_covers_format_version(self, monkeypatch):
        before = trace_digest("kmeans", 4, 80, 0)
        monkeypatch.setattr("repro.trace._cache.FORMAT_VERSION", 999)
        assert trace_digest("kmeans", 4, 80, 0) != before


class TestCache:
    def test_build_then_hit(self, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path),
                           enabled=True)
        first = cache.get_or_build(**RECIPE)
        assert cache.built == 1 and cache.misses == 1 and cache.hits == 0
        second = cache.get_or_build(**RECIPE)
        assert cache.built == 1 and cache.hits == 1
        assert first == second
        assert first == PackedTrace.from_streams(
            build_streams(RECIPE["workload"], cores=RECIPE["cores"],
                          per_core=RECIPE["per_core"], seed=RECIPE["seed"]))

    def test_layout_fans_out_by_digest_prefix(self, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path),
                           enabled=True)
        cache.get_or_build(**RECIPE)
        digest = trace_digest(RECIPE["workload"], RECIPE["cores"],
                              RECIPE["per_core"], RECIPE["seed"])
        assert (tmp_path / digest[:2] / f"{digest}.bin").exists()

    def test_corrupt_entry_degrades_to_rebuild(self, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path),
                           enabled=True)
        good = cache.get_or_build(**RECIPE)
        path = cache.path_for(RECIPE["workload"], RECIPE["cores"],
                              RECIPE["per_core"], RECIPE["seed"])
        path.write_bytes(b"garbage, not a packed trace")
        rebuilt = cache.get_or_build(**RECIPE)
        assert cache.built == 2
        assert rebuilt == good
        # The rebuild repaired the entry on disk.
        assert PackedTrace.load(path) == good

    def test_truncated_entry_degrades_to_rebuild(self, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path),
                           enabled=True)
        good = cache.get_or_build(**RECIPE)
        path = cache.path_for(RECIPE["workload"], RECIPE["cores"],
                              RECIPE["per_core"], RECIPE["seed"])
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        assert cache.get_or_build(**RECIPE) == good
        assert cache.built == 2

    def test_empty_entry_degrades_to_rebuild(self, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path),
                           enabled=True)
        good = cache.get_or_build(**RECIPE)
        path = cache.path_for(RECIPE["workload"], RECIPE["cores"],
                              RECIPE["per_core"], RECIPE["seed"])
        path.write_bytes(b"")
        assert cache.get_or_build(**RECIPE) == good

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = TraceCache(store=FsStore(trace_root=tmp_path),
                           enabled=False)
        cache.get_or_build(**RECIPE)
        assert not any(tmp_path.iterdir())

    def test_repro_cache_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert TraceCache(store=FsStore(trace_root=tmp_path)).enabled is False

    def test_repro_trace_cache_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        assert TraceCache(store=FsStore(trace_root=tmp_path)).enabled is True
        monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
        monkeypatch.delenv("REPRO_CACHE")
        assert TraceCache(store=FsStore(trace_root=tmp_path)).enabled is False


class TestLocation:
    def test_env_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "t"))
        assert default_trace_root() == tmp_path / "t"

    def test_defaults_beside_result_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        assert default_trace_root() == tmp_path / "rc" / "traces"

    def test_suite_is_hermetic(self):
        """The autouse fixture must keep traces out of ~/.cache."""
        home = os.path.expanduser("~")
        assert not str(default_trace_root()).startswith(home + "/.cache")

    def test_packed_streams_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "mine"))
        trace = packed_streams(**RECIPE)
        assert trace.cores == RECIPE["cores"]
        assert any((tmp_path / "mine").rglob("*.bin"))

"""``repro doctor``: integrity audit verdicts and --fix behaviour.

The audit runs through the blob store; an :class:`FsStore` over the
local cache trees is the default route, so these scenarios drive it
directly and, at the end, through the CLI over a seeded fixture tree.
"""

import json
import os
import time

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.resilience.doctor import (
    check_result_store,
    check_trace_store,
    prune_store,
    run_doctor,
)
from repro.store import FsStore
from repro.store.fs import MISFILED, QUARANTINE_DIRNAME
from repro.trace._cache import TraceCache

SPEC = RunSpec(workload="histogram", protocol=ProtocolKind.MESI,
               cores=2, per_core=60, seed=0)
RECIPE = dict(workload="histogram", cores=2, per_core=60, seed=0)


@pytest.fixture()
def result_root(tmp_path):
    store = FsStore(tmp_path / "results", trace_root=tmp_path / "traces")
    with ExperimentEngine(jobs=1, cache=ResultCache(store=store,
                                                    enabled=True)) as engine:
        engine.run(SPEC)
    return store.root


@pytest.fixture()
def trace_root(tmp_path):
    store = FsStore(tmp_path / "results", trace_root=tmp_path / "traces")
    TraceCache(store=store, enabled=True).get_or_build(**RECIPE)
    return store.trace_root


def results_of(root, fix=False):
    return check_result_store(FsStore(root, trace_root=root / "traces"),
                              fix=fix)


def traces_of(trace_root, fix=False):
    return check_trace_store(FsStore(trace_root.parent / "results",
                                     trace_root=trace_root), fix=fix)


def verdict(checks):
    return all(check.ok for check in checks)


class TestResultCacheAudit:
    def test_healthy_cache_passes(self, result_root):
        assert verdict(results_of(result_root))

    def test_absent_cache_passes(self, tmp_path):
        assert verdict(results_of(tmp_path / "nowhere"))

    def test_corrupt_entry_fails(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad not json")
        assert not verdict(results_of(result_root))

    def test_fix_quarantines_corrupt_entry(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad not json")
        assert verdict(results_of(result_root, fix=True))
        assert not blob.exists()
        assert (result_root / QUARANTINE_DIRNAME / blob.name).exists()
        # A re-audit of the repaired cache is clean (quarantine listed).
        assert verdict(results_of(result_root))

    def test_misfiled_entry_fails(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        wrong = result_root / "zz"
        wrong.mkdir()
        blob.rename(wrong / blob.name)
        checks = results_of(result_root)
        failed = [check.name.rsplit(": ", 1)[1] for check in checks
                  if not check.ok]
        # Reported once, by the layout check — the entry walk lists only
        # blobs their key reaches.
        assert failed == ["layout"]

    def test_orphan_tmp_file_fails_and_fix_removes(self, result_root):
        orphan = result_root / "ab"
        orphan.mkdir(exist_ok=True)
        orphan = orphan / "tmpXYZ.tmp"
        orphan.write_bytes(b"half-written")
        assert not verdict(results_of(result_root))
        assert verdict(results_of(result_root, fix=True))
        assert not orphan.exists()

    def test_excluded_subtree_not_scanned(self, result_root):
        """A trace tree nested under the result root belongs to the trace
        audit: its temp files never count as result orphans."""
        leftover = result_root / "traces" / "ab" / "leftover.tmp"
        leftover.parent.mkdir(parents=True)
        leftover.write_bytes(b"x")
        assert verdict(results_of(result_root))
        assert not verdict(traces_of(result_root / "traces"))


class TestTraceCacheAudit:
    def test_healthy_cache_passes(self, trace_root):
        assert verdict(traces_of(trace_root))

    def test_corrupt_trace_fails(self, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(b"\xde\xad\xbe\xef")
        assert not verdict(traces_of(trace_root))

    def test_truncated_trace_fails(self, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(blob.read_bytes()[:10])
        assert not verdict(traces_of(trace_root))

    def test_fix_quarantines_corrupt_trace(self, trace_root):
        blob = next(trace_root.glob("??/*.bin"))
        blob.write_bytes(b"\xde\xad\xbe\xef")
        assert verdict(traces_of(trace_root, fix=True))
        assert not blob.exists()
        assert (trace_root / QUARANTINE_DIRNAME / blob.name).exists()


class TestRunDoctor:
    def test_full_report_renders(self, result_root, trace_root):
        report = run_doctor(FsStore(result_root, trace_root=trace_root))
        assert report.ok
        rendered = report.render()
        assert "[PASS]" in rendered and "[FAIL]" not in rendered
        assert "all checks passed" in rendered

    def test_problem_flips_verdict_and_warns(self, result_root, trace_root):
        from repro.obs.metrics import process_registry

        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"\xde\xad")
        report = run_doctor(FsStore(result_root, trace_root=trace_root))
        assert not report.ok
        assert "PROBLEMS FOUND" in report.render()
        assert any("doctor-problems" in key
                   for key in process_registry().counters())

    def test_nested_default_layout_no_double_report(self, result_root):
        """The default trace cache nests under the result root; its temp
        files must be attributed to the trace audit only."""
        store = FsStore(result_root, trace_root=result_root / "traces")
        TraceCache(store=store, enabled=True).get_or_build(**RECIPE)
        fanout = next(store.trace_root.glob("??"))
        (fanout / "leftover.tmp").write_bytes(b"x")
        report = run_doctor(store)
        failing = [check.name for check in report.checks if not check.ok]
        assert failing == [f"trace store {store.url()}: orphaned temp files"]


class TestPrune:
    """--prune-older-than: manifest-logged GC that never touches quarantine."""

    def _age(self, path, days):
        old = time.time() - days * 86400
        os.utime(path, (old, old))

    def _prune(self, root, days=7.0):
        store = FsStore(root, trace_root=root / "traces")
        return store, prune_store(store, "results", ".json", days,
                                  "result cache")

    def test_old_entry_evicted_and_manifest_logged(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=10)
        store, check = self._prune(result_root)
        assert check.ok
        assert not blob.exists()
        (entry,) = store.gc_manifest("results")
        assert entry["file"] == f"{blob.parent.name}/{blob.name}"
        assert entry["age_days"] > 7
        # The emptied fan-out directory is gone too.
        assert not blob.parent.exists()

    def test_fresh_entry_kept(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        store, check = self._prune(result_root)
        assert check.ok
        assert blob.exists()
        assert store.gc_manifest("results") == []

    def test_quarantine_never_pruned(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        blob.write_bytes(b"junk")
        store = FsStore(result_root, trace_root=result_root / "traces")
        name = store.quarantine(f"results/{blob.name}", "test damage")
        quarantined = result_root / QUARANTINE_DIRNAME / name
        self._age(quarantined, days=100)
        self._prune(result_root)
        assert quarantined.exists()

    def test_absent_cache_is_fine(self, tmp_path):
        _, check = self._prune(tmp_path / "nowhere")
        assert check.ok

    def test_run_doctor_prunes_then_audits_clean(self, result_root,
                                                 trace_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=30)
        report = run_doctor(FsStore(result_root, trace_root=trace_root),
                            prune_older_than_days=7.0)
        assert report.ok
        assert not blob.exists()
        rendered = report.render()
        assert "GC (older than 7 day(s))" in rendered
        assert "1 entr(ies) evicted" in rendered

    def test_run_doctor_without_flag_never_prunes(self, result_root,
                                                  trace_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=3650)
        report = run_doctor(FsStore(result_root, trace_root=trace_root))
        assert report.ok
        assert blob.exists()
        assert "GC" not in report.render()

    def test_gc_manifest_never_audited_as_orphan(self, result_root):
        blob = next(result_root.glob("??/*.json"))
        self._age(blob, days=10)
        self._prune(result_root)
        assert verdict(results_of(result_root))


# -- the CLI over a seeded fixture tree ---------------------------------------

SPECS = [RunSpec(workload="histogram", protocol=kind, cores=2, per_core=60,
                 seed=0)
         for kind in (ProtocolKind.MESI, ProtocolKind.PROTOZOA_SW,
                      ProtocolKind.PROTOZOA_MW)]


def snapshot(root):
    """``{relative path: bytes}`` of every file under ``root``."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def sections(output):
    """``{check name: (passed, detail lines)}`` of a rendered report."""
    found, current = {}, None
    for line in output.splitlines():
        if line.startswith("[PASS] ") or line.startswith("[FAIL] "):
            current = line[7:]
            found[current] = (line.startswith("[PASS]"), [])
        elif line.startswith("    ") and current is not None:
            found[current][1].append(line.strip())
    return found


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A cache root seeded with every defect the audit knows, beside the
    service and lease state that is not the store's to touch.

    ``REPRO_TRACE_CACHE_DIR`` is unset, so the root's own ``traces/`` is
    the trace tree, as in a default deployment.
    """
    import repro.store.config as store_config

    monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
    # `--store` exports REPRO_STORE and keeps the store it built; both
    # are restored at teardown so later tests resolve their own stores.
    monkeypatch.setenv("REPRO_STORE", "")
    monkeypatch.setattr(store_config, "_BUILT", {})
    root = tmp_path / "cache"
    store = FsStore(root)
    with ExperimentEngine(jobs=1, cache=ResultCache(store=store,
                                                    enabled=True)) as engine:
        engine.run_many(SPECS)
    traces = TraceCache(store=store, enabled=True)
    traces.get_or_build(**RECIPE)
    traces.get_or_build(**dict(RECIPE, seed=1))
    corrupt, good, misfiled = (store.local_path(ResultCache.key_for(spec))
                               for spec in SPECS)
    good_trace = store.local_path(TraceCache.key_for(**RECIPE))
    truncated = store.local_path(TraceCache.key_for(**dict(RECIPE, seed=1)))

    corrupt.write_bytes(b"\xde\xad not json")
    truncated.write_bytes(truncated.read_bytes()[:10])
    (root / "zz").mkdir()
    misfiled = misfiled.rename(root / "zz" / misfiled.name)
    result_orphan = good.parent / "tmpRESULT.tmp"
    result_orphan.write_bytes(b"half-written")
    trace_orphan = good_trace.parent / "tmpTRACE.tmp"
    trace_orphan.write_bytes(b"half-written")
    quarantine = root / QUARANTINE_DIRNAME
    quarantine.mkdir()
    (quarantine / "old.json").write_bytes(b"earlier damage")
    (quarantine / "MANIFEST.jsonl").write_text(json.dumps(
        {"file": "old.json", "from": "x", "reason": "seeded damage",
         "pid": 1}) + "\n")
    (root / "service" / "journals").mkdir(parents=True)
    (root / "service" / "queue.jsonl").write_text('{"event": "submit"}\n')
    (root / "service" / "journals" / "job-1.jsonl").write_text("{}\n")
    leases = root / "journal.jsonl.leases"
    leases.mkdir()
    (leases / f"{SPECS[0].digest()}.lease").write_text('{"owner": "w1"}')
    return dict(root=root, corrupt=corrupt, good=good, misfiled=misfiled,
                good_trace=good_trace, truncated=truncated,
                result_orphan=result_orphan, trace_orphan=trace_orphan)


@pytest.fixture(params=["cache-dir", "store"])
def doctor(request, tree):
    """``repro doctor`` through each front door onto the same tree."""
    from repro.cli import main

    where = (["--cache-dir", str(tree["root"])]
             if request.param == "cache-dir"
             else ["--store", f"file://{tree['root']}"])
    return lambda *extra: main(["doctor", *where, *extra])


class TestDoctorFixtureTree:
    def _others(self, root):
        return {name: data for name, data in snapshot(root).items()
                if name.startswith(("service/", "journal.jsonl.leases/"))}

    def test_audit_names_every_defect(self, tree, doctor, capsys):
        assert doctor() == 1
        found = sections(capsys.readouterr().out)
        url = f"file://{tree['root']}"
        failed = {name: lines for name, (ok, lines) in found.items()
                  if not ok}
        expected = {
            f"result store {url}: entry integrity": tree["corrupt"].name,
            f"result store {url}: layout": tree["misfiled"].name,
            f"result store {url}: orphaned temp files":
                tree["result_orphan"].name,
            f"trace store {url}: packed-trace integrity":
                tree["truncated"].name,
            f"trace store {url}: orphaned temp files":
                tree["trace_orphan"].name,
        }
        assert set(failed) == set(expected)
        for name, defect in expected.items():
            assert any(defect in line for line in failed[name]), name
        assert found[f"result store {url}: quarantine inventory"][1][0] == \
            "1 quarantined blob(s), 1 manifest entr(ies)"

    def test_fix_quarantines_removes_and_spares_other_state(self, tree,
                                                            doctor):
        root = tree["root"]
        others = self._others(root)
        assert doctor("--fix") == 0
        assert self._others(root) == others
        store = FsStore(root)
        results = store.quarantine_inventory("results")
        assert set(results["files"]) == {
            "old.json", tree["corrupt"].name, tree["misfiled"].name}
        traces = store.quarantine_inventory("traces")
        assert traces["files"] == [tree["truncated"].name]
        reasons = {entry["file"]: entry["reason"]
                   for entry in results["manifest"] + traces["manifest"]}
        assert reasons[tree["misfiled"].name] == MISFILED
        for name, reason in reasons.items():
            assert not reason.startswith(name), reason
        assert not tree["result_orphan"].exists()
        assert not tree["trace_orphan"].exists()
        assert doctor() == 0

    def test_prune_older_than_logs_each_eviction(self, tree, doctor):
        root = tree["root"]
        assert doctor("--fix") == 0
        others = self._others(root)
        aged = {}
        for path in (tree["good"], tree["good_trace"]):
            old = time.time() - 40 * 86400
            os.utime(path, (old, old))
            aged[path.name] = path.stat()
        assert doctor("--prune-older-than", "30") == 0
        store = FsStore(root)
        logged = store.gc_manifest("results") + store.gc_manifest("traces")
        assert sorted(entry["file"] for entry in logged) == sorted(
            f"{name[:2]}/{name}" for name in aged)
        for entry in logged:
            st = aged[entry["file"].split("/", 1)[1]]
            assert set(entry) == {"file", "bytes", "mtime", "age_days",
                                  "pruned_at", "pid"}
            assert (entry["bytes"], entry["mtime"]) == (st.st_size,
                                                        st.st_mtime)
            assert 39.9 < entry["age_days"] < 40.1
        assert not tree["good"].exists() and not tree["good_trace"].exists()
        assert self._others(root) == others
        assert (root / QUARANTINE_DIRNAME / "old.json").exists()

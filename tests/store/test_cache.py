"""The one read policy both caches share, and the doctor that audits
through it: the same decode judges a blob damaged on a read and in
``repro doctor``, and a blob another reader quarantined first is not a
failed quarantine."""

import pytest

from repro.common.params import ProtocolKind
from repro.experiments._engine import ExperimentEngine, ResultCache, RunSpec
from repro.resilience.doctor import check_result_store, check_trace_store
from repro.resilience.faults import MODE_GARBAGE, MODE_TRUNCATE, corrupt_file
from repro.resilience.log import clear_events, recent_events
from repro.store import BlobStore, FsStore
from repro.trace._cache import TraceCache

SPECS = [RunSpec(workload="histogram", protocol=ProtocolKind.MESI, cores=2,
                 per_core=40, seed=seed) for seed in (0, 1)]
TRACES = [("histogram", 2, 40, seed) for seed in (0, 1)]


def seeded(tmp_path, namespace):
    """``(store, cache class, recipes, audit)`` with two healthy blobs."""
    fs = FsStore(tmp_path / "results", trace_root=tmp_path / "traces")
    if namespace == "results":
        with ExperimentEngine(jobs=1, cache=ResultCache(
                store=fs, enabled=True)) as engine:
            engine.run_many(SPECS)
        return fs, ResultCache, [(spec,) for spec in SPECS], \
            check_result_store
    cache = TraceCache(store=fs, enabled=True)
    for recipe in TRACES:
        cache.get_or_build(*recipe)
    return fs, TraceCache, TRACES, check_trace_store


def twin(fs):
    """A second store over the same tree, as another process sees it."""
    return FsStore(fs.root, trace_root=fs.trace_root)


class NoLocalPath(BlobStore):
    """A store with no local paths (what ``HttpStore`` is to a client)
    over an ``FsStore`` tree."""

    def __init__(self, inner):
        self.inner = inner

    def get(self, key):
        return self.inner.get(key)

    def list(self, prefix=""):
        return self.inner.list(prefix)

    def quarantine(self, key, reason):
        return self.inner.quarantine(key, reason)

    def quarantine_inventory(self, namespace):
        return self.inner.quarantine_inventory(namespace)

    def orphans(self, namespace):
        return self.inner.orphans(namespace)

    def url(self):
        return f"stub+{self.inner.url()}"


@pytest.mark.parametrize("local", [True, False], ids=["fs", "no-local-path"])
@pytest.mark.parametrize("mode", [MODE_GARBAGE, MODE_TRUNCATE],
                         ids=["garbage", "truncate"])
@pytest.mark.parametrize("namespace", ["results", "traces"])
def test_cache_read_and_doctor_flag_the_same_blobs(tmp_path, namespace,
                                                   mode, local):
    fs, cache_cls, recipes, audit = seeded(tmp_path, namespace)
    damaged = cache_cls.key_for(*recipes[0]).split("/", 1)[1]
    assert corrupt_file(fs.local_path(cache_cls.key_for(*recipes[0])), mode)
    store = fs if local else NoLocalPath(fs)

    entries = audit(store)[0]
    problems = dict(line.split(": ", 1) for line in entries.details
                    if not line.endswith("entries verified"))
    assert not entries.ok and set(problems) == {damaged}
    assert entries.details[-1] == f"1/{len(recipes)} entries verified"

    cache = cache_cls(store=store, enabled=True)
    missed = {cache.key_for(*recipe).split("/", 1)[1]
              for recipe in recipes if cache.get(*recipe) is None}
    assert missed == {damaged}
    assert (cache.quarantined, cache.hits) == (1, len(recipes) - 1)
    # One reason text for both judges, and nothing left to flag.
    (entry,) = fs.quarantine_inventory(namespace)["manifest"]
    assert entry["reason"] == problems[damaged]
    assert audit(store)[0].ok


@pytest.mark.parametrize("namespace", ["results", "traces"])
def test_second_reader_finds_blob_already_quarantined(tmp_path, namespace,
                                                      monkeypatch):
    fs, cache_cls, recipes, _ = seeded(tmp_path, namespace)
    key = cache_cls.key_for(*recipes[0])
    corrupt_file(fs.local_path(key))
    first = cache_cls(store=twin(fs), enabled=True)
    second_store = twin(fs)
    second = cache_cls(store=second_store, enabled=True)
    quarantine = second_store.quarantine

    def after_the_first_reader(key, reason):
        # Both readers judged the blob damaged; the first moves it
        # before the second's move.
        assert first.get(*recipes[0]) is None
        return quarantine(key, reason)

    monkeypatch.setattr(second_store, "quarantine", after_the_first_reader)
    clear_events()
    assert second.get(*recipes[0]) is None
    name = key.split("/", 1)[1]
    assert [event["quarantined"] for event in recent_events()
            if event["event"] == cache_cls.event] == [name, "ALREADY"]
    assert first.quarantined == second.quarantined == 1
    assert fs.quarantine_inventory(namespace)["files"] == [name]


def test_doctor_fix_passes_a_blob_moved_before_its_quarantine(tmp_path,
                                                              monkeypatch):
    fs, cache_cls, recipes, audit = seeded(tmp_path, "results")
    key = cache_cls.key_for(*recipes[0])
    corrupt_file(fs.local_path(key))
    quarantine = fs.quarantine

    def after_a_cache_read(key, reason):
        # A sweep's read quarantines the blob between the audit's
        # decode and its move.
        assert cache_cls(store=twin(fs), enabled=True).get(
            *recipes[0]) is None
        return quarantine(key, reason)

    monkeypatch.setattr(fs, "quarantine", after_a_cache_read)
    entries = audit(fs, fix=True)[0]
    assert entries.ok
    assert any(line.endswith("-> already quarantined")
               for line in entries.details)

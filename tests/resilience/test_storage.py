"""Durable writes and quarantine: crash-atomicity and never-delete."""

import json

import pytest

from repro.resilience.storage import JsonlLog, durable_replace
from repro.store import FsStore
from repro.store.fs import QUARANTINE_DIRNAME, QUARANTINE_MANIFEST


class TestDurableReplace:
    def test_text_write(self, tmp_path):
        path = tmp_path / "a" / "entry.json"
        durable_replace(path, '{"x": 1}')
        assert json.loads(path.read_text()) == {"x": 1}

    def test_binary_write(self, tmp_path):
        path = tmp_path / "entry.bin"
        durable_replace(path, b"\x00\x01\x02", binary=True)
        assert path.read_bytes() == b"\x00\x01\x02"

    def test_writer_callable(self, tmp_path):
        path = tmp_path / "entry.bin"
        durable_replace(path, lambda fh: fh.write(b"streamed"), binary=True)
        assert path.read_bytes() == b"streamed"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "entry.json"
        durable_replace(path, "old")
        durable_replace(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        durable_replace(tmp_path / "entry.json", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_failed_writer_cleans_temp_and_keeps_old(self, tmp_path):
        path = tmp_path / "entry.bin"
        durable_replace(path, b"good", binary=True)

        def exploding_writer(fh):
            fh.write(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            durable_replace(path, exploding_writer, binary=True)
        assert path.read_bytes() == b"good"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]


class TestQuarantine:
    """Corruption is moved aside by the store, never deleted."""

    KEY = "results/abcd.json"

    def test_moves_blob_and_records_manifest(self, tmp_path):
        store = FsStore(tmp_path / "cache")
        store.put(self.KEY, b"corrupt!")
        blob = store.local_path(self.KEY)
        assert store.quarantine(self.KEY, "does not parse") == "abcd.json"
        target = tmp_path / "cache" / QUARANTINE_DIRNAME / "abcd.json"
        assert target.read_bytes() == b"corrupt!"  # evidence preserved
        assert not blob.exists()
        (entry,) = store.quarantine_inventory("results")["manifest"]
        assert entry["file"] == "abcd.json"
        assert entry["reason"] == "does not parse"
        assert entry["from"] == str(blob)

    def test_name_collisions_get_suffixes(self, tmp_path):
        store = FsStore(tmp_path / "cache")
        for expected in ("abcd.json", "abcd.json.1", "abcd.json.2"):
            store.put(self.KEY, b"bad")
            assert store.quarantine(self.KEY, "again") == expected
        assert len(store.quarantine_inventory("results")["manifest"]) == 3

    def test_missing_blob_is_already_gone(self, tmp_path):
        """No blob at the key (another reader moved it first, or it was
        evicted): ``""``, which no caller treats as a failed move."""
        assert FsStore(tmp_path).quarantine(self.KEY, "?") == ""

    def test_failed_move_leaves_blob_and_returns_none(self, tmp_path):
        store = FsStore(tmp_path / "cache")
        store.put(self.KEY, b"bad")
        (tmp_path / "cache" / QUARANTINE_DIRNAME).write_bytes(b"in the way")
        assert store.quarantine(self.KEY, "?") is None
        assert store.get(self.KEY) == b"bad"  # still at its key

    def test_manifest_tolerates_torn_final_line(self, tmp_path):
        store = FsStore(tmp_path / "cache")
        store.put(self.KEY, b"bad")
        store.quarantine(self.KEY, "reason")
        manifest = (tmp_path / "cache" / QUARANTINE_DIRNAME
                    / QUARANTINE_MANIFEST)
        with open(manifest, "a") as fh:
            fh.write('{"file": "torn')  # killed mid-append
        assert len(store.quarantine_inventory("results")["manifest"]) == 1

    def test_no_manifest_means_empty(self, tmp_path):
        assert FsStore(tmp_path / "nowhere").quarantine_inventory(
            "results") == {"files": [], "manifest": []}


class TestJsonlLog:
    """The one append and reader behind the sweep journal, the service
    queue and the store's manifests."""

    def test_append_writes_sorted_key_lines(self, tmp_path):
        path = tmp_path / "deep" / "log.jsonl"
        with JsonlLog(path) as log:
            log.append({"b": 2, "a": 1})
            log.append({"z": [1]})
        assert path.read_text() == '{"a": 1, "b": 2}\n{"z": [1]}\n'

    def test_torn_undecodable_lines_and_offset_resume(self, tmp_path):
        path = tmp_path / "log.jsonl"
        writer = JsonlLog(path)
        writer.append({"n": 1})
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad not json\n[1, 2]\n")  # damage: skipped
        writer.append({"n": 2})
        reader = JsonlLog(path)
        entries, offset = reader.read()
        assert entries == [{"n": 1}, {"n": 2}]
        assert offset == path.stat().st_size

        # A concurrent writer is mid-append: the torn line stays unread.
        with open(path, "ab") as fh:
            fh.write(b'{"n": 3')
        assert reader.read(offset) == ([], offset)
        with open(path, "ab") as fh:
            fh.write(b'}\n')  # ... and finishes it
        writer.append({"n": 4})
        entries, end = reader.read(offset)
        assert entries == [{"n": 3}, {"n": 4}]
        assert reader.read(end) == ([], end)
        writer.close()

    def test_missing_file_reads_empty(self, tmp_path):
        assert JsonlLog(tmp_path / "absent.jsonl").read(7) == ([], 7)

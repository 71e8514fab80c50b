"""Durable writes for the on-disk caches and the service's state.

Two disciplines, each written once:

* :func:`durable_replace` installs a whole file.  It writes through a
  same-directory temp file, fsyncs the data before the atomic rename,
  and fsyncs the directory after it — so after a crash either the old
  bytes or the new bytes are on disk, never a prefix.
* :class:`JsonlLog` appends to a log.  Each :meth:`JsonlLog.append`
  writes one sorted-key JSON line in a single write, then flushes and
  fsyncs, so a kill loses at most a torn final line;
  :meth:`JsonlLog.read` returns whole lines from a byte offset and
  skips any it cannot decode.  The sweep journal, the service's job
  queue and the store's quarantine and GC manifests are all this log.

(The other half of the caches' contract — corruption moves into
``quarantine/``, never deleted — lives with the layout it guards, in
:mod:`repro.store.fs`.)
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple


def fsync_directory(path) -> None:
    """Persist a directory entry (rename durability); best-effort."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def durable_replace(path: Path, data, binary: bool = False) -> None:
    """Atomically and durably install ``data`` at ``path``.

    Temp file in the *same directory* (rename must not cross a
    filesystem), fsync of the file before ``os.replace``, fsync of the
    directory after — the sequence that makes the write crash-atomic.
    ``data`` is ``str`` (text mode) or ``bytes``/a writer callable
    (binary mode).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)  # atomic on POSIX
        fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class JsonlLog:
    """An append-only JSONL file (see module docstring).

    The append handle opens on first use and stays open until
    :meth:`close`; the file is opened in append mode, so each line is
    one ``O_APPEND`` write and lines from concurrent processes never
    interleave.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None

    def append(self, entry: Dict) -> None:
        """Durably append one entry: one line, flushed and fsync'd."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def read(self, offset: int = 0) -> Tuple[List[Dict], int]:
        """``(entries, end)``: the JSON objects on the whole lines past
        ``offset``, and the offset just past the last whole line.

        A final line with no newline yet (torn, or still being written)
        is left for the next read from ``end``; a whole line that does
        not decode to a JSON object (damage from a killed writer) is
        skipped.  A missing file reads as empty.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return [], offset
        end = data.rfind(b"\n") + 1
        entries = []
        for line in data[:end].splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
        return entries, offset + end

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

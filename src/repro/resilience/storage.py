"""Durable writes for the on-disk caches and the service's state.

A mid-write kill can never leave a half-written file:
:func:`durable_replace` writes through a same-directory temp file,
fsyncs the data before the atomic rename, and fsyncs the directory
after it — so after a crash either the old bytes or the new bytes are
on disk, never a prefix.  (The other half of the caches' contract —
corruption moves into ``quarantine/``, never deleted — lives with the
layout it guards, in :mod:`repro.store.fs`.)
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


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

"""The sweep journal: crash-safe record of completed run specs.

One JSONL line per completed :class:`~repro.experiments._engine.RunSpec`
(its digest plus the human-readable payload), appended through the
fsync'd :class:`~repro.resilience.storage.JsonlLog` the moment the
result lands.  If the sweeping process is killed — SIGKILL included —
the journal survives with at worst one torn final line, which the
loader tolerates; re-running with ``--resume`` loads the completed set
so only uncompleted specs replay (their results are also in the result
cache, so the resumed sweep serves them as hits and the report comes
out identical).

The journal is *append-only* and idempotent: recording an
already-recorded digest is a no-op, so resumed sweeps never duplicate
lines.

Several worker processes may append to one journal concurrently (the
multi-host sweep mode in :mod:`repro.experiments._engine` pairs the
journal with a :class:`~repro.resilience.lease.LeaseBoard`): each line
is a single small O_APPEND write, so lines from different workers never
interleave, and :meth:`SweepJournal.refresh` picks up teammates' newly
appended completions by re-reading only the bytes past the last offset
this process consumed — whole lines only, so a torn tail is simply left
for the next refresh.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Optional, Set

from repro.resilience.storage import JsonlLog


class SweepJournal:
    """Append-only JSONL journal of completed spec digests."""

    def __init__(self, path):
        self.path = Path(path)
        self._log = JsonlLog(self.path)
        self._completed: Set[str] = set()
        self._offset = 0       # bytes of the file already consumed
        self.recorded = 0      # lines appended by this process
        self.resumed = 0       # digests loaded from a pre-existing file
        self._consume_new()
        self.resumed = len(self._completed)

    def _consume_new(self) -> int:
        """Absorb complete lines appended past our offset; returns how
        many digests were new to this process."""
        entries, self._offset = self._log.read(self._offset)
        fresh = 0
        for entry in entries:
            digest = entry.get("digest")
            if isinstance(digest, str) and digest not in self._completed:
                self._completed.add(digest)
                fresh += 1
        return fresh

    def refresh(self) -> int:
        """Pick up completions other processes appended since the last
        read; returns the number of newly visible digests."""
        return self._consume_new()

    # -- querying ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, digest: str) -> bool:
        return digest in self._completed

    def completed(self) -> FrozenSet[str]:
        return frozenset(self._completed)

    # -- recording -----------------------------------------------------------

    def record(self, digest: str, payload: Optional[Dict] = None) -> bool:
        """Durably append one completion; no-op if already journaled."""
        if digest in self._completed:
            return False
        entry = {"digest": digest}
        if payload is not None:
            entry["spec"] = payload
        self._log.append(entry)
        self._completed.add(digest)
        self.recorded += 1
        return True

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SweepJournal({str(self.path)!r}, completed={len(self)}, "
                f"recorded={self.recorded})")

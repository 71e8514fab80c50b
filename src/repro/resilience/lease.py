"""Work-division leases: O_EXCL claim files with TTL'd takeover.

Many ``repro report --journal`` processes pointed at the same journal
divide one sweep matrix between them with no coordinator process — the
filesystem *is* the coordinator, exactly like the fault-token budgets in
:mod:`repro.resilience.faults`:

* **claim** — one ``<digest>.lease`` file per run spec, created with
  ``O_CREAT | O_EXCL``; the atomicity of that open is the whole mutual
  exclusion story, so exactly one racing worker wins each spec;
* **release** — the winner computes the spec, publishes the result to
  the shared store, journals the completion (in that order — a journal
  line *implies* the blob is fetchable), then unlinks its lease;
* **takeover** — a SIGKILL'd worker leaves its lease behind.  Any
  worker finding a lease older than the TTL (``REPRO_LEASE_TTL``,
  default 300 s) renames it aside — ``os.replace`` of an existing path
  succeeds for exactly one racer — and claims afresh.

A lease is never refreshed, so a live holder slower than the TTL is
taken over too.  That is safe, just wasteful: runs are deterministic
and blob writes atomic, so both workers publish identical bytes.  The
guarantee the tests pin is claim-exactly-once per race and
byte-identical final matrices, not zero duplicate work.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Dict, Optional, Set

#: Default seconds before a lease is presumed dead.
DEFAULT_TTL_S = 300.0


def default_lease_ttl() -> float:
    env = os.environ.get("REPRO_LEASE_TTL", "")
    if env:
        try:
            return max(0.0, float(env))
        except ValueError:
            pass
    return DEFAULT_TTL_S


def lease_dir_for(journal_path) -> Path:
    """The lease directory paired with one sweep journal."""
    return Path(str(journal_path) + ".leases")


class LeaseBoard:
    """One directory of per-digest claim files (see module docstring)."""

    def __init__(self, root, ttl_s: Optional[float] = None,
                 owner: Optional[str] = None, poll_s: float = 0.05):
        self.root = Path(root)
        self.ttl_s = default_lease_ttl() if ttl_s is None else ttl_s
        self.owner = owner if owner else (
            f"{socket.gethostname()}:{os.getpid()}:{time.monotonic_ns()}")
        self.poll_s = poll_s
        self.claims = 0
        self.takeovers = 0
        self._seq = 0
        self._held: Set[str] = set()

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.lease"

    # -- claiming ------------------------------------------------------------

    def try_claim(self, digest: str) -> bool:
        """One arrival: claim the digest if free or expired; never blocks."""
        if self._create(self.path_for(digest)):
            self._won(digest)
            return True
        return self._try_takeover(digest)

    def _create(self, path: Path) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        payload = json.dumps({"owner": self.owner, "pid": os.getpid(),
                              "claimed_at": time.time()}, sort_keys=True)
        os.write(fd, payload.encode("utf-8"))
        os.fsync(fd)
        os.close(fd)
        return True

    def _try_takeover(self, digest: str) -> bool:
        """Reclaim an expired lease; exactly one racer can succeed."""
        path = self.path_for(digest)
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            # Released between our O_EXCL failure and here: one clean retry.
            if self._create(path):
                self._won(digest)
                return True
            return False
        if self.ttl_s <= 0 or age <= self.ttl_s:
            return False
        # Move the dead lease aside: os.replace of an existing file
        # succeeds for exactly one concurrent racer (the losers get
        # FileNotFoundError), which makes the takeover single-winner.
        self._seq += 1
        grave = path.with_name(f"{path.name}.dead.{os.getpid()}.{self._seq}")
        try:
            os.replace(path, grave)
        except OSError:
            return False
        try:
            os.unlink(grave)
        except OSError:
            pass
        self.takeovers += 1
        if self._create(path):
            self._won(digest)
            return True
        return False  # a third worker slipped in after our replace

    def _won(self, digest: str) -> None:
        self.claims += 1
        self._held.add(digest)

    # -- holding -------------------------------------------------------------

    def owner_of(self, digest: str) -> Optional[Dict]:
        """The parsed claim payload, or ``None`` when unleased/unreadable."""
        try:
            raw = self.path_for(digest).read_bytes()
            return json.loads(raw.decode("utf-8"))
        except (OSError, ValueError):
            return None

    # -- releasing -----------------------------------------------------------

    def release(self, digest: str) -> bool:
        """Drop a held lease — only if it is still ours (a TTL takeover
        may have replaced it while we computed; never unlink the new
        holder's claim)."""
        self._held.discard(digest)
        record = self.owner_of(digest)
        if record is None or record.get("owner") != self.owner:
            return False
        try:
            os.unlink(self.path_for(digest))
        except OSError:
            return False
        return True

    def release_all(self) -> None:
        for digest in list(self._held):
            self.release(digest)

    def __repr__(self) -> str:
        return (f"LeaseBoard({str(self.root)!r}, ttl_s={self.ttl_s}, "
                f"claims={self.claims}, takeovers={self.takeovers})")

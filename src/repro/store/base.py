"""The :class:`BlobStore` interface: what a storage backend must provide.

A *key* is ``<namespace>/<name>`` — the namespace groups one artifact
family (``results``, ``traces``), the name is a content-derived file
name whose first two hex characters drive the on-disk fan-out.  Keys
are the whole addressing model: backends never see :class:`RunSpec` or
trace recipes, and the caches never see paths or URLs.

The contract every backend honours (pinned by ``tests/store``):

* ``put`` is **atomic and durable** — a reader (local or remote,
  concurrent or after a crash) sees either the complete old bytes or
  the complete new bytes, never a prefix;
* ``get`` of an absent key is ``None``, not an exception — corruption
  is the *caller's* judgement (only the cache knows how a result or
  trace must parse), and :meth:`BlobStore.quarantine` is how the caller
  retires a blob it judged damaged, preserving the evidence;
* the integrity surface (``orphans`` / ``quarantine_inventory`` /
  ``structural_check`` / ``gc_log``) lets ``repro doctor`` audit and
  garbage-collect any backend identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.common.errors import ReproError

#: The artifact families the pipeline stores today.
NAMESPACE_RESULTS = "results"
NAMESPACE_TRACES = "traces"


class StoreError(ReproError):
    """A storage-backend failure (bad key, unreachable remote, ...)."""


@dataclass(frozen=True)
class BlobStat:
    """What ``stat`` reports about one blob."""

    size: int
    mtime: float


def validate_key(key: str) -> str:
    """Reject keys that could escape a backend's root; returns the key.

    Keys are ``namespace/name`` with both parts drawn from a tight
    filename alphabet — never absolute, never ``..``, never empty.
    """
    if not isinstance(key, str) or not key:
        raise StoreError(f"blob key must be a non-empty string, got {key!r}")
    parts = key.split("/")
    if len(parts) != 2:
        raise StoreError(
            f"blob key must be 'namespace/name', got {key!r}")
    for part in parts:
        if not part or part in (".", "..") or part.startswith("."):
            raise StoreError(f"invalid blob key component in {key!r}")
        if not all(ch.isalnum() or ch in "._-+" for ch in part):
            raise StoreError(f"invalid character in blob key {key!r}")
    return key


def split_key(key: str):
    """``(namespace, name)`` of a validated key."""
    namespace, _, name = validate_key(key).partition("/")
    return namespace, name


class BlobStore:
    """Abstract content-addressed blob storage (see module docstring)."""

    # -- blob data -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The blob's bytes, or ``None`` if absent."""
        raise NotImplementedError

    def put(self, key: str, data: Union[str, bytes]) -> None:
        """Atomically and durably install ``data`` at ``key``."""
        raise NotImplementedError

    def put_blob(self, key: str, writer: Callable) -> None:
        """Like :meth:`put` with a streaming writer ``writer(fh)`` that
        writes the payload to a binary file object."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove one blob; ``False`` if it was already absent."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        """Sorted payload keys starting with ``prefix`` (quarantined and
        temporary files are never listed)."""
        raise NotImplementedError

    def stat(self, key: str) -> Optional[BlobStat]:
        """Size and mtime of one blob, or ``None`` if absent."""
        raise NotImplementedError

    # -- local fast path -----------------------------------------------------

    def local_path(self, key: str):
        """The blob's filesystem path when the backend is local (enables
        mmap loads and in-place fault injection); ``None`` otherwise."""
        return None

    # -- health --------------------------------------------------------------

    def probe(self):
        """Cheap reachability check: ``(ok, detail)``.

        Local backends are trivially reachable; remote ones perform one
        unretried liveness round trip.  ``repro doctor`` puts the answer
        on its summary line instead of discovering unreachability as a
        traceback three audits in.
        """
        return True, "local store"

    # -- tiering -------------------------------------------------------------

    def spooled_keys(self) -> List[str]:
        """Keys accepted locally but not yet flushed to a backing tier.

        Only :class:`~repro.store.tiered.TieredStore` ever reports any;
        eviction (``doctor --prune-to-size`` and the tier budget) must
        treat these as un-evictable — they are the sole copy.
        """
        return []

    # -- integrity / quarantine (the doctor surface) -------------------------

    def quarantine(self, key: str, reason: str) -> Optional[str]:
        """Retire a blob the caller judged corrupt; never deletes it.

        Returns one of:

        * the name the blob was preserved under (it moved);
        * ``""`` — the blob had already left its key when the move was
          tried: another reader quarantined it first (two workers
          judging one blob at once), or it was evicted.  Not a failure;
        * ``None`` — the move failed and the blob is still at its key
          (losing evidence is worse than re-detecting corruption on the
          next read).
        """
        raise NotImplementedError

    def quarantine_inventory(self, namespace: str) -> Dict:
        """``{"files": [names], "manifest": [entries]}`` for one
        namespace's quarantine."""
        raise NotImplementedError

    def orphans(self, namespace: str) -> List[str]:
        """Leftover temporary-file names from interrupted writers."""
        raise NotImplementedError

    def remove_orphan(self, namespace: str, name: str) -> bool:
        """Delete one orphaned temp file reported by :meth:`orphans`."""
        raise NotImplementedError

    def structural_check(self, namespace: str, fix: bool = False) -> List[str]:
        """Backend-specific layout problems (e.g. a blob filed in the
        wrong fan-out directory).  With ``fix`` the backend quarantines
        the offenders; either way the problem lines are returned."""
        return []

    # -- garbage collection --------------------------------------------------

    def gc_log(self, namespace: str, entry: Dict) -> None:
        """Durably append one eviction record to the namespace's GC
        manifest (called *before* the delete)."""
        raise NotImplementedError

    def gc_manifest(self, namespace: str) -> List[Dict]:
        """Parsed GC manifest entries (empty when nothing was pruned)."""
        raise NotImplementedError

    # -- identity ------------------------------------------------------------

    def url(self) -> str:
        """The canonical URL that reconstructs this store
        (``file://...`` or ``http://...``)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.url()!r})"

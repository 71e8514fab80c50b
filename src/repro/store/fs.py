"""``FsStore``: the filesystem blob store, the one owner of the cache layout.

Bit-compatibility is the point: an ``FsStore`` pointed at an existing
``REPRO_CACHE_DIR`` tree serves and extends it unchanged —

* ``results/<digest>.json``  ->  ``<root>/<digest[:2]>/<digest>.json``
* ``traces/<digest>.bin``    ->  ``<trace root>/<digest[:2]>/<digest>.bin``
  (``$REPRO_TRACE_CACHE_DIR`` if set, else ``traces/`` under the root,
  exactly as before)

with crash-atomic fsync'd writes
(:func:`repro.resilience.storage.durable_replace`).  Beside each
namespace root sit the evidence trails ``repro doctor`` reads, both
:class:`~repro.resilience.storage.JsonlLog` files:
``quarantine/`` with its ``MANIFEST.jsonl`` (corrupt blobs move there,
never deleted) and ``GC_MANIFEST.jsonl`` (each eviction, logged before
the delete).  Any other namespace maps to ``<root>/<namespace>/``.

Blobs live only in the two-character fan-out directories that
:meth:`FsStore.local_path` creates.  Everything else under a root — the
service's ``service/`` state, ``*.leases/`` boards, a nested trace root,
quarantine — belongs to someone else, so listing, the orphan scan and
the layout audit never walk it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.resilience.storage import JsonlLog, durable_replace
from repro.store.base import (
    NAMESPACE_RESULTS,
    NAMESPACE_TRACES,
    BlobStat,
    BlobStore,
    split_key,
)

QUARANTINE_DIRNAME = "quarantine"
QUARANTINE_MANIFEST = "MANIFEST.jsonl"
GC_MANIFEST_NAME = "GC_MANIFEST.jsonl"
MISFILED = "fan-out directory does not match digest prefix"


def default_result_root() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


def default_trace_root(result_root: Optional[Path] = None) -> Path:
    """``$REPRO_TRACE_CACHE_DIR``, else ``traces/`` under the result root."""
    env = os.environ.get("REPRO_TRACE_CACHE_DIR", "")
    if env:
        return Path(env)
    root = result_root if result_root is not None else default_result_root()
    return Path(root) / "traces"


class FsStore(BlobStore):
    """Blob storage over a local directory tree (see module docstring).

    ``root`` holds the ``results`` namespace (and any future ones);
    ``trace_root`` holds ``traces`` and defaults to the historical
    location so existing trees keep working.
    """

    def __init__(self, root=None, trace_root=None):
        self.root = Path(root) if root is not None else default_result_root()
        self.trace_root = (Path(trace_root) if trace_root is not None
                           else default_trace_root(self.root))

    # -- key -> path ---------------------------------------------------------

    def namespace_root(self, namespace: str) -> Path:
        if namespace == NAMESPACE_RESULTS:
            return self.root
        if namespace == NAMESPACE_TRACES:
            return self.trace_root
        return self.root / namespace

    def local_path(self, key: str) -> Path:
        namespace, name = split_key(key)
        return self.namespace_root(namespace) / name[:2] / name

    def _fanout_files(self, namespace: str) -> Iterator[Path]:
        """Every file in the namespace's fan-out directories, in order."""
        try:
            children = sorted(self.namespace_root(namespace).iterdir())
        except OSError:
            return
        for child in children:
            # A trace root nested under the root is the traces' own tree,
            # even when its name is two characters long.
            if (len(child.name) == 2 and child != self.trace_root
                    and child.is_dir()):
                yield from sorted(p for p in child.iterdir() if p.is_file())

    # -- blob data -----------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        try:
            return self.local_path(key).read_bytes()
        except OSError:
            return None

    def put(self, key: str, data: Union[str, bytes]) -> None:
        durable_replace(self.local_path(key), data,
                        binary=isinstance(data, bytes))

    def put_blob(self, key: str, writer: Callable) -> None:
        durable_replace(self.local_path(key), writer, binary=True)

    def delete(self, key: str) -> bool:
        path = self.local_path(key)
        try:
            path.unlink()
        except OSError:
            return False
        try:
            path.parent.rmdir()  # only succeeds once the fan-out dir empties
        except OSError:
            pass
        return True

    def stat(self, key: str) -> Optional[BlobStat]:
        try:
            st = self.local_path(key).stat()
        except OSError:
            return None
        return BlobStat(size=st.st_size, mtime=st.st_mtime)

    def list(self, prefix: str = "") -> List[str]:
        """Keys whose blob ``get`` reaches; a misfiled blob is not one
        of them (:meth:`structural_check` reports it)."""
        keys: List[str] = []
        for namespace in self._namespaces(prefix):
            for path in self._fanout_files(namespace):
                key = f"{namespace}/{path.name}"
                if (path.parent.name == path.name[:2]
                        and not path.name.endswith(".tmp")
                        and key.startswith(prefix)):
                    keys.append(key)
        return keys

    def _namespaces(self, prefix: str) -> List[str]:
        known = [NAMESPACE_RESULTS, NAMESPACE_TRACES]
        if not prefix:
            return known
        head = prefix.split("/", 1)[0]
        return [ns for ns in known if ns.startswith(head)]

    # -- health --------------------------------------------------------------

    def probe(self):
        return True, f"local store, traces under {self.trace_root}"

    # -- integrity / quarantine ----------------------------------------------

    def quarantine(self, key: str, reason: str) -> Optional[str]:
        namespace, _ = split_key(key)
        return self._quarantine_path(namespace, self.local_path(key), reason)

    def _quarantine_path(self, namespace: str, path: Path,
                         reason: str) -> Optional[str]:
        """Move one file into the namespace's quarantine, recording
        source, destination and reason in its manifest.

        A failed move whose source is gone means another process moved
        (or evicted) the file first: ``""``, not a failure.
        """
        qdir = self.namespace_root(namespace) / QUARANTINE_DIRNAME
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = qdir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError:
            return None if os.path.lexists(path) else ""
        try:
            with JsonlLog(qdir / QUARANTINE_MANIFEST) as manifest:
                manifest.append({"file": target.name, "from": str(path),
                                 "reason": reason, "pid": os.getpid()})
        except OSError:
            pass  # the quarantined blob itself is the record of last resort
        return target.name

    def quarantine_inventory(self, namespace: str) -> Dict:
        qdir = self.namespace_root(namespace) / QUARANTINE_DIRNAME
        files = ([p.name for p in sorted(qdir.iterdir())
                  if p.is_file() and p.name != QUARANTINE_MANIFEST]
                 if qdir.is_dir() else [])
        return {"files": files,
                "manifest": JsonlLog(qdir / QUARANTINE_MANIFEST).read()[0]}

    def orphans(self, namespace: str) -> List[str]:
        nsroot = self.namespace_root(namespace)
        return [str(path.relative_to(nsroot))
                for path in self._fanout_files(namespace)
                if path.name.endswith(".tmp")]

    def remove_orphan(self, namespace: str, name: str) -> bool:
        nsroot = self.namespace_root(namespace).resolve()
        path = (nsroot / name).resolve()
        if (path.parent.parent != nsroot or len(path.parent.name) != 2
                or not path.name.endswith(".tmp")):
            return False  # only a temp file in a fan-out directory
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def structural_check(self, namespace: str, fix: bool = False) -> List[str]:
        """Blobs filed in a fan-out directory other than ``name[:2]``."""
        problems: List[str] = []
        for path in self._fanout_files(namespace):
            if (path.parent.name == path.name[:2]
                    or path.name.endswith(".tmp")):
                continue
            problem = f"{path.name}: {MISFILED}"
            if fix:
                moved = self._quarantine_path(namespace, path, MISFILED)
                problem += (" (quarantine FAILED)" if moved is None
                            else " -> quarantined")
            problems.append(problem)
        return problems

    # -- garbage collection --------------------------------------------------

    def gc_log(self, namespace: str, entry: Dict) -> None:
        with self._gc_manifest(namespace) as manifest:
            manifest.append(entry)

    def gc_manifest(self, namespace: str) -> List[Dict]:
        return self._gc_manifest(namespace).read()[0]

    def _gc_manifest(self, namespace: str) -> JsonlLog:
        return JsonlLog(self.namespace_root(namespace) / GC_MANIFEST_NAME)

    # -- identity ------------------------------------------------------------

    def url(self) -> str:
        return f"file://{self.root}"

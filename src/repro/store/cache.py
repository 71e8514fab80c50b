"""``BlobCache``: one namespace of the blob store, read through one decode.

Both pipeline caches are this class plus a namespace and a decode:
:class:`~repro.experiments._engine.ResultCache` (``results/<digest>.json``
decoded into a :class:`~repro.system.results.RunResult`) and
:class:`~repro.trace._cache.TraceCache` (``traces/<digest>.bin`` decoded
into a :class:`~repro.trace.packed.PackedTrace`).  The class owns the
policy every read follows:

* **read** — the blob's bytes through ``store.get``; a cache whose
  decode takes a path (``by_path``: the trace cache's zero-copy mmap)
  gets the store's local path instead when the store has one;
* **absent** — no blob, or an ``OSError`` reading it: a plain miss;
* **damaged** — the decode raises one of :data:`DAMAGE`: the blob is
  quarantined through the store (never deleted), a resilience warning
  is logged and counted (:mod:`repro.resilience.log`), and the read is
  a miss, so the caller's rerun or rebuild rewrites the entry;
* **counters** — ``hits``, ``misses`` and ``quarantined`` per cache.

``repro doctor`` audits each namespace through the same
:meth:`BlobCache.examine`, so the blobs it flags are exactly the blobs
a read would quarantine.  ``REPRO_CACHE=0`` disables both caches
(:func:`cache_enabled`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Tuple

from repro.common.errors import SimulationError
from repro.resilience.faults import get_injector
from repro.resilience.log import warn as resilience_warn
from repro.store.base import BlobStore
from repro.store.config import get_store

#: What a decode raises on a damaged blob (``UnicodeDecodeError`` and
#: ``JSONDecodeError`` are ``ValueError``s; a JSON value of the wrong
#: shape raises ``KeyError``, ``TypeError`` or ``AttributeError``).
DAMAGE = (ValueError, KeyError, TypeError, AttributeError, SimulationError)

#: The damage warning's ``quarantined=`` label for the two non-names
#: :meth:`BlobStore.quarantine` returns.
_NOT_MOVED = {None: "FAILED", "": "ALREADY"}


def cache_enabled() -> bool:
    """``REPRO_CACHE``: the one switch of the result and trace caches."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def damage_reason(exc: BaseException) -> str:
    """The quarantine reason recorded for a blob whose decode raised."""
    return f"{type(exc).__name__}: {exc}"


class BlobCache:
    """One namespace of a blob store (see module docstring).

    A subclass sets the class attributes, writes :meth:`decode` and a
    static ``key_for(*recipe) -> key``, and reads through :meth:`read`.
    """

    namespace = ""    # keys are ``<namespace>/<digest><suffix>``
    suffix = ""
    kind = ""         # the damage warning's ``cache=`` label
    event = ""        # the damage warning's event name
    message = ""      # its message; ``{key}`` is filled in
    fault_site = ""   # the corruption fault site armed before a read
    by_path = False   # decode takes the local path when the store has one

    def __init__(self, *, enabled: Optional[bool] = None,
                 store: Optional[BlobStore] = None):
        self._store = store
        self.enabled = cache_enabled() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @property
    def store(self) -> BlobStore:
        """The backend in effect (pinned at construction, else the
        process-wide :func:`repro.store.get_store` resolved per use)."""
        return self._store if self._store is not None else get_store()

    def path_for(self, *recipe) -> Optional[Path]:
        """Local blob path (``None`` on a remote store)."""
        return self.store.local_path(self.key_for(*recipe))

    @staticmethod
    def decode(src):
        """The value a blob holds.  ``src`` is its bytes, or its local
        :class:`~pathlib.Path` for a ``by_path`` cache; damage raises
        one of :data:`DAMAGE`."""
        raise NotImplementedError

    @classmethod
    def examine(cls, store: BlobStore, key: str, path: Optional[Path] = None
                ) -> Tuple[object, Optional[BaseException]]:
        """Read and decode one blob: ``(value, None)`` when it is good,
        ``(None, None)`` when it is absent, ``(None, exc)`` when the
        decode raised ``exc``.  ``path`` is the blob's local path, given
        by a ``by_path`` caller that resolved it; otherwise the bytes
        come from ``store.get``."""
        try:
            src = path if path is not None else store.get(key)
            if src is None:
                return None, None
            return cls.decode(src), None
        except OSError:
            return None, None
        except DAMAGE as exc:
            return None, exc

    def read(self, key: str, **labels):
        """The decoded blob at ``key``, or ``None`` on a miss (absent or
        damaged; ``labels`` go on the damage warning)."""
        if not self.enabled:
            return None
        store = self.store
        path = None
        injector = get_injector()
        if self.by_path or injector is not None:
            path = store.local_path(key)
            if injector is not None and path is not None:
                injector.maybe_corrupt(self.fault_site, path)
        value, exc = self.examine(store, key, path if self.by_path else None)
        if value is not None:
            self.hits += 1
            return value
        if exc is not None:
            # Damaged: preserve the evidence and surface the recovery —
            # a silent rebuild storm must not look like a healthy cache.
            self.quarantined += 1
            moved = store.quarantine(key, damage_reason(exc))
            resilience_warn(self.event, self.message.format(key=key),
                            cache=self.kind, **labels, error=str(exc),
                            quarantined=_NOT_MOVED.get(moved, moved))
        self.misses += 1
        return None

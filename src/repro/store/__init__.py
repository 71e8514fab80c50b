"""``repro.store``: the pluggable blob-storage substrate.

Every durable artifact the pipeline produces — serialized run results
and packed traces — is a *blob* addressed by a
content-derived key (``results/<digest>.json``, ``traces/<digest>.bin``).
This package defines the one narrow interface the caches talk to
(:class:`BlobStore`) and its two backends:

* :class:`FsStore` — the on-disk layout the repository has always used,
  bit-compatible with existing ``REPRO_CACHE_DIR`` /
  ``REPRO_TRACE_CACHE_DIR`` trees (two-hex-char fan-out directories,
  ``quarantine/`` beside each root, crash-atomic fsync'd writes);
* :class:`HttpStore` — a client for the blob endpoints of a running
  ``repro serve`` instance, so one service is a whole fleet's shared
  warm cache with zero new dependencies (hardened with seeded retries,
  configurable timeouts, and a trip-open/half-open circuit breaker);
* :class:`TieredStore` — a local :class:`FsStore` write-through tier in
  front of any remote store, so workers keep serving (and spool their
  writes) while the coordinator is down and re-warm cheaply after.

Both caches read through :class:`~repro.store.cache.BlobCache`, the one
read → decode → quarantine → warn policy over a store namespace, which
``repro doctor`` audits through too.

Selection is by URL: ``file:///path`` (or a bare path) names an
:class:`FsStore`, ``http://host:port`` an :class:`HttpStore`, and
``tiered+http://host:port?local=DIR`` a :class:`TieredStore`.
:func:`configure_store` installs a process-wide choice (exported through
``REPRO_STORE`` so pool workers inherit it); :func:`get_store` is what
the caches consult.  See docs/distributed.md.

:class:`HttpStore` (with ``http.client`` and ``ssl`` behind it),
:class:`StoreUnavailableError` and :class:`TieredStore` are bound on
first access, so a process on the local tree never compiles them.
"""

from repro._lazy import lazy_names
from repro.store.base import (
    NAMESPACE_RESULTS,
    NAMESPACE_TRACES,
    BlobStat,
    BlobStore,
    StoreError,
    split_key,
    validate_key,
)
from repro.store.config import (
    configure_store,
    get_store,
    parse_store_url,
    store_url,
)
from repro.store.fs import FsStore, default_result_root, default_trace_root

__getattr__, __dir__ = lazy_names(__name__, globals(), {
    "HttpStore": "repro.store.http",
    "StoreUnavailableError": "repro.store.http",
    "TieredStore": "repro.store.tiered",
})

__all__ = [
    "BlobStat",
    "BlobStore",
    "FsStore",
    "HttpStore",
    "NAMESPACE_RESULTS",
    "NAMESPACE_TRACES",
    "StoreError",
    "StoreUnavailableError",
    "TieredStore",
    "configure_store",
    "default_result_root",
    "default_trace_root",
    "get_store",
    "parse_store_url",
    "split_key",
    "store_url",
    "validate_key",
]

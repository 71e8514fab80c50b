"""The parallel experiment engine with a persistent result cache.

Every figure harness ultimately replays cells of the same deterministic
(workload x protocol x block-size) run matrix.  Runs are mutually
independent, so this module fans them out across a process pool and
memoizes each finished :class:`~repro.system.results.RunResult` on disk,
content-addressed by the full run recipe:

* **RunSpec** — the recipe for one run: (workload, protocol, block_bytes,
  cores, per_core, seed).  Its digest additionally covers
  ``SCHEMA_VERSION``; bumping the version invalidates every cached entry
  (the only invalidation rule — bump it whenever a change alters simulated
  outcomes or the serialized layout).
* **ResultCache** — one JSON blob per digest in the blob store
  (:mod:`repro.store`; by default an ``FsStore`` over
  ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``), read under the
  policy the trace cache shares (:class:`~repro.store.cache.BlobCache`).
  Writes are atomic (temp file + rename) so concurrent engines never
  observe torn results.  ``REPRO_CACHE=0`` disables it.
* **ExperimentEngine** — cache-aware execution.  ``run()`` serves one
  spec; ``run_many()`` fans cache misses out over a persistent
  ``ProcessPoolExecutor`` sized by ``$REPRO_JOBS`` (default: all cores),
  falling back to in-process serial execution when ``REPRO_JOBS=1``.

The fan-out path is built so pool overhead stays off the hot path:

* the **pool is created once per engine** and reused across every
  ``run_many()`` call; workers fork with this module's imports, which
  cover everything a task runs, so no worker compiles a module, and
  the initializer pins the trace-cache directory;
* specs are submitted in **chunks** so task IPC amortizes over several
  simulations;
* workers replay **packed traces** from the content-addressed trace
  cache (:mod:`repro.trace._cache`) instead of regenerating workload
  streams, and return one compact JSON blob per result, which the
  parent writes to the result cache verbatim (one parse to build the
  in-memory ``RunResult``, no dict round-trip).

Simulations are deterministic, so parallel, serial, cached, and
packed-vs-object results are bit-identical
(``tests/experiments/test_engine.py`` pins this down).

The engine is also the recovery layer of :mod:`repro.resilience`
(docs/resilience.md): failed or stalled chunks retry under a seeded
backoff policy, dead pools rebuild, exhausted retries degrade to serial
in-process execution, corrupt cache blobs quarantine instead of
aborting, and an optional sweep journal records completions for
``--resume``.  ``repro chaos`` pins down that a sweep under injected
faults still converges to results bit-identical to a fault-free run.
"""

from __future__ import annotations

import json
import hashlib
import os
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.common.params import ProtocolKind, SystemConfig
from repro.obs.metrics import MetricsRegistry, process_registry
from repro.resilience.faults import SITE_CACHE_CORRUPT, get_injector
from repro.resilience.log import warn as resilience_warn
from repro.resilience.retry import RetryPolicy
from repro.store import NAMESPACE_RESULTS
from repro.store.cache import BlobCache
from repro.store.fs import default_trace_root
from repro.system.machine import simulate
from repro.system.results import RunResult
from repro.trace._cache import packed_streams

# Pool workers fork from this module's image, so it loads everything a
# chunk runs -- the batch loop too, which the simulator imports on first
# use -- and no worker compiles a module.
import repro.system.batch  # noqa: F401

if TYPE_CHECKING:
    # Only a journaled or shared sweep passes these in.
    from repro.resilience.journal import SweepJournal
    from repro.resilience.lease import LeaseBoard

#: Bump whenever simulation behaviour or the serialized result layout
#: changes: every previously cached entry becomes unreachable.
SCHEMA_VERSION = 1

#: Chunks submitted per worker per ``run_many`` batch: small enough to
#: load-balance uneven cells, large enough to amortize task IPC.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class RunSpec:
    """The complete, deterministic recipe for one simulation run."""

    workload: str
    protocol: ProtocolKind
    block_bytes: Optional[int] = None
    cores: int = 16
    per_core: int = 2000
    seed: int = 0

    def config(self) -> SystemConfig:
        config = SystemConfig(protocol=self.protocol, cores=self.cores)
        if self.block_bytes is not None:
            config = config.with_block_bytes(self.block_bytes)
        return config

    def payload(self) -> Dict:
        """JSON-safe form (sent to worker processes, hashed for the cache)."""
        return {
            "workload": self.workload,
            "protocol": self.protocol.value,
            "block_bytes": self.block_bytes,
            "cores": self.cores,
            "per_core": self.per_core,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, data: Dict) -> "RunSpec":
        return cls(
            workload=data["workload"],
            protocol=ProtocolKind(data["protocol"]),
            block_bytes=data["block_bytes"],
            cores=data["cores"],
            per_core=data["per_core"],
            seed=data["seed"],
        )

    def digest(self) -> str:
        """Content address: the recipe plus the engine schema version."""
        recipe = {"schema": SCHEMA_VERSION, **self.payload()}
        blob = json.dumps(recipe, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec in-process (no result-cache involvement).

    The trace comes from the packed trace cache — built at most once per
    recipe, replayed with no per-event objects.
    """
    trace = packed_streams(spec.workload, cores=spec.cores,
                           per_core=spec.per_core, seed=spec.seed)
    return simulate(trace, spec.config(), name=spec.workload)


def _serialize_result(result: RunResult) -> str:
    """The compact wire/cache form shipped back from pool workers."""
    return json.dumps(result.to_dict(), separators=(",", ":"))


def _pool_init(trace_dir: str, store_env: str = "",
               store_timeout_env: str = "") -> None:
    """Worker initializer: pin the trace cache and the blob store.

    Runs once per worker process (not per task), so spawn-started pools
    agree with the parent on trace-cache location, blob-store choice
    (``REPRO_STORE``, set by ``--store``) and the remote-store timeout
    (``REPRO_STORE_TIMEOUT``).  The worker already holds every module a
    task runs: this module's imports, forked from the parent or, under
    spawn, run once to find this function.
    """
    if trace_dir:
        os.environ["REPRO_TRACE_CACHE_DIR"] = trace_dir
    if store_env:
        os.environ["REPRO_STORE"] = store_env
    if store_timeout_env:
        os.environ["REPRO_STORE_TIMEOUT"] = store_timeout_env


def _worker_run_chunk(payloads: List[Dict]) -> List[str]:
    """Chunked pool entry point: recipes in, compact serialized results out.

    The fault-injection sites live at chunk start (worker kill, transient
    exception, stall); with ``REPRO_FAULTS`` unset the check is one
    environment lookup.
    """
    injector = get_injector()
    if injector is not None:
        injector.on_worker_chunk()
    return [_serialize_result(execute_spec(RunSpec.from_payload(payload)))
            for payload in payloads]


def default_jobs() -> int:
    env = os.environ.get("REPRO_JOBS", "")
    if env:
        return max(1, int(env))
    # The affinity mask sees cgroup/taskset limits that cpu_count() does
    # not; oversubscribing a restricted container just thrashes the
    # scheduler.
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class ResultCache(BlobCache):
    """Content-addressed store of serialized run results.

    The cache's only policy is *meaning*: it knows a result blob must
    decode back into a :class:`~repro.system.results.RunResult` and keys
    blobs as ``results/<digest>.json``; the read, quarantine and warning
    policy is :class:`~repro.store.cache.BlobCache`'s.  Durability,
    atomicity, and location all belong to the pluggable
    :class:`~repro.store.BlobStore` it sits on (local ``FsStore`` tree
    or a shared ``HttpStore`` — see docs/distributed.md); by default it
    follows :func:`repro.store.get_store` per call, so ``--store`` /
    ``REPRO_STORE`` and the hermetic test fixtures all take effect
    without plumbing.
    """

    namespace = NAMESPACE_RESULTS
    suffix = ".json"
    kind = "result"
    event = "result-cache-corrupt"
    message = "unreadable result blob {key}"
    fault_site = SITE_CACHE_CORRUPT

    @staticmethod
    def key_for(spec: RunSpec) -> str:
        return f"{NAMESPACE_RESULTS}/{spec.digest()}.json"

    @staticmethod
    def decode(raw: bytes) -> RunResult:
        # UnicodeDecodeError is a ValueError: a non-UTF-8 blob takes the
        # same quarantine path as malformed JSON.
        return RunResult.from_dict(json.loads(raw.decode("utf-8")))

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        return self.read(self.key_for(spec))

    def put(self, spec: RunSpec, result: RunResult) -> None:
        if not self.enabled:
            return
        self.store.put(self.key_for(spec), _serialize_result(result))

    def put_blob(self, spec: RunSpec, blob: str) -> None:
        """Store an already-serialized result verbatim (the pool path)."""
        if not self.enabled:
            return
        self.store.put(self.key_for(spec), blob)


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    pool.shutdown(wait=False, cancel_futures=True)


class ExperimentEngine:
    """Cache-aware, optionally parallel, fault-tolerant execution of specs.

    The worker pool is created lazily on the first fan-out and persists
    for the engine's lifetime; ``close()`` (or using the engine as a
    context manager) shuts it down, and a dropped engine cleans up via a
    finalizer.  ``warm_pool()`` creates the pool eagerly; its workers
    start on the first submit, so a caller timing a region submits a
    no-op per worker first (as ``repro bench`` does).

    Failure handling (see docs/resilience.md): a failed or stalled chunk
    is retried in later rounds under the engine's
    :class:`~repro.resilience.retry.RetryPolicy` (seeded exponential
    backoff between rounds); a dead worker (``BrokenProcessPool``)
    triggers a pool rebuild; once retries or rebuilds are exhausted the
    engine *degrades to serial* in-process execution, which cannot lose
    work to worker faults — so ``run_many`` either returns every spec's
    result or raises, never returns a partial matrix.  Retry, rebuild,
    stall, and degradation counters land in :attr:`metrics`
    (``repro_engine_*``).  An attached
    :class:`~repro.resilience.journal.SweepJournal` records every
    completed spec for crash-resume.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 retry: Optional[RetryPolicy] = None,
                 journal: Optional[SweepJournal] = None,
                 lease: Optional[LeaseBoard] = None):
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self.cache = cache if cache is not None else ResultCache()
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self.journal = journal
        self.lease = lease
        self.executed = 0  # specs actually simulated (cache misses)
        # Specs served by run()/run_many(), cache hits included, counted
        # as each lands: the live progress the service reports.
        self.completed = 0
        self.absorbed = 0  # sharded mode: results computed by teammates
        self.pool_rebuilds = 0
        self.degraded = False  # pool gave up; everything runs serial now
        # Session-level aggregation of per-run metric dumps (repro.obs).
        # Workers inherit REPRO_OBS through the pool environment, attach a
        # registry dump to each serialized result, and every result served
        # by this engine — simulated here, shipped from a worker, or read
        # back from the cache — is folded in on arrival.
        self.metrics = MetricsRegistry()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None

    # -- pool lifecycle ------------------------------------------------------

    def warm_pool(self) -> Optional[ProcessPoolExecutor]:
        """The persistent pool (created on first use; ``None`` if serial
        or the engine has degraded to serial execution)."""
        if self.jobs <= 1 or self.degraded:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_pool_init,
                initargs=(str(default_trace_root()),
                          os.environ.get("REPRO_STORE", ""),
                          os.environ.get("REPRO_STORE_TIMEOUT", "")),
            )
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down; the engine stays usable (serially
        it never had one, and a later fan-out recreates it)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()  # idempotent; detaches after first call
            self._pool_finalizer = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _abandon_pool(self) -> None:
        """Drop the pool without waiting on it (a worker died or stalled;
        blocking on its remaining tasks could block forever)."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()  # shutdown(wait=False, cancel_futures=True)
            self._pool_finalizer = None
        self._pool = None

    def _rebuild_pool(self, reason: str) -> None:
        """Replace a broken/stalled pool; degrade to serial past the limit."""
        self._abandon_pool()
        self.pool_rebuilds += 1
        self.metrics.inc("repro_engine_pool_rebuilds_total", reason=reason)
        resilience_warn("engine-pool-rebuild",
                        f"worker pool rebuilt ({reason})",
                        rebuilds=self.pool_rebuilds)
        if self.pool_rebuilds > self.retry.max_pool_rebuilds:
            self._degrade("pool-rebuilds-exhausted")

    def _degrade(self, reason: str) -> None:
        """Give up on parallel fan-out for this engine's lifetime."""
        if self.degraded:
            return
        self.degraded = True
        self.metrics.inc("repro_engine_degraded_total", reason=reason)
        resilience_warn("engine-degraded",
                        "falling back to serial in-process execution",
                        reason=reason)
        self._abandon_pool()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- single run ----------------------------------------------------------

    def _absorb_metrics(self, result: RunResult) -> RunResult:
        if result.metrics:
            self.metrics.merge_dict(result.metrics)
        return result

    def _record_completion(self, spec: RunSpec) -> None:
        self.completed += 1
        if self.journal is not None:
            self.journal.record(spec.digest(), spec.payload())

    def run(self, spec: RunSpec) -> RunResult:
        cached = self.cache.get(spec)
        if cached is not None:
            self._record_completion(spec)
            return self._absorb_metrics(cached)
        result = execute_spec(spec)
        self.executed += 1
        self.cache.put(spec, result)
        self._record_completion(spec)
        return self._absorb_metrics(result)

    # -- batched runs ----------------------------------------------------------

    def run_many(self, specs: Iterable[RunSpec]) -> Dict[RunSpec, RunResult]:
        """Serve every spec, fanning cache misses out across the pool.

        Results are keyed by spec; duplicate specs collapse to one run.
        Misses are submitted to the persistent pool in chunks
        (``_CHUNKS_PER_WORKER`` per worker) so several simulations share
        one task's IPC; each worker ships back compact JSON blobs that
        land in the result cache byte-for-byte.  Worker failures are
        retried and, past the retry policy's limits, served serially —
        the returned dict always covers every spec.

        With a :class:`LeaseBoard` attached (multi-host sweeps), the
        work is additionally divided with every other process sharing
        the same journal + store — see :meth:`run_sharded`.
        """
        if (self.lease is not None and self.journal is not None
                and self.cache.enabled):
            return self.run_sharded(specs)
        return self._run_many_local(specs)

    def _run_many_local(self,
                        specs: Iterable[RunSpec]) -> Dict[RunSpec, RunResult]:
        out: Dict[RunSpec, RunResult] = {}
        todo: List[RunSpec] = []
        pending = set()
        for spec in specs:
            if spec in out or spec in pending:
                continue
            cached = self.cache.get(spec)
            if cached is not None:
                out[spec] = self._absorb_metrics(cached)
                self._record_completion(spec)
            else:
                todo.append(spec)
                pending.add(spec)
        if not todo:
            return out
        if self.jobs <= 1 or len(todo) == 1 or self.degraded:
            self._run_serial(todo, out)
            return out
        self._run_parallel(todo, out)
        return out

    def _run_serial(self, specs: List[RunSpec],
                    out: Dict[RunSpec, RunResult]) -> None:
        """In-process execution: immune to pool faults by construction."""
        for spec in specs:
            result = execute_spec(spec)
            self.executed += 1
            self.cache.put(spec, result)
            out[spec] = self._absorb_metrics(result)
            self._record_completion(spec)

    def _run_parallel(self, todo: List[RunSpec],
                      out: Dict[RunSpec, RunResult]) -> None:
        """Fan out with bounded retries; finish serially if the pool fails."""
        policy = self.retry
        pending = list(todo)
        attempt = 0
        while pending and not self.degraded:
            pending = self._parallel_round(pending, out)
            if not pending:
                return
            attempt += 1
            if attempt > policy.max_retries:
                self._degrade("retries-exhausted")
                break
            self.metrics.inc("repro_engine_retries_total", len(pending))
            delay = policy.backoff(attempt)
            if delay > 0:
                time.sleep(delay)
        if pending:
            self._run_serial(pending, out)

    def _parallel_round(self, specs: List[RunSpec],
                        out: Dict[RunSpec, RunResult]) -> List[RunSpec]:
        """One submit-and-drain pass; returns the specs that must retry."""
        pool = self.warm_pool()
        if pool is None:  # degraded between rounds
            return specs
        size = max(1, -(-len(specs) // (self.jobs * _CHUNKS_PER_WORKER)))
        chunks = [specs[i:i + size] for i in range(0, len(specs), size)]
        futures = {}
        failed: List[RunSpec] = []
        worker_died = False
        for index, chunk in enumerate(chunks):
            try:
                futures[pool.submit(_worker_run_chunk,
                                    [s.payload() for s in chunk])] = chunk
            except BrokenProcessPool:
                # A worker died while later chunks were still going out:
                # this chunk and the rest never reached the pool.
                worker_died = True
                failed.extend(specs[index * size:])
                break
        broken = worker_died
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, timeout=self.retry.timeout_s,
                                  return_when=FIRST_COMPLETED)
            if not done:
                # Deadline passed with zero progress: everything still
                # outstanding counts as stalled and re-dispatches.
                self.metrics.inc("repro_engine_stalls_total", len(not_done))
                resilience_warn("engine-task-stall",
                                "no chunk completed within the deadline",
                                timeout_s=self.retry.timeout_s)
                for future in not_done:
                    future.cancel()
                    failed.extend(futures[future])
                broken = True
                not_done = set()
                break
            for future in done:
                chunk = futures[future]
                try:
                    blobs = future.result()
                except BrokenProcessPool:
                    worker_died = True
                    broken = True
                    failed.extend(chunk)
                except Exception as exc:
                    self.metrics.inc("repro_engine_worker_errors_total",
                                     kind=type(exc).__name__)
                    failed.extend(chunk)
                else:
                    for spec, blob in zip(chunk, blobs):
                        self.executed += 1
                        self.cache.put_blob(spec, blob)
                        out[spec] = self._absorb_metrics(
                            RunResult.from_dict(json.loads(blob)))
                        self._record_completion(spec)
            if broken:
                # A broken pool poisons every outstanding future.
                for future in not_done:
                    failed.extend(futures[future])
                break
        if worker_died:
            self.metrics.inc("repro_engine_worker_deaths_total")
        if broken:
            self._rebuild_pool("worker-death" if worker_died else "stall")
        return failed

    # -- sharded (multi-process) runs ------------------------------------------

    def run_sharded(self, specs: Iterable[RunSpec]) -> Dict[RunSpec, RunResult]:
        """Serve every spec while *other worker processes* share the work.

        Requires an attached journal and :class:`LeaseBoard` (and an
        enabled cache — the shared store is how teammates' results reach
        us); without all three this is plain :meth:`run_many`.  Each
        worker loops: absorb completions teammates journaled
        (:meth:`SweepJournal.refresh`, results fetched from the shared
        store), lease a batch of unclaimed specs (at most one fan-out's
        worth, so leases stay short-lived), run it through the normal
        cache/retry/journal machinery, release the leases.  Specs every
        worker sees claimed elsewhere are simply waited on.  Workers
        start their claim scan at different points of the digest-sorted
        order (rotated by a hash of the lease owner id) so concurrent
        workers mostly lease disjoint batches instead of racing on every
        file.  The returned dict always covers every requested spec —
        simulations are deterministic, so who computed a cell never
        shows in the bytes.
        """
        if self.journal is None or self.lease is None or not self.cache.enabled:
            return self._run_many_local(specs)
        ordered: List[RunSpec] = []
        by_digest: Dict[str, RunSpec] = {}
        for spec in specs:
            digest = spec.digest()
            if digest not in by_digest:
                by_digest[digest] = spec
                ordered.append(spec)
        digests = sorted(by_digest)
        if digests:
            start = int(hashlib.sha256(
                self.lease.owner.encode("utf-8")).hexdigest(), 16) % len(digests)
            digests = digests[start:] + digests[:start]
        out: Dict[RunSpec, RunResult] = {}
        done: set = set()
        batch_cap = max(1, self.jobs * _CHUNKS_PER_WORKER)
        while len(done) < len(by_digest):
            progress = self._absorb_journaled(by_digest, done, out)
            batch: List[RunSpec] = []
            for digest in digests:
                if len(batch) >= batch_cap:
                    break
                if digest in done or digest in self.journal:
                    continue
                if self.lease.try_claim(digest):
                    batch.append(by_digest[digest])
            if batch:
                progress = True
                self.metrics.inc("repro_engine_shard_claims_total", len(batch))
                try:
                    results = self._run_many_local(batch)
                finally:
                    for spec in batch:
                        self.lease.release(spec.digest())
                for spec, result in results.items():
                    out[spec] = result
                    done.add(spec.digest())
            if not progress:
                # Everything left is leased to live teammates: wait for
                # their journal lines (or for a lease to expire).
                time.sleep(self.lease.poll_s)
        return {spec: out[spec] for spec in ordered}

    def _absorb_journaled(self, by_digest: Dict[str, RunSpec], done: set,
                          out: Dict[RunSpec, RunResult]) -> bool:
        """Fold in results whose completion some process journaled.

        Results are published to the store *before* the journal line is
        appended, so a journaled digest is normally fetchable; if the
        blob was since damaged or quarantined, recompute locally — the
        deterministic rerun rewrites identical bytes.
        """
        self.journal.refresh()
        progress = False
        for digest in self.journal.completed():
            if digest in done or digest not in by_digest:
                continue
            spec = by_digest[digest]
            result = self.cache.get(spec)
            if result is None:
                result = execute_spec(spec)
                self.executed += 1
                self.cache.put(spec, result)
            else:
                self.absorbed += 1
                self.metrics.inc("repro_engine_shard_absorbed_total")
            out[spec] = self._absorb_metrics(result)
            done.add(digest)
            progress = True
        return progress

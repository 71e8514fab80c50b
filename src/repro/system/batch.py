"""Batch execution over packed traces.

The scalar issue loop (:meth:`Simulator._run_packed`) interprets one
access at a time: pop the earliest core off the clock heap, run one
coherence transaction, push the core back.  Most accesses in the bench
workloads are *hits* — the ``covered_r``/``covered_w`` test at the top
of :meth:`CoherenceProtocol._access` passes and the transaction touches
nothing but per-block masks and a handful of counters.  This module
retires each such hit with one coverage test and one deferred mask
while provably reproducing the scalar interleaving bit-for-bit.

After its popped event, a core keeps executing events inline as long as
``(clock, core)`` stays below the heap's head: exactly the events the
scalar loop would have handed it anyway, in the same order, so the loop
is legal everywhere, ``max_accesses`` and L2 recalls included.  A hit
commits by one test of its masks against the cached ownership summary
of its (core, region), which :meth:`CoherenceProtocol.coverage_masks`
computes exactly as :meth:`CoherenceProtocol._access` does.

Committed hits are *deferred*: per-region pending masks accumulate
the touched/dirty words and are flushed onto the real
:class:`~repro.memory.block.Block` objects only when a scalar
transaction, an eviction (via ``protocol.batch_hook``), or the end of
the run is about to observe them.  The first miss — or any event whose
mask the core's current ownership does not cover — drops to the exact
scalar ``protocol.read``/``write`` path.  A core's cached coverage
summary is invalidated whenever any transaction or eviction touches
that (core, region), so batching is speculative but never wrong.

The issue loop itself works on plain Python lists (one ``list`` copy
per derived column at runner start): per committed hit it costs a few list
indexes and one dict upsert, against a full coherence transaction plus
heap traffic on the scalar path.  numpy, when importable, accelerates
*deriving* the columns (:func:`repro.trace.derived.derive`); execution
is identical with or without it.

Observability (:mod:`repro.obs`) composes with batching without any
code here: a batched hit records nothing live, because the metrics a
run ships derive hit and miss totals from ``RunStats`` and the
directory actions and messages it does record happen only in scalar
transactions.  So metric dumps are byte-identical to an obs-enabled
scalar run.  An event ring is the exception: it wants one record per
transaction, so a run with a ring attached takes the scalar loop.

Batch mode declines (returning the scalar path, never an error) when
the stream is not packed, ``batch=False`` was passed, ``check_values``
is on, an event ring is attached, or regions are wider than the 62-word
mask columns.  With
``batch=None`` (the default) the trace decides: traces shorter than
:data:`MIN_EVENTS_PER_CORE` per core or less reused than
:data:`MIN_REUSE` run the scalar loop too.  ``batch=True`` bypasses
those two gates.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional

from repro.trace.derived import MAX_MASK_WORDS, derived_for

#: Minimum events per distinct (core, region) pair for *default-mode*
#: batching.  Every distinct pair costs at least one compulsory miss, so
#: a trace below this reuse ratio is miss-bound — the batched loop would
#: pay its bookkeeping on top of an unavoidable scalar-transaction floor.
#: An explicit ``batch=True`` bypasses the heuristic.
MIN_REUSE = 4.0

#: Minimum average events per core for *default-mode* batching, checked
#: before any column is derived.  Deriving, the numpy import and the
#: runner's set-up are paid per trace and repay themselves only over long
#: per-core streams of hits (sweep in docs/performance.md, "Batch
#: execution over packed traces").  Shorter traces run the scalar loop
#: without deriving columns or importing numpy.  ``batch=True`` bypasses
#: it.
MIN_EVENTS_PER_CORE = 512


def maybe_run_batched(sim, max_accesses: Optional[int]) -> bool:
    """Run ``sim``'s packed trace batched if eligible; returns whether it ran.

    ``False`` means the caller should fall back to the scalar loop; the
    decision is side-effect free.
    """
    packed = sim._packed
    if packed is None:
        return False
    requested = getattr(sim, "_batch", None)
    if requested is False:
        return False
    if (requested is None
            and len(packed) < MIN_EVENTS_PER_CORE * packed.cores):
        return False
    protocol = sim.protocol
    config = protocol.config
    if config.check_values:
        # Golden-value tracking needs every word write replayed.
        return False
    if protocol._obs_events is not None:
        # An event ring records every transaction; batched hits have none.
        return False
    if config.words_per_region > MAX_MASK_WORDS:
        return False
    derived = derived_for(packed, config.region_bytes)
    if requested is None:
        # Compulsory-miss bound: each distinct (core, region) pair misses
        # at least once, so low-reuse traces cannot be hit-dominated and
        # the scalar loop is the better default.
        pairs = sum(len(c.region_ids) for c in derived.per_core)
        if pairs and len(packed) < MIN_REUSE * pairs:
            return False
    _BatchRunner(sim, derived, max_accesses).run()
    return True


class _BatchRunner:
    """One batched issue-loop execution (see module docstring)."""

    def __init__(self, sim, derived, max_accesses: Optional[int]):
        self.sim = sim
        self.protocol = sim.protocol
        self.max_accesses = max_accesses
        packed = sim._packed
        self.cores = packed.cores
        self.counts = packed.counts
        self.region_ids: List[list] = []
        self.idx_of: List[dict] = []
        self.cov_r: List[list] = []
        self.cov_w: List[list] = []
        self.cov_valid: List[list] = []
        self.pend: List[dict] = []  # dense idx -> [touched, written]
        # Everything a pop binds about its core, behind one list index: a
        # pop frequently retires a single event, so per-core state must
        # cost one unpack, not a dozen lookups.  The columns the hit path
        # indexes become plain Python lists once, here: list indexing
        # hands back cached small ints with no wrapper objects, which is
        # what makes a committed hit cost a few hundred nanoseconds
        # instead of a coherence transaction.
        self.core_state: List[tuple] = []
        for c in range(self.cores):
            d = derived.per_core[c]
            ids = list(d.region_ids)
            regions = len(ids)
            cov_r = [0] * regions
            cov_w = [0] * regions
            valid = [False] * regions
            pend: dict = {}
            self.region_ids.append(ids)
            self.idx_of.append({region: i for i, region in enumerate(ids)})
            self.cov_r.append(cov_r)
            self.cov_w.append(cov_w)
            self.cov_valid.append(valid)
            self.pend.append(pend)
            is_write, addr, size, pc, think = packed.core_columns(c)
            self.core_state.append((
                list(d.region_idx), list(d.amask), list(d.wmask),
                list(think), cov_r, cov_w, valid, pend, pend.get, ids,
                is_write, addr, size, pc,
            ))

    # -- the issue loop ------------------------------------------------------

    def run(self) -> None:
        sim = self.sim
        protocol = self.protocol
        stats = protocol.stats
        clocks = sim.clocks
        counts = self.counts
        core_state = self.core_state
        cursor = [0] * self.cores
        heap = [(clocks[c], c) for c in range(self.cores) if counts[c]]
        heapify(heap)
        hit_latency = protocol._hit_latency
        protocol_read = protocol.read
        protocol_write = protocol.write
        max_accesses = self.max_accesses
        refresh = self._refresh
        sync_region = self._sync_region
        issued = 0
        instructions = 0
        protocol.batch_hook = self._sync_one
        try:
            while heap:
                if max_accesses is not None and issued >= max_accesses:
                    stats.truncated = True
                    break
                clock, core = heappop(heap)
                i = cursor[core]
                n_events = counts[core]
                (reg, am, wm, think, cov_r, cov_w, valid, pend, pend_get,
                 region_ids, is_write, addr, size, pc) = core_state[core]
                # Per-pop counter deltas: stat increments commute with the
                # scalar transactions interleaved below, so they fold into
                # the shared counters once per pop instead of once per hit.
                n_reads = 0
                n_writes = 0
                seq_add = 0
                while True:
                    t = think[i]
                    dense = reg[i]
                    if not valid[dense]:
                        refresh(core, dense)
                    w = wm[i]
                    if (not (w & ~cov_w[dense])) if w \
                            else (not (am[i] & ~cov_r[dense])):
                        e = pend_get(dense)
                        if e is None:
                            pend[dense] = e = [0, 0]
                        e[0] |= am[i]
                        e[1] |= w
                        if w:
                            n_writes += 1
                            seq_add += w.bit_count()
                        else:
                            n_reads += 1
                        clock += t + hit_latency
                    else:
                        sync_region(region_ids[dense])
                        clock += t
                        if is_write[i]:
                            clock += protocol_write(core, addr[i], size[i],
                                                    pc[i])
                        else:
                            clock += protocol_read(core, addr[i], size[i],
                                                   pc[i])
                    instructions += t + 1
                    issued += 1
                    i += 1
                    if i == n_events or (max_accesses is not None
                                         and issued >= max_accesses):
                        break
                    # Continue only while the scalar loop would hand this
                    # core the next pop anyway.
                    if heap:
                        top = heap[0]
                        if clock > top[0] or (clock == top[0]
                                              and core > top[1]):
                            break
                if n_reads:
                    stats.reads += n_reads
                    stats.read_hits += n_reads
                if n_writes:
                    stats.writes += n_writes
                    stats.write_hits += n_writes
                    protocol._seq += seq_add
                cursor[core] = i
                clocks[core] = clock
                if i < n_events:
                    heappush(heap, (clock, core))
            stats.instructions += instructions
            stats.core_cycles = list(clocks)
            self._flush_all()
        finally:
            protocol.batch_hook = None

    # -- coverage ------------------------------------------------------------

    def _refresh(self, core: int, dense: int) -> None:
        region = self.region_ids[core][dense]
        covered_r, covered_w = self.protocol.coverage_masks(core, region)
        self.cov_r[core][dense] = covered_r
        self.cov_w[core][dense] = covered_w
        self.cov_valid[core][dense] = True

    # -- pending-mask synchronization ----------------------------------------

    def _sync_region(self, region: int) -> None:
        """Flush + invalidate (every core, ``region``) before a scalar call."""
        for core in range(self.cores):
            self._sync_one(core, region)

    def _sync_one(self, core: int, region: int, extra=None) -> None:
        """Flush pending hits and drop cached coverage for (core, region).

        Installed as ``protocol.batch_hook`` so evictions and L2 recalls
        triggered mid-transaction synchronize blocks of *other* regions
        before reading their dirty/touched masks.  ``extra`` is an
        eviction victim already out of the cache; bits its words cover
        land on it, and bits covered by *no* present block stay pending
        (a multi-block eviction surfaces victims one at a time).
        """
        if core >= self.cores:
            return
        dense = self.idx_of[core].get(region)
        if dense is None:
            return
        e = self.pend[core].get(dense)
        if e is not None:
            amask, wmask = e
            landed = self.protocol.apply_deferred_hits(
                core, region, amask, wmask, extra)
            amask &= ~landed
            wmask &= ~landed
            if amask | wmask:
                e[0] = amask
                e[1] = wmask
            else:
                del self.pend[core][dense]
        self.cov_valid[core][dense] = False

    def _flush_all(self) -> None:
        """End of run: land every pending mask on its blocks."""
        apply_hits = self.protocol.apply_deferred_hits
        for core in range(self.cores):
            region_ids = self.region_ids[core]
            for dense, (amask, wmask) in self.pend[core].items():
                apply_hits(core, region_ids[dense], amask, wmask)
            self.pend[core].clear()

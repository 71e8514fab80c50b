"""Batch execution over packed traces.

The scalar issue loop (:meth:`Simulator._run_packed`) interprets one
access at a time: pop the earliest core off the clock heap, run one
coherence transaction, push the core back.  Most accesses in the bench
workloads are *hits* — the ``covered_r``/``covered_w`` test at the top
of :meth:`CoherenceProtocol._access` passes and the transaction touches
nothing but per-block masks and a handful of counters.  This module
retires whole stretches of such hits at once while provably reproducing
the scalar interleaving bit-for-bit.

Two mechanisms, layered:

* **In-order continuation.**  After its popped event, a core keeps
  executing events inline as long as ``(clock, core)`` stays below the
  heap's head — exactly the events the scalar loop would have handed it
  anyway.  Always legal, works under ``max_accesses``.

* **Run-ahead over commuting stretches.**  Events on regions that are
  *trace-private* (one core ever touches them) or *trace-read-only*
  (no write anywhere in the trace) commute with every other core's
  transactions **as long as they hit**: a hit changes only the issuing
  core's touched/dirty masks and an E->M bit, none of which any foreign
  probe of such regions reads (read-only regions never take write
  probes; private regions take none at all).  The derived columns
  (:mod:`repro.trace.derived`) index every *non*-commuting event in
  ``hard_pos``; stretches between hard events run ahead of the global
  clock order, committed per event by one coverage test against the
  cached ownership summary, with the clock/instruction/counter effects
  folded in bulk from prefix-sum columns.  Run-ahead is disabled when
  ``max_accesses`` is set (the executed prefix must match scalar) or
  when the trace's region count can overflow the L2 and trigger recalls.

Hits executed either way are *deferred*: per-region pending masks
accumulate the touched/dirty words and are flushed onto the real
:class:`~repro.memory.block.Block` objects only when a scalar
transaction, an eviction (via ``protocol.batch_hook``), or the end of
the run is about to observe them.  The first miss — or any event whose
mask the core's current ownership does not cover — drops to the exact
scalar ``protocol.read``/``write`` path.  A core's cached coverage
summary is invalidated whenever any transaction or eviction touches
that (core, region), so batching is speculative but never wrong.

The issue loop itself works on plain Python lists (one ``tolist`` per
derived column at runner start): per committed hit it costs a few list
indexes and one dict upsert, against a full coherence transaction plus
heap traffic on the scalar path.  numpy, when importable, accelerates
*deriving* the columns (:func:`repro.trace.derived.derive`); execution
is identical with or without it.

Observability (:mod:`repro.obs`) composes with batching: batched hits
fold into the engine's scratch counter slots and are counted in bulk on
the event trace (:meth:`EventTrace.note_batched`) at the same per-pop
points where their ``RunStats`` effects fold, so metric dumps are
byte-identical to an obs-enabled scalar run.  Scalar-executed
transactions (misses, evictions, and the stretches around them) record
normally — they are what the ring retains under batching.

Batch mode declines (returning the scalar path, never an error) when
the stream is not packed, ``batch=False`` was passed, ``check_values``
is on, or regions are wider than the 62-word mask columns.  With
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
        capacity = self.protocol.l2.capacity_regions
        self.runahead = (max_accesses is None
                         and (capacity is None
                              or derived.total_regions <= capacity))
        # Everything the inner loop indexes becomes a plain Python list
        # once, here: list indexing hands back cached small ints with no
        # wrapper objects, which is what makes a committed hit cost a few
        # hundred nanoseconds instead of a coherence transaction.
        self.reg: List[list] = []
        self.am: List[list] = []
        self.wm: List[list] = []
        self.think: List[list] = []
        self.think_cum: List[list] = []
        self.writes_cum: List[list] = []
        self.wpop_cum: List[list] = []
        self.hard_pos: List[list] = []
        self.hard_ptr = [0] * self.cores
        self.region_ids: List[list] = []
        self.idx_of: List[dict] = []
        self.cov_r: List[list] = []
        self.cov_w: List[list] = []
        self.cov_valid: List[list] = []
        self.pend: List[dict] = []  # dense idx -> [touched, written]
        for c in range(self.cores):
            d = derived.per_core[c]
            ids = list(d.region_ids)
            regions = len(ids)
            self.reg.append(list(d.region_idx))
            self.am.append(list(d.amask))
            self.wm.append(list(d.wmask))
            self.think.append(list(packed.core_columns(c)[4]))
            self.think_cum.append(list(d.think_cum))
            self.writes_cum.append(list(d.writes_cum))
            self.wpop_cum.append(list(d.wpop_cum))
            self.hard_pos.append(list(d.hard_pos))
            self.region_ids.append(ids)
            self.idx_of.append({region: i for i, region in enumerate(ids)})
            self.cov_r.append([0] * regions)
            self.cov_w.append([0] * regions)
            self.cov_valid.append([False] * regions)
            self.pend.append({})

    # -- the issue loop ------------------------------------------------------

    def run(self) -> None:
        sim = self.sim
        protocol = self.protocol
        stats = protocol.stats
        clocks = sim.clocks
        packed = sim._packed
        counts = self.counts
        cursor = [0] * self.cores
        heap = [(clocks[c], c) for c in range(self.cores) if counts[c]]
        heapify(heap)
        hit_latency = protocol._hit_latency
        protocol_read = protocol.read
        protocol_write = protocol.write
        max_accesses = self.max_accesses
        runahead = self.runahead
        refresh = self._refresh
        next_hard = self._next_hard
        issued = 0
        instructions = 0
        # Observability composes: batched hits fold into the same scratch
        # slots the scalar hot path increments, and the event trace counts
        # them in bulk (no records — those stay scalar-only).
        obs_events = protocol._obs_events
        sc = protocol._obs_scratch
        sc_hit_read, sc_hit_write = protocol._sc_hit if sc is not None \
            else (0, 0)
        # Everything a pop binds about its core, behind one list index:
        # a pop frequently retires a single event (exact-order regime),
        # so per-core state must cost one unpack, not a dozen lookups.
        core_state = []
        for c in range(self.cores):
            is_write, addr, size, pc, _ = packed.core_columns(c)
            pend = self.pend[c]
            core_state.append((
                self.reg[c], self.am[c], self.wm[c], self.think[c],
                self.cov_r[c], self.cov_w[c], self.cov_valid[c],
                pend, pend.get, self.think_cum[c], self.writes_cum[c],
                self.wpop_cum[c], self.region_ids[c],
                is_write, addr, size, pc,
            ))
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
                 think_cum, writes_cum, wpop_cum, region_ids,
                 is_write, addr, size, pc) = core_state[core]
                first = True
                limit = next_hard(core, i) if runahead else -1
                # Per-pop counter deltas: stat increments commute with the
                # scalar transactions interleaved below, so they fold into
                # the shared counters once per pop instead of once per hit.
                n_reads = 0
                n_writes = 0
                seq_add = 0
                while i < n_events:
                    if max_accesses is not None and issued >= max_accesses:
                        break
                    if runahead:
                        if i >= limit:
                            limit = next_hard(core, i)
                        if limit > i:
                            # Commit covered hits until the first event the
                            # cached ownership does not cover (or the next
                            # hard event); bulk effects from prefix sums.
                            i0 = i
                            while i < limit:
                                dense = reg[i]
                                if not valid[dense]:
                                    refresh(core, dense)
                                w = wm[i]
                                if w:
                                    if w & ~cov_w[dense]:
                                        break
                                elif am[i] & ~cov_r[dense]:
                                    break
                                e = pend_get(dense)
                                if e is None:
                                    pend[dense] = e = [0, 0]
                                e[0] |= am[i]
                                e[1] |= w
                                i += 1
                            n = i - i0
                            if n:
                                span_think = think_cum[i] - think_cum[i0]
                                nw = writes_cum[i] - writes_cum[i0]
                                n_writes += nw
                                n_reads += n - nw
                                seq_add += wpop_cum[i] - wpop_cum[i0]
                                instructions += span_think + n
                                clock += span_think + n * hit_latency
                                issued += n
                                first = False
                                continue
                    # One event, in exact heap order: continue only while the
                    # scalar loop would hand this core the next pop anyway.
                    if not first and heap:
                        top = heap[0]
                        if clock > top[0] or (clock == top[0]
                                              and core > top[1]):
                            break
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
                        self._sync_region(region_ids[dense])
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
                    first = False
                if n_reads:
                    stats.reads += n_reads
                    stats.read_hits += n_reads
                    if sc is not None:
                        sc[sc_hit_read] += n_reads
                if n_writes:
                    stats.writes += n_writes
                    stats.write_hits += n_writes
                    protocol._seq += seq_add
                    if sc is not None:
                        sc[sc_hit_write] += n_writes
                if obs_events is not None and n_reads + n_writes:
                    obs_events.note_batched(n_reads + n_writes)
                cursor[core] = i
                clocks[core] = clock
                if i < n_events:
                    heappush(heap, (clock, core))
            stats.instructions += instructions
            stats.core_cycles = list(clocks)
            self._flush_all()
        finally:
            protocol.batch_hook = None

    def _next_hard(self, core: int, i: int) -> int:
        """Index of the first non-commuting event at or after ``i``."""
        hard = self.hard_pos[core]
        p = self.hard_ptr[core]
        n = len(hard)
        while p < n and hard[p] < i:
            p += 1
        self.hard_ptr[core] = p
        return hard[p] if p < n else self.counts[core]

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
        apply_hits = self.protocol.apply_deferred_hits
        idx_of = self.idx_of
        pend = self.pend
        cov_valid = self.cov_valid
        for core in range(self.cores):
            dense = idx_of[core].get(region)
            if dense is None:
                continue
            e = pend[core].get(dense)
            if e is not None:
                amask, wmask = e
                landed = apply_hits(core, region, amask, wmask)
                amask &= ~landed
                wmask &= ~landed
                if amask | wmask:
                    e[0] = amask
                    e[1] = wmask
                else:
                    del pend[core][dense]
            cov_valid[core][dense] = False

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

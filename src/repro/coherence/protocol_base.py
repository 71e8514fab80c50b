"""The shared coherence-transaction engine.

All four protocols (MESI, Protozoa-SW, Protozoa-SW+MR, Protozoa-MW) run on
this engine.  Every memory access is one *atomic transaction*: the directory
activates a single coherence operation per REGION at a time (as in the
paper), and the engine serializes transactions globally, emitting the full
explicit message chain — request, forwarded probes/invalidations, writeback
and acknowledgment replies, and the data response — with per-message byte
sizes routed over the mesh.  Latency is the critical path through the chain;
parallel probes contribute their slowest leg.

Subclasses implement two hooks:

* :meth:`_probe` — the directory's forward phase for a miss: which sharers
  are probed, what each L1 invalidates/downgrades/writes back, and how the
  directory entry is updated for the probed cores.
* :meth:`_grant` — the directory's final bookkeeping for the requester and
  the L1 state granted for the incoming block.

Everything else — request/DATA legs, L2/memory fetch, variable-granularity
install with block merging, capacity evictions with WBACK/WBACK-LAST
semantics, used/unused word classification, golden-value verification —
is shared here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.messages import MsgType
from repro.common.addresses import WORD_BYTES, AddressMap
from repro.common.errors import InvariantViolation, ProtocolError, SimulationError
from repro.common.params import (CONTROL_MESSAGE_BYTES, L1Organization,
                                 ProtocolKind, SystemConfig)
from repro.common.wordrange import WordRange, popcount
from repro.interconnect.accounting import NetworkAccountant
from repro.interconnect.mesh import MeshTopology
from repro.memory.amoeba_cache import AmoebaCache
from repro.memory.backing import L2Store
from repro.memory.block import Block, LineState
from repro.memory.fixed_cache import FixedCache
from repro.memory.mshr import MSHRFile
from repro.memory.sector_cache import SectorCache
from repro.memory.predictor import SpatialPredictor, make_predictor
from repro.stats.counters import RunStats

_STATE_RANK = {LineState.S: 0, LineState.E: 1, LineState.M: 2}


class CoherenceProtocol:
    """Base engine; see module docstring."""

    kind: ProtocolKind = ProtocolKind.MESI

    # Every directory-side action any engine reports, in sorted order.
    # attach_obs presets one count per kind so the per-action cost is a
    # dict add (see _obs_action).
    ACTION_KINDS = ("downgrade", "invalidate", "owner_getx",
                    "probe_read", "probe_write", "revoke_writer")

    def __init__(self, config: SystemConfig, stats: Optional[RunStats] = None):
        self.config = config
        self.amap = AddressMap(config.region_bytes)
        self.topology = MeshTopology(config.network)
        self.net = NetworkAccountant(self.topology)
        self.stats = stats if stats is not None else RunStats(config.cores)
        self.directory = Directory()
        capacity_regions = config.l2.capacity_bytes // config.region_bytes
        self.l2 = L2Store(config.words_per_region, capacity_regions)
        self.l2.recall_hook = self._recall_region
        self.l1s = [self._make_l1() for _ in range(config.cores)]
        self.mshrs = [MSHRFile() for _ in range(config.cores)]
        self.predictors: List[Optional[SpatialPredictor]] = [
            make_predictor(config.predictor) if config.protocol.adaptive_storage else None
            for _ in range(config.cores)
        ]
        self._golden: Dict[int, List[int]] = {}
        self._seq = 0
        # Per-access invariants hoisted out of the transaction loop: these
        # never change after construction, and attribute chains through the
        # frozen config dataclasses are measurably expensive per access.
        self._hit_latency = config.l1.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        self._memory_latency = config.memory_latency
        self._words_per_region = config.words_per_region
        self._check_invariants = config.check_invariants
        self._check_values = config.check_values
        # (core, words-mask) per dirty supplier of the current transaction;
        # consumed by the 3-hop forwarding decision.
        self._txn_suppliers: List[Tuple[int, int]] = []
        # Optional observer called for every message as
        # (MsgType, src_node, dst_node, payload_words); used by the
        # walkthrough example and the protocol scenario tests.
        self.trace_hook = None
        # Observability (repro.obs): None when disabled, which keeps every
        # hook in the transaction loop at one attribute load + None test.
        # ``_obs_events`` aliases the session's event ring (None without
        # one, as under REPRO_OBS=1) and ``_obs_actions`` the per-kind
        # action counts (None without metrics) so the hot path never
        # chases two attributes.
        self._obs = None
        self._obs_events = None
        self._obs_actions: Optional[Dict[str, int]] = None
        # Batch execution (repro.system.batch): called as
        # (core, region, victim_or_None) before this engine reads the
        # dirty/touched masks of blocks the batch runner may still hold
        # deferred hit bits for — evictions and L2 recalls reach regions
        # the runner did not synchronize around the current scalar call.
        self.batch_hook = None

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.Observability` session into this engine.

        Everything expensive happens here, once, so the per-event cost
        stays off the hot path:

        * the event ring needs no wiring at all — :meth:`_access` and
          :meth:`_send` emit to it directly (``trace_hook`` stays a
          purely user-facing hook); hit and miss totals need no
          recording either, since :func:`~repro.obs.record_run_metrics`
          derives them from ``RunStats``;
        * with metrics on, directory actions are counted in a per-kind
          dict here and messages in the network accountant's two
          value-indexed lists, sized to the mesh diameter and the widest
          message's flit count.  One container add per event;
          :meth:`record_obs_metrics` projects them when the run ends.

        Detach by passing ``None`` (the counts are released;
        ``trace_hook`` is untouched).
        """
        self._obs = obs
        self._obs_events = obs.events if obs is not None else None
        net = self.net
        if obs is None or obs.metrics is None:
            self._obs_actions = None
            net.obs_hop_counts = net.obs_flit_counts = None
            return
        self._obs_actions = dict.fromkeys(self.ACTION_KINDS, 0)
        net.obs_hop_counts = [0] * (self.topology.max_hops + 1)
        widest = MsgType.WBACK.size_bytes(self._words_per_region)
        net.obs_flit_counts = [0] * (net.flits(widest) + 1)

    def record_obs_metrics(self, registry) -> None:
        """Project the counts :meth:`attach_obs` set up into ``registry``.

        Called once when a run ends.  The counts start again from zero,
        so a further run on this engine projects only its own events.
        """
        for kind, count in self._obs_actions.items():
            if count:
                registry.inc("repro_actions_total", count, kind=kind)
        net = self.net
        registry.histogram("repro_message_hops").add_counts(net.obs_hop_counts)
        registry.histogram("repro_message_flits").add_counts(
            net.obs_flit_counts)
        self.attach_obs(self._obs)  # fresh, zeroed counts

    def _obs_action(self, kind: str, target: int) -> None:
        """Report one directory-side action (count + event ring).

        Engines call this only after an ``is not None`` test on
        ``self._obs``, so the disabled path never pays the call.
        """
        actions = self._obs_actions
        if actions is not None:
            actions[kind] += 1
        events = self._obs_events
        if events is not None:
            events.action(kind, target)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _make_l1(self):
        geom = self.config.l1
        if not self.config.protocol.adaptive_storage:
            return FixedCache(geom.fixed_sets(self.config.block_bytes), geom.fixed_ways)
        if self.config.l1_organization is L1Organization.SECTOR:
            return SectorCache(geom.fixed_sets(self.config.region_bytes),
                               geom.fixed_ways, self.config.words_per_region)
        return AmoebaCache(geom.sets, geom.set_bytes, geom.tag_bytes)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def read(self, core: int, addr: int, size: int = 8, pc: int = 0) -> int:
        """Simulate a load; returns its latency in cycles."""
        return self._access(core, False, addr, size, pc)

    def write(self, core: int, addr: int, size: int = 8, pc: int = 0) -> int:
        """Simulate a store; returns its latency in cycles."""
        return self._access(core, True, addr, size, pc)

    def flush(self) -> None:
        """End-of-run: drain every L1 and classify fetched words.

        Dirty blocks are patched into the L2 (data must survive the
        drain); no messages are charged — the run is over and the paper's
        traffic metrics cover steady-state execution only.
        """
        for core, l1 in enumerate(self.l1s):
            for block in list(l1):
                if block.dirty:
                    self.l2.ensure_present(block.region)
                    self.l2.patch(block.region, block.range, list(block.data))
                self._retire_block(core, block, invalidated=False)
                l1.remove(block)
                self.directory.entry(block.region).drop(core)

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def _access(self, core: int, is_write: bool, addr: int, size: int, pc: int) -> int:
        if not 0 <= core < self.config.cores:
            raise SimulationError(f"core {core} out of range")
        region, rng = self.amap.access_range(addr, size)
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        l1 = self.l1s[core]
        mask = rng.mask
        # Coverage scan: one pass over the region's resident blocks.  Blocks
        # that miss ``rng`` contribute no bits inside ``mask``, so filtering
        # for overlap first is pure overhead.
        covered_r = 0
        covered_w = 0
        for block in l1.blocks_of(region):
            state = block.state
            if state is LineState.S:
                covered_r |= block.range.mask
            elif state is LineState.M or state is LineState.E:
                bmask = block.range.mask
                covered_r |= bmask
                covered_w |= bmask
        if mask & ~(covered_w if is_write else covered_r) == 0:
            if is_write:
                stats.write_hits += 1
                self._do_write(core, region, rng)
            else:
                stats.read_hits += 1
                self._do_read(core, region, rng)
            # Hits send no messages: one sealed-record call at the end.
            obs_events = self._obs_events
            if obs_events is not None:
                obs_events.hit(core, is_write, addr, size, pc,
                               self._hit_latency)
            return self._hit_latency

        # Miss path: open the record first so messages/actions/grant
        # emitted while serving the miss attach to it.
        obs_events = self._obs_events
        if obs_events is not None:
            obs_events.begin(core, is_write, addr, size, pc)
        latency = self._miss(core, is_write, region, rng, pc)
        if is_write:
            self._do_write(core, region, rng)
        else:
            self._do_read(core, region, rng)
        if self._check_invariants:
            self.check_region_invariants(region)
        if obs_events is not None:
            obs_events.end(latency, hit=False)
        return latency

    # -- batch-execution hooks (repro.system.batch) ---------------------

    def coverage_masks(self, core: int, region: int) -> Tuple[int, int]:
        """(covered_r, covered_w) of one (core, region) — the hit test's
        inputs, exactly as :meth:`_access` computes them."""
        covered_r = 0
        covered_w = 0
        for block in self.l1s[core].blocks_of(region):
            state = block.state
            if state is LineState.S:
                covered_r |= block.range.mask
            elif state is LineState.M or state is LineState.E:
                bmask = block.range.mask
                covered_r |= bmask
                covered_w |= bmask
        return covered_r, covered_w

    def apply_deferred_hits(self, core: int, region: int, amask: int,
                            wmask: int, extra: Optional[Block] = None) -> int:
        """Land deferred hit bits on (core, region)'s blocks.

        Replays what :meth:`_do_read`/:meth:`_do_write` would have done for
        a union of hits: OR ``amask`` into touched masks, ``wmask`` into
        dirty masks, silent E->M on every block receiving a written word.
        ``extra`` is a block already pulled out of the cache (an eviction
        victim) that must still receive its share.  Returns the union of
        the covered words so the caller can keep any residue pending (a
        multi-block eviction surfaces victims one at a time).
        """
        blocks = self.l1s[core].blocks_of(region)
        if extra is not None:
            blocks.append(extra)
        landed = 0
        for block in blocks:
            bmask = block.range.mask
            landed |= bmask
            touched = amask & bmask
            if touched:
                block.touched_mask |= touched
            written = wmask & bmask
            if written:
                block.dirty_mask |= written
                if block.state is LineState.E:
                    block.state = LineState.M
        return landed

    def _miss(self, core: int, is_write: bool, region: int, rng: WordRange,
              pc: int) -> int:
        mshr = self.mshrs[core]
        mshr.allocate(region)
        try:
            req = self._request_range(core, region, rng, is_write, pc)
            # The new block will merge with every resident block it
            # overlaps, so coherence permission must be acquired for the
            # whole merged span (iterate to a fixpoint: spanning can pull
            # in further blocks).  ``span`` returns its receiver when that
            # already covers the block, so an unwidened ``req`` is the
            # same object.
            l1 = self.l1s[core]
            while True:
                overlapping = l1.overlapping(region, req)
                wider = req
                for block in overlapping:
                    wider = wider.span(block.range)
                if wider is req:
                    break
                req = wider
            # The last scan holds the blocks the new one merges with.  If
            # any is writable, the merged block stays M, so the request
            # must be exclusive even for a load (read-for-ownership
            # merge); words already readable are not sent again.
            exclusive = is_write
            readable = 0
            for block in overlapping:
                state = block.state
                if state is not LineState.I:
                    readable |= block.range.mask
                    if state is LineState.M or state is LineState.E:
                        exclusive = True
            payload_mask = req.mask & ~readable
            stats = self.stats
            if is_write and payload_mask == 0:
                stats.upgrade_misses += 1
            elif is_write:
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            latency, granted = self._serve_miss(core, region, req, exclusive, pc, payload_mask)
            values = self.l2.read(region, req)
            # ``overlapping`` still describes this core's blocks of the
            # region: _serve_miss's probes touch only other cores' L1s,
            # and an L2 recall it triggers touches only other regions.
            self._install(core, region, req, values, granted, pc, rng.start,
                          payload_mask, exclusive, overlapping)
            stats.miss_latency_total += latency
            stats.miss_latency.record(latency)
            return self._hit_latency + latency
        finally:
            mshr.release(region)

    def _request_range(self, core: int, region: int, rng: WordRange,
                       is_write: bool, pc: int) -> WordRange:
        """Storage/communication granularity for this miss (covers ``rng``)."""
        predictor = self.predictors[core]
        if predictor is None:
            return self.amap.full_range()
        predicted = predictor.predict(pc, region, rng, is_write, self.config.words_per_region)
        return predicted.span(rng)

    # ------------------------------------------------------------------
    # Directory-side transaction skeleton
    # ------------------------------------------------------------------

    def _serve_miss(self, core: int, region: int, req: WordRange, is_write: bool,
                    pc: int, payload_mask: int) -> Tuple[int, LineState]:
        home = self.topology.home_node(region)
        core_node = self.topology.core_node(core)
        entry = self.directory.lookup(region)
        upgrade = is_write and payload_mask == 0
        req_type = MsgType.UPGRADE if upgrade else (MsgType.GETX if is_write else MsgType.GETS)
        latency = self._send(req_type, core_node, home)
        latency += self._l2_fetch(region, home)
        self._txn_suppliers = []
        # An entry that tracks no core has nobody to probe: every
        # protocol's _probe would return no legs and record nothing, and
        # with no leg there is no 3-hop supplier.
        if entry.readers or entry.writers:
            legs = self._probe(core, region, req, is_write, entry, home)
        else:
            legs = ()
        granted = self._grant(core, region, req, is_write, entry)
        obs_events = self._obs_events
        if obs_events is not None:
            obs_events.grant(granted)
        payload_words = popcount(payload_mask)
        supplier = (self._three_hop_supplier(payload_mask)
                    if payload_words and legs else None)
        if supplier is not None:
            # 3-hop: the single dirty owner forwards the data directly; the
            # home shrinks its reply to a completion ACK.  The requester
            # finishes when the direct data arrives AND every probe has
            # drained at the home (writebacks/ACKs), whichever is later.
            sup_core, _, snoop_lat = supplier
            supplier_node = self.topology.core_node(sup_core)
            direct = snoop_lat + self._send(MsgType.DATA, supplier_node,
                                            core_node, payload_words)
            completion = max(legs) + self._l2_hit_latency
            self._send(MsgType.ACK, home, core_node)  # overlapped completion
            latency += max(direct, completion)
        else:
            if legs:
                latency += max(legs) + self._l2_hit_latency
            if payload_words:
                latency += self._send(MsgType.DATA, home, core_node, payload_words)
            else:
                latency += self._send(MsgType.ACK, home, core_node)
        return latency, granted

    def _three_hop_supplier(self, payload_mask: int):
        """The forwarding supplier entry when 3-hop applies, else None.

        Eligible only when exactly one probed core supplied dirty data and
        its writeback covers every payload word — the paper's fallback rule
        for requests that do not (or only partially) overlap the owner.
        """
        if not self.config.three_hop or len(self._txn_suppliers) != 1:
            return None
        entry = self._txn_suppliers[0]
        if payload_mask & ~entry[1]:
            return None
        return entry

    def _probe(self, core: int, region: int, req: WordRange, is_write: bool,
               entry: DirectoryEntry, home: int) -> List[int]:
        """Forward phase: probe remote sharers.  Returns leg latencies."""
        raise NotImplementedError

    def _grant(self, core: int, region: int, req: WordRange, is_write: bool,
               entry: DirectoryEntry) -> LineState:
        """Requester-side directory update; returns the granted L1 state."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared legs
    # ------------------------------------------------------------------

    def _send(self, mtype: MsgType, src_node: int, dst_node: int,
              payload_words: int = 0, used_payload_words: int = 0) -> int:
        """Record one message; returns its network latency.

        What the message does to the counters is fixed per type (see
        :mod:`repro.coherence.messages`), so the only call per message is
        the network accountant's ``transfer``.
        """
        if payload_words and not mtype.carries_data:
            raise ValueError(f"{mtype.label} cannot carry data")
        latency = self.net.transfer(
            src_node, dst_node, CONTROL_MESSAGE_BYTES + payload_words * WORD_BYTES)
        if self.trace_hook is not None:
            self.trace_hook(mtype, src_node, dst_node, payload_words)
        obs_events = self._obs_events
        if obs_events is not None:
            obs_events.message(mtype, src_node, dst_node, payload_words)
        stats = self.stats
        if mtype.at_l1:
            stats.traffic.control[mtype.control_key] += CONTROL_MESSAGE_BYTES
            if mtype.writeback_data:
                stats.data_words(used_payload_words, payload_words - used_payload_words)
        counter = mtype.stat_counter
        if counter is not None:
            setattr(stats, counter, getattr(stats, counter) + 1)
        return latency

    def _l2_fetch(self, region: int, home: int) -> int:
        """L2 bank access, fetching the region from memory when absent."""
        l2 = self.l2
        if l2.present(region):
            l2.ensure_present(region)
            return self._l2_hit_latency
        mem = self.topology.memory_node(home)
        latency = self._send(MsgType.MEM_READ, home, mem) + self._memory_latency
        latency += self._send(MsgType.MEM_DATA, mem, home, self._words_per_region)
        l2.ensure_present(region)
        return latency + 2 * self._l2_hit_latency

    def _probe_leg_latency(self, home: int, target: int, blocks: int,
                           request_lat: int, reply_lat: int) -> int:
        """Latency of one probe leg including multi-block gather cycles."""
        gather = max(blocks - 1, 0)
        return request_lat + self.config.l1.hit_latency + gather + reply_lat

    # -- remote-L1 snoop actions ----------------------------------------

    def _writeback_blocks(self, core: int, blocks: List[Block]) -> Tuple[int, int]:
        """Patch the dirty blocks' contents into the L2.

        Returns (payload_words, used_words) for the gathered WBACK message:
        the full contents of every dirty block are transmitted (paper
        Figure 4: the owner "writes back block including all words whether
        overlapping or not").  The words patched are recorded per supplier
        so the 3-hop path can decide whether one owner covered the request.
        """
        payload = 0
        used = 0
        mask = 0
        for block in blocks:
            if not block.dirty:
                continue
            self.l2.patch(block.region, block.range, list(block.data))
            payload += block.range.width
            used += popcount(block.touched_mask)
            mask |= block.range.to_mask()
        if payload:
            self._txn_suppliers.append([core, mask, 0])
        return payload, used

    def _note_supplier_snoop_latency(self, core: int, latency: int) -> None:
        """Record how long until a supplier could start forwarding (3-hop)."""
        for entry in self._txn_suppliers:
            if entry[0] == core:
                entry[2] = latency

    def _invalidate_region_at(self, target: int, region: int, home: int,
                              mtype: MsgType) -> int:
        """Invalidate *all* of ``target``'s blocks of ``region`` (MESI/SW).

        Sends ``mtype`` (INV or FWD_GETX), gathers a single writeback of all
        dirty blocks, retires everything, and updates the directory entry.
        Returns the leg latency.
        """
        l1 = self.l1s[target]
        target_node = self.topology.core_node(target)
        request_lat = self._send(mtype, home, target_node)
        blocks = l1.blocks_of(region)
        self.mshrs[target].note_multi_block(from_cpu=False, blocks=len(blocks))
        if not blocks:
            reply_lat = self._send(MsgType.NACK, target_node, home)
            self.directory.entry(region).drop(target)
            return self._probe_leg_latency(home, target, 0, request_lat, reply_lat)
        payload, used = self._writeback_blocks(target, blocks)
        for block in blocks:
            l1.remove(block)
            self._retire_block(target, block, invalidated=True)
        if payload:
            self._note_supplier_snoop_latency(
                target, request_lat + self.config.l1.hit_latency + len(blocks) - 1)
            reply_lat = self._send(MsgType.WBACK, target_node, home, payload, used)
            self.stats.writebacks += 1
        else:
            reply_lat = self._send(MsgType.ACK, target_node, home)
        self.directory.entry(region).drop(target)
        return self._probe_leg_latency(home, target, len(blocks), request_lat, reply_lat)

    def _downgrade_region_at(self, target: int, region: int, home: int) -> int:
        """Downgrade all of ``target``'s blocks of ``region`` to S (GETS path).

        Dirty blocks are written back (full contents) and kept as clean
        shared copies; the directory moves the core from writers to readers.
        A stale owner (all blocks silently dropped) draws a NACK.
        """
        l1 = self.l1s[target]
        target_node = self.topology.core_node(target)
        request_lat = self._send(MsgType.FWD_GETS, home, target_node)
        blocks = l1.blocks_of(region)
        self.mshrs[target].note_multi_block(from_cpu=False, blocks=len(blocks))
        entry = self.directory.entry(region)
        if not blocks:
            reply_lat = self._send(MsgType.NACK, target_node, home)
            entry.drop(target)
            return self._probe_leg_latency(home, target, 0, request_lat, reply_lat)
        payload, used = self._writeback_blocks(target, blocks)
        for block in blocks:
            block.dirty_mask = 0
            block.state = LineState.S
        if payload:
            self._note_supplier_snoop_latency(
                target, request_lat + self.config.l1.hit_latency + len(blocks) - 1)
            reply_lat = self._send(MsgType.WBACK, target_node, home, payload, used)
            self.stats.writebacks += 1
        else:
            reply_lat = self._send(MsgType.ACK, target_node, home)
        entry.writers.discard(target)
        entry.readers.add(target)
        return self._probe_leg_latency(home, target, len(blocks), request_lat, reply_lat)

    # ------------------------------------------------------------------
    # L1 install / merge / evict
    # ------------------------------------------------------------------

    def _install(self, core: int, region: int, req: WordRange, values: List[int],
                 granted: LineState, pc: int, miss_word: int, payload_mask: int,
                 is_write: bool, overlapping: List[Block]) -> None:
        """Merge ``req`` with the ``overlapping`` resident blocks and insert."""
        l1 = self.l1s[core]
        self.mshrs[core].note_multi_block(from_cpu=True, blocks=len(overlapping) + 1)
        # ``req`` already spans every overlapping block (the fixpoint in
        # _miss).  ``values`` is a fresh copy of the L2's words of ``req``:
        # with nothing to merge it is the new block's data as it stands.
        data = values
        if overlapping:
            data = []
            for word in req.words():
                old = next((b for b in overlapping if b.range.contains(word)), None)
                if old is not None:
                    data.append(old.value(word))
                else:
                    data.append(values[word - req.start])
        state = LineState.M if is_write else granted
        touched = 0
        dirty = 0
        old_fetched = 0
        for block in overlapping:
            touched |= block.touched_mask
            dirty |= block.dirty_mask
            old_fetched |= block.fetched_mask
            if _STATE_RANK[block.state] > _STATE_RANK[state]:
                state = block.state
            l1.remove(block)
        # Words delivered again although previously fetched: classify now so
        # the byte totals match what was actually transmitted.
        refetched = payload_mask & old_fetched
        if refetched:
            used_now = popcount(refetched & touched)
            self.stats.data_words(used_now, popcount(refetched) - used_now)
        new_block = Block(region, req, state, data, pc, miss_word)
        new_block.touched_mask = touched
        new_block.dirty_mask = dirty
        new_block.fetched_mask = old_fetched | payload_mask
        l1.insert(new_block, lambda victim: self._on_evict(core, victim, region))
        self.stats.record_install(req.width)
        self.stats.fills += 1
        self.stats.fill_words += popcount(payload_mask)

    def _on_evict(self, core: int, victim: Block,
                  incoming_region: Optional[int] = None) -> None:
        """Capacity eviction: dirty blocks write back, clean ones drop silently.

        ``incoming_region`` is set when the eviction makes room for a block
        being installed: if the victim shares that region, the core is about
        to cache the region again, so the writeback must not be LAST (the
        directory keeps tracking the sharer).
        """
        if self.batch_hook is not None:
            # The victim left the cache before this hook ran; pass it so
            # deferred hit bits land on it before ``victim.dirty`` below.
            self.batch_hook(core, victim.region, victim)
        self.stats.evictions += 1
        region = victim.region
        if victim.dirty:
            home = self.topology.home_node(region)
            remaining = self.l1s[core].blocks_of(region)
            last = not remaining and region != incoming_region
            mtype = MsgType.WBACK_LAST if last else MsgType.WBACK
            used = popcount(victim.touched_mask)
            self._send(mtype, self.topology.core_node(core), home,
                       victim.range.width, used)
            self.l2.patch(region, victim.range, list(victim.data))
            self.stats.writebacks += 1
            if last:
                self.stats.writebacks_last += 1
                self.directory.entry(region).drop(core)
        self._retire_block(core, victim, invalidated=False)

    def _retire_block(self, core: int, block: Block, invalidated: bool) -> None:
        """A block leaves an L1: classify its fill words, train the predictor."""
        fetched = block.fetched_mask
        used = popcount(fetched & block.touched_mask)
        self.stats.data_words(used, popcount(fetched) - used)
        if invalidated:
            self.stats.inval_block_kills += 1
        predictor = self.predictors[core]
        if predictor is not None:
            predictor.train(block.miss_pc, block.miss_word, block.touched_mask,
                            fetched, self.config.words_per_region,
                            invalidated=invalidated)

    # ------------------------------------------------------------------
    # L2 capacity recall (inclusion)
    # ------------------------------------------------------------------

    def _recall_region(self, region: int) -> None:
        if self.batch_hook is not None:
            for target in range(self.config.cores):
                self.batch_hook(target, region, None)
        entry = self.directory.peek(region)
        home = self.topology.home_node(region)
        if entry is not None:
            for target in sorted(entry.sharers()):
                self._invalidate_region_at(target, region, home, MsgType.INV)
        if self.l2.is_dirty(region):
            mem = self.topology.memory_node(home)
            self._send(MsgType.MEM_WRITE, home, mem, self._words_per_region)
        self.directory.forget(region)

    # ------------------------------------------------------------------
    # Data movement with value checking
    # ------------------------------------------------------------------

    def _golden_region(self, region: int) -> List[int]:
        words = self._golden.get(region)
        if words is None:
            words = [0] * self.config.words_per_region
            self._golden[region] = words
        return words

    def _do_read(self, core: int, region: int, rng: WordRange) -> None:
        l1 = self.l1s[core]
        mask = rng.mask
        block = l1.peek(region, rng.start)
        if (block is not None and mask & ~block.range.mask == 0
                and block.state is not LineState.I):
            # Fast path: one resident block covers the whole access.
            if self._check_values:
                golden = self._golden_region(region)
                base = block.range.start
                data = block.data
                for word in range(rng.start, rng.end + 1):
                    if data[word - base] != golden[word]:
                        raise InvariantViolation(
                            f"core {core} read R{region}:{word} = "
                            f"{data[word - base]}, expected {golden[word]}"
                        )
            block.touched_mask |= mask
            return
        golden = self._golden_region(region) if self._check_values else None
        for word in rng.words():
            block = l1.peek(region, word)
            if block is None or not block.state.readable:
                raise ProtocolError(
                    f"core {core} read of R{region} word {word} not satisfied"
                )
            block.touch(WordRange(word, word))
            if golden is not None:
                got = block.value(word)
                if got != golden[word]:
                    raise InvariantViolation(
                        f"core {core} read R{region}:{word} = {got}, "
                        f"expected {golden[word]}"
                    )

    def _do_write(self, core: int, region: int, rng: WordRange) -> None:
        l1 = self.l1s[core]
        mask = rng.mask
        block = l1.peek(region, rng.start)
        if (block is not None and mask & ~block.range.mask == 0
                and (block.state is LineState.M or block.state is LineState.E)):
            # Fast path: one writable block covers the whole access.
            if block.state is LineState.E:
                block.state = LineState.M  # silent E->M upgrade
            golden = self._golden_region(region)
            base = block.range.start
            data = block.data
            seq = self._seq
            for word in range(rng.start, rng.end + 1):
                seq += 1
                data[word - base] = seq
                golden[word] = seq
            self._seq = seq
            block.dirty_mask |= mask
            block.touched_mask |= mask
            return
        golden = self._golden_region(region)
        for word in rng.words():
            block = l1.peek(region, word)
            if block is None or not block.state.writable:
                raise ProtocolError(
                    f"core {core} write of R{region} word {word} not permitted"
                )
            if block.state is LineState.E:
                block.state = LineState.M  # silent E->M upgrade
            self._seq += 1
            block.write(word, self._seq)
            golden[word] = self._seq

    # ------------------------------------------------------------------
    # Model-checking hooks (bounded exploration; repro.modelcheck)
    # ------------------------------------------------------------------

    def snapshot_state(self):
        """Capture the complete mutable protocol state (BFS backtracking)."""
        from repro.coherence.snapshot import snapshot

        return snapshot(self)

    def restore_state(self, snap) -> None:
        """Rewind to a state captured by :meth:`snapshot_state`."""
        from repro.coherence.snapshot import restore

        restore(self, snap)

    def canonical_key(self) -> tuple:
        """Hashable abstract-state key; equal keys behave identically."""
        from repro.coherence.snapshot import canonical_key

        return canonical_key(self)

    # ------------------------------------------------------------------
    # Invariant checking (the paper's correctness section, as code)
    # ------------------------------------------------------------------

    def check_region_invariants(self, region: int) -> None:
        """SWMR + directory-superset checks for one region."""
        from repro.coherence.invariants import check_region

        check_region(self, region)

    def check_all_invariants(self) -> None:
        regions = set()
        for l1 in self.l1s:
            for block in l1:
                regions.add(block.region)
        for region in regions:
            self.check_region_invariants(region)

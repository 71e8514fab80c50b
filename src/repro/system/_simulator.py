"""The trace-driven simulation loop.

Per-core streams of :class:`~repro.trace.events.MemAccess` are merged by a
per-core clock: the core with the smallest local time issues its next
access, which runs as one atomic coherence transaction and advances that
core's clock by its latency (plus one cycle per ``think`` instruction and
one for the access itself).  This yields a deterministic interleaving that
tracks relative progress — cores suffering misses fall behind, exactly the
mechanism by which false sharing serializes progress in the paper's
linear-regression discussion.

Streams come in two forms, both yielding bit-identical results:

* **object streams** — per-core iterables of ``MemAccess`` (the text
  trace format, hand-built test scenarios);
* **packed traces** — a :class:`~repro.trace.packed.PackedTrace`, whose
  columns the issue loop reads directly: no per-event object exists at
  any point, which is the fast path the experiment engine uses.

The interleaving is identical because the event heap is keyed by
``(clock, core)`` in both paths and per-core order is fixed by the trace.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Optional, Union

from repro.coherence.protocol_base import CoherenceProtocol
from repro.common.errors import SimulationError
from repro.stats.counters import RunStats
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace

Streams = Union[PackedTrace, List[Iterable[MemAccess]]]


class Simulator:
    """Drives per-core access streams through one protocol instance."""

    def __init__(self, protocol: CoherenceProtocol, streams: Streams,
                 obs=None, batch: Optional[bool] = None):
        self._packed: Optional[PackedTrace] = None
        # Batch execution over packed columns (repro.system.batch):
        # True forces it on, False off, None defers to $REPRO_BATCH
        # (default on, for traces long enough to repay it).  Either way
        # the run is bit-identical; ineligible configurations silently
        # take the scalar loop.
        self._batch = batch
        self._streams: List[Iterator[MemAccess]] = []
        # Observability session (repro.obs): attached to the protocol so
        # its transaction hooks fire, and consulted here for phase timing.
        self._obs = obs
        if obs is not None:
            protocol.attach_obs(obs)
        if isinstance(streams, PackedTrace):
            if streams.cores > protocol.config.cores:
                raise SimulationError(
                    f"{streams.cores} streams for {protocol.config.cores} cores"
                )
            self._packed = streams
        else:
            if len(streams) > protocol.config.cores:
                raise SimulationError(
                    f"{len(streams)} streams for {protocol.config.cores} cores"
                )
            self._streams = [iter(s) for s in streams]
        self.protocol = protocol
        self.stats: RunStats = protocol.stats
        self.clocks = [0] * protocol.config.cores

    def run(self, max_accesses: Optional[int] = None, flush: bool = True) -> RunStats:
        """Run to stream exhaustion (or ``max_accesses``); returns the stats.

        A run cut short by ``max_accesses`` while events were still pending
        is flagged in ``stats.truncated`` so downstream consumers (and the
        persistent result cache) never mistake a partial run for a complete
        one.
        """
        obs = self._obs
        timers = obs.timers if obs is not None else None
        if timers is None:
            self._issue(max_accesses)
            if flush:
                self.protocol.flush()
        else:
            with timers.phase("simulate"):
                self._issue(max_accesses)
            if flush:
                with timers.phase("flush"):
                    self.protocol.flush()
        if obs is not None and obs.metrics is not None:
            # Phase boundary: commit the engines' deferred scratch deltas
            # (idempotent — any registry read folds too).
            obs.metrics.fold_pending()
        return self.stats

    def _issue(self, max_accesses: Optional[int]) -> None:
        """Drain the streams through the protocol (no end-of-run flush)."""
        if self._packed is not None:
            from repro.system.batch import maybe_run_batched

            if not maybe_run_batched(self, max_accesses):
                self._run_packed(max_accesses)
            return
        clocks = self.clocks
        streams = self._streams
        heap = []
        for core, stream in enumerate(streams):
            event = next(stream, None)
            if event is not None:
                heap.append((clocks[core], core, event))
        heapq.heapify(heap)
        # The issue loop runs once per simulated access; every invariant
        # lookup (bound methods, stats fields) is hoisted out of it.
        heappop = heapq.heappop
        heappush = heapq.heappush
        protocol_read = self.protocol.read
        protocol_write = self.protocol.write
        issued = 0
        instructions = 0
        while heap:
            if max_accesses is not None and issued >= max_accesses:
                self.stats.truncated = True
                break
            clock, core, event = heappop(heap)
            think = event.think
            clock += think
            instructions += think + 1
            if event.is_write:
                clock += protocol_write(core, event.addr, event.size, event.pc)
            else:
                clock += protocol_read(core, event.addr, event.size, event.pc)
            clocks[core] = clock
            issued += 1
            nxt = next(streams[core], None)
            if nxt is not None:
                heappush(heap, (clock, core, nxt))
        self.stats.instructions += instructions
        self.stats.core_cycles = list(clocks)

    def _run_packed(self, max_accesses: Optional[int]) -> None:
        """The issue loop over packed columns: no per-event allocation.

        Heap entries are ``(clock, core)`` — the same ordering as the
        object path's ``(clock, core, event)`` tuples, since ``core``
        already breaks every tie — and each pop indexes straight into the
        per-core column arrays.
        """
        packed = self._packed
        clocks = self.clocks
        cols = [packed.core_columns(core) for core in range(packed.cores)]
        counts = [len(c[0]) for c in cols]
        cursor = [0] * packed.cores
        heap = [(clocks[core], core) for core in range(packed.cores)
                if counts[core]]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        protocol_read = self.protocol.read
        protocol_write = self.protocol.write
        issued = 0
        instructions = 0
        while heap:
            if max_accesses is not None and issued >= max_accesses:
                self.stats.truncated = True
                break
            clock, core = heappop(heap)
            i = cursor[core]
            is_write, addr, size, pc, think = cols[core]
            t = think[i]
            clock += t
            instructions += t + 1
            if is_write[i]:
                clock += protocol_write(core, addr[i], size[i], pc[i])
            else:
                clock += protocol_read(core, addr[i], size[i], pc[i])
            clocks[core] = clock
            issued += 1
            i += 1
            cursor[core] = i
            if i < counts[core]:
                heappush(heap, (clock, core))
        self.stats.instructions += instructions
        self.stats.core_cycles = list(clocks)

"""The trace-driven simulation loop.

Per-core access streams are merged by a per-core clock: the core with
the smallest local time issues its next access, which runs as one atomic
coherence transaction and advances that core's clock by its latency
(plus one cycle per ``think`` instruction and one for the access
itself).  This yields a deterministic interleaving that tracks relative
progress — cores suffering misses fall behind, exactly the mechanism by
which false sharing serializes progress in the paper's linear-regression
discussion.

The machine replays one trace form: a
:class:`~repro.trace.packed.PackedTrace`, whose columns the issue loop
reads directly, so no per-event object exists at any point.  Per-core
iterables of :class:`~repro.trace.events.MemAccess` (the text trace
format, hand-built test scenarios) are packed on entry, and so must be
finite.

The run state is the per-core clocks and cursors, which both issue loops
(the scalar :meth:`Simulator._run_packed` and the batched
:mod:`repro.system.batch`) start from and write back: a run cut short by
``max_accesses`` resumes where it stopped.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Union

from repro.coherence.protocol_base import CoherenceProtocol
from repro.common.errors import SimulationError
from repro.stats.counters import RunStats
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace

Streams = Union[PackedTrace, Iterable[Iterable[MemAccess]]]


class Simulator:
    """Drives a packed trace through one protocol instance.

    ``streams`` may also be finite per-core ``MemAccess`` iterables,
    which are packed here.  ``clocks`` and ``cursor`` are the run state
    that every :meth:`run` starts from and leaves behind.
    """

    def __init__(self, protocol: CoherenceProtocol, streams: Streams,
                 obs=None, batch: Optional[bool] = None):
        if not isinstance(streams, PackedTrace):
            streams = PackedTrace.from_streams(streams)
        if streams.cores > protocol.config.cores:
            raise SimulationError(
                f"{streams.cores} streams for {protocol.config.cores} cores"
            )
        self._packed = streams
        # Batch execution over packed columns (repro.system.batch):
        # True forces it on, False off, None lets the trace decide
        # (batched only when long and reused enough to repay it).
        # Either way the run is bit-identical; ineligible
        # configurations silently take the scalar loop.
        self._batch = batch
        # Observability session (repro.obs): attached to the protocol so
        # its transaction hooks fire, and consulted here for phase timing.
        self._obs = obs
        if obs is not None:
            protocol.attach_obs(obs)
        self.protocol = protocol
        self.stats: RunStats = protocol.stats
        self.clocks = [0] * protocol.config.cores
        # Per core, the index of the next event to issue.
        self.cursor = [0] * streams.cores

    def run(self, max_accesses: Optional[int] = None, flush: bool = True) -> RunStats:
        """Run to stream exhaustion (or ``max_accesses``); returns the stats.

        A run cut short by ``max_accesses`` while events were still pending
        is flagged in ``stats.truncated`` so downstream consumers (and the
        persistent result cache) never mistake a partial run for a complete
        one.  Calling ``run`` again continues from the first event not yet
        issued.
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
        self.stats.truncated = self.cursor != self._packed.counts
        if obs is not None and obs.metrics is not None:
            self.protocol.record_obs_metrics(obs.metrics)
        return self.stats

    def _issue(self, max_accesses: Optional[int]) -> None:
        """Drain the streams through the protocol (no end-of-run flush)."""
        from repro.system.batch import maybe_run_batched

        if not maybe_run_batched(self, max_accesses):
            self._run_packed(max_accesses)

    def _run_packed(self, max_accesses: Optional[int]) -> None:
        """The scalar issue loop over packed columns: no per-event allocation.

        Heap entries are ``(clock, core)`` — ``core`` breaks every tie —
        and each pop indexes straight into the per-core column arrays.
        """
        packed = self._packed
        clocks = self.clocks
        cursor = self.cursor
        cols = [packed.core_columns(core) for core in range(packed.cores)]
        counts = packed.counts
        heap = [(clocks[core], core) for core in range(packed.cores)
                if cursor[core] < counts[core]]
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush
        protocol_read = self.protocol.read
        protocol_write = self.protocol.write
        issued = 0
        instructions = 0
        while heap:
            if max_accesses is not None and issued >= max_accesses:
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

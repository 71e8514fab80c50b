"""Tests for the trace-driven simulation loop."""

import pytest

from repro.common.errors import SimulationError
from repro.common.params import ProtocolKind, SystemConfig
from repro.system import batch as batch_mod
from repro.system._simulator import Simulator
from repro.system.machine import build_protocol
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams

from tests.conftest import ALL_KINDS, make_engine


def sim(kind=ProtocolKind.MESI, streams=(), cores=4):
    return Simulator(make_engine(kind, cores=cores), list(streams))


class TestRun:
    def test_instruction_counting(self):
        events = [MemAccess.read(0, think=4), MemAccess.read(8, think=2)]
        s = sim(streams=[events])
        stats = s.run()
        # think cycles + 1 instruction per access
        assert stats.instructions == 4 + 1 + 2 + 1

    def test_clock_advances_with_latency(self):
        s = sim(streams=[[MemAccess.read(0, think=0)]])
        stats = s.run()
        assert stats.core_cycles[0] > 0
        assert stats.core_cycles[1] == 0

    def test_max_accesses_cap(self):
        events = [MemAccess.read(i * 8) for i in range(50)]
        s = sim(streams=[events])
        stats = s.run(max_accesses=10)
        assert stats.accesses == 10

    def test_max_accesses_sets_truncated(self):
        events = [MemAccess.read(i * 8) for i in range(50)]
        stats = sim(streams=[events]).run(max_accesses=10)
        assert stats.truncated is True

    def test_complete_run_is_not_truncated(self):
        events = [MemAccess.read(i * 8) for i in range(10)]
        stats = sim(streams=[events]).run()
        assert stats.truncated is False

    def test_exact_cap_consuming_all_events_is_not_truncated(self):
        # The cap fires on the final event: nothing was cut short.
        events = [MemAccess.read(i * 8) for i in range(10)]
        stats = sim(streams=[events]).run(max_accesses=10)
        assert stats.accesses == 10
        assert stats.truncated is False

    def test_interleaving_favours_fast_core(self):
        # Core 0 has tiny think times; core 1 huge: core 0 issues more often
        # but the total still completes.
        fast = [MemAccess.read(0x1000 + 8 * i, think=0) for i in range(20)]
        slow = [MemAccess.read(0x2000 + 8 * i, think=500) for i in range(20)]
        s = sim(streams=[fast, slow])
        stats = s.run()
        assert stats.accesses == 40
        assert stats.core_cycles[1] > stats.core_cycles[0]

    def test_too_many_streams_rejected(self):
        with pytest.raises(SimulationError):
            sim(streams=[[], [], [], [], []], cores=4)

    def test_flush_classifies_resident_blocks(self):
        s = sim(streams=[[MemAccess.read(0)]])
        stats = s.run(flush=True)
        # MESI fetched 8 words, 1 touched: 1 used + 7 unused.
        assert stats.traffic.used_data == 8
        assert stats.traffic.unused_data == 56

    def test_no_flush_defers_classification(self):
        s = sim(streams=[[MemAccess.read(0)]])
        stats = s.run(flush=False)
        assert stats.traffic.used_data == 0

    def test_empty_streams(self):
        stats = sim(streams=[[], []]).run()
        assert stats.accesses == 0

    def test_deterministic_interleaving(self):
        def streams():
            return [[MemAccess.write(0x40 * c + 8 * i, think=1)
                     for i in range(10)] for c in range(3)]
        a = sim(streams=streams()).run()
        b = sim(streams=streams()).run()
        assert a.core_cycles == b.core_cycles
        assert a.traffic.total == b.traffic.total


class TestSharingTiming:
    def test_false_sharing_slows_completion(self):
        def counter(core, stride):
            return [MemAccess.write(0x1000 + core * stride, think=1)
                    for _ in range(50)]
        packed = sim(ProtocolKind.MESI, [counter(0, 8), counter(1, 8)], 2).run()
        padded = sim(ProtocolKind.MESI, [counter(0, 64), counter(1, 64)], 2).run()
        assert packed.execution_cycles() > padded.execution_cycles()


class TestResume:
    """A run cut short by ``max_accesses`` continues where it stopped."""

    @pytest.mark.parametrize("batch", [False, True],
                             ids=["scalar", "batched"])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_resumed_run_equals_the_whole_run(self, kind, batch,
                                              monkeypatch):
        ran = []

        class Spy(batch_mod._BatchRunner):
            def run(self):
                ran.append(True)
                super().run()

        monkeypatch.setattr(batch_mod, "_BatchRunner", Spy)
        config = SystemConfig(protocol=kind, cores=4)
        trace = PackedTrace.from_streams(
            build_streams("kmeans", cores=4, per_core=300, seed=0))

        def simulator():
            return Simulator(build_protocol(config), trace, batch=batch)

        whole = simulator().run().to_dict()
        resumed = simulator()
        assert resumed.run(max_accesses=600, flush=False).truncated is True
        stats = resumed.run()
        assert stats.to_dict() == whole
        assert stats.accesses == 1200
        assert stats.truncated is False
        # The batched loop really ran for the whole run and both parts.
        assert len(ran) == (3 if batch else 0)

"""Tests for the derived-column computation and its per-trace memo."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.trace import derived as derived_mod
from repro.trace.derived import DerivedColumns, derive, derived_for
from repro.trace.events import MemAccess
from repro.trace.packed import PackedTrace
from repro.trace.workloads import build_streams


def packed(workload: str = "kmeans", cores: int = 4, per_core: int = 200,
           seed: int = 0) -> PackedTrace:
    return PackedTrace.from_streams(
        build_streams(workload, cores=cores, per_core=per_core, seed=seed))


def columns_equal(a: DerivedColumns, b: DerivedColumns) -> bool:
    if (a.region_bytes, a.total_regions, len(a.per_core)) != (
            b.region_bytes, b.total_regions, len(b.per_core)):
        return False
    slots = ("region_idx", "amask", "wmask", "think_cum", "writes_cum",
             "wpop_cum", "hard_pos", "region_ids")
    return all(getattr(ca, name) == getattr(cb, name)
               for ca, cb in zip(a.per_core, b.per_core) for name in slots)


class TestDerive:
    def test_python_and_numpy_agree(self):
        trace = packed()
        if derived_mod.numpy_or_none() is None:
            pytest.skip("numpy not installed; only one derive path exists")
        assert columns_equal(derived_mod._derive_python(trace, 64),
                             derive(trace, 64))

    def test_shapes(self):
        trace = packed(cores=3, per_core=150)
        cols = derive(trace, 64)
        assert len(cols.per_core) == 3
        for core in cols.per_core:
            assert len(core.region_idx) == 150
            # Prefix sums carry a leading zero for O(1) span differences.
            assert len(core.think_cum) == 151
            assert core.think_cum[0] == 0

    def test_region_width_rejected(self):
        with pytest.raises(SimulationError):
            derive(packed(), 64 * 1024)


class TestDerivedFor:
    def test_memoizes_per_trace(self):
        trace = packed()
        assert derived_for(trace, 64) is derived_for(trace, 64)

    def test_events_hard_positions_are_sorted(self):
        cols = derive(packed("linear-regression"), 64)
        for core in cols.per_core:
            positions = list(core.hard_pos)
            assert positions == sorted(positions)

    def test_synthetic_private_trace_has_no_hard_events(self):
        # Each core touches its own disjoint regions: everything commutes.
        streams = [[MemAccess.read(c * 0x10000 + 8 * i) for i in range(20)]
                   for c in range(2)]
        cols = derive(PackedTrace.from_streams(streams), 64)
        assert all(len(core.hard_pos) == 0 for core in cols.per_core)

    def test_shared_written_region_is_hard_everywhere(self):
        # One region, read by core 0, written by core 1: every event on it
        # is a hard (non-commuting) position.
        streams = [[MemAccess.read(0) for _ in range(5)],
                   [MemAccess.write(0) for _ in range(5)]]
        cols = derive(PackedTrace.from_streams(streams), 64)
        assert all(len(core.hard_pos) == 5 for core in cols.per_core)

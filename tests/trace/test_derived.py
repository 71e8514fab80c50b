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
    if (a.region_bytes, len(a.per_core)) != (b.region_bytes, len(b.per_core)):
        return False
    slots = ("region_idx", "amask", "wmask", "region_ids")
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
            assert len(core.region_idx) == len(core.amask) == 150
            assert len(core.wmask) == 150

    def test_values_on_a_hand_built_trace(self):
        # 64-B regions of 8 words.  Core 0 writes two words of region 0 in
        # one access, and reads 24 bytes from region 1's last word: the
        # access runs into region 2, and its mask is clamped to word 7.
        streams = [[MemAccess.read(0x48), MemAccess.write(0x10, size=16),
                    MemAccess.read(0x78, size=24), MemAccess.write(0x48)],
                   [MemAccess.read(0x100), MemAccess.write(0x38),
                    MemAccess.read(0x100, size=64)]]
        trace = PackedTrace.from_streams(streams)
        # Per core: region_ids, dense region_idx, amask, wmask.
        expected = [
            ([0, 1], [1, 0, 1, 1], [0b10, 0b1100, 0b10000000, 0b10],
             [0, 0b1100, 0, 0b10]),
            ([0, 4], [1, 0, 1], [0b1, 0b10000000, 0b11111111],
             [0, 0b10000000, 0]),
        ]
        for cols in (derived_mod._derive_python(trace, 64), derive(trace, 64)):
            assert [(list(c.region_ids), list(c.region_idx), list(c.amask),
                     list(c.wmask)) for c in cols.per_core] == expected

    def test_region_width_rejected(self):
        with pytest.raises(SimulationError):
            derive(packed(), 64 * 1024)


class TestDerivedFor:
    def test_memoizes_per_trace(self):
        trace = packed()
        assert derived_for(trace, 64) is derived_for(trace, 64)

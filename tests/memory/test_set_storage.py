"""Set storage shared by the three L1 organisations.

Sets are allocated on first use, so a cache only holds the sets a run
touched; every whole-cache walk (iteration, snapshot, canonical state,
integrity check) visits them in ascending set-index order.
"""

import pytest

from repro.common.errors import SimulationError
from repro.common.wordrange import WordRange
from repro.memory.amoeba_cache import AmoebaCache
from repro.memory.block import Block, LineState
from repro.memory.fixed_cache import FixedCache
from repro.memory.sector_cache import SectorCache

SETS = 8

ORGANISATIONS = {
    "fixed": lambda: FixedCache(sets=SETS, ways=2),
    "amoeba": lambda: AmoebaCache(sets=SETS, set_bytes=288, tag_bytes=8),
    "sector": lambda: SectorCache(sets=SETS, ways=2, words_per_region=8),
}

# Inserted out of set order: sets 5, 2, 7, 2 (second way), 0.
FILL = (5, 2, 15, 10, 0)


def block(region, state=LineState.S):
    rng = WordRange(0, 7)
    return Block(region, rng, state, list(range(rng.width)))


def no_evict(victim):
    raise AssertionError(f"unexpected eviction of {victim!r}")


def fill(cache):
    for region in FILL:
        cache.insert(block(region), no_evict)
    return cache


@pytest.fixture(params=sorted(ORGANISATIONS))
def make(request):
    return ORGANISATIONS[request.param]


def test_fresh_cache_holds_no_sets(make):
    cache = make()
    assert len(cache._sets) == 0
    assert len(cache) == 0
    assert list(cache) == []
    assert cache.canonical_state() == ()


def test_only_touched_sets_exist(make):
    cache = fill(make())
    assert sorted(cache._sets) == [0, 2, 5, 7]
    assert len(cache) == len(FILL)


def test_iteration_in_ascending_set_index_order(make):
    cache = fill(make())
    # Set 0, set 2 (its two ways in insertion order), set 5, set 7.
    assert [b.region for b in cache] == [0, 2, 10, 5, 15]
    assert [entry[0] for entry in cache.canonical_state()] == [0, 2, 5, 7]


def test_snapshot_restore_canonical_state_round_trip(make):
    cache = fill(make())
    cache.lookup(2, 0)  # reorder set 2's LRU
    key = cache.canonical_state()
    order = [b.region for b in cache]
    snap = cache.snapshot()

    cache.remove(next(b for b in cache if b.region == 10))
    cache.insert(block(3, LineState.M), no_evict)  # a set the snapshot lacks
    assert cache.canonical_state() != key

    cache.restore(snap)
    assert cache.canonical_state() == key
    assert [b.region for b in cache] == order
    cache.check_integrity()

    # The snapshot is not aliased by the restored cache: mutate, restore
    # again (also into a fresh cache), and the same state comes back.
    next(iter(cache)).state = LineState.M
    cache.restore(snap)
    assert cache.canonical_state() == key
    fresh = make()
    fresh.restore(snap)
    assert fresh.canonical_state() == key
    assert [b.region for b in fresh] == order
    fresh.check_integrity()


class TestAmoebaOccupancy:
    def test_untouched_set_reads_zero_without_allocating(self):
        cache = ORGANISATIONS["amoeba"]()
        assert cache.occupancy(3) == 0
        assert cache.utilization() == 0.0
        assert len(cache._sets) == 0 and len(cache._occupancy) == 0

    def test_restore_recomputes_occupancy(self):
        cache = fill(ORGANISATIONS["amoeba"]())
        snap = cache.snapshot()
        before = [cache.occupancy(i) for i in range(SETS)]
        cache.remove(next(b for b in cache if b.region == 5))
        cache.restore(snap)
        assert [cache.occupancy(i) for i in range(SETS)] == before
        assert cache.occupancy(2) == 2 * (8 + 8 * 8)

    def test_integrity_sees_drift_in_an_unused_set(self):
        cache = fill(ORGANISATIONS["amoeba"]())
        cache._occupancy[6] += 1
        with pytest.raises(SimulationError):
            cache.check_integrity()

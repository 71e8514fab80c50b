"""Conventional fixed-granularity set-associative cache (the MESI L1).

Reuses :class:`~repro.memory.block.Block` with a full-region range, so the
protocol engines can treat fixed and Amoeba L1s uniformly.  Geometry is the
classic sets x ways layout with LRU replacement.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.wordrange import WordRange
from repro.memory.block import Block

EvictionHook = Callable[[Block], None]


class FixedCache:
    """One core-private fixed-granularity L1 cache."""

    def __init__(self, sets: int, ways: int):
        if sets <= 0 or ways <= 0:
            raise SimulationError("cache geometry must be positive")
        self.num_sets = sets
        self.ways = ways
        # Keyed by set index and created on first use: a short run touches
        # a few of the hundreds of sets, and only those are ever built.
        # Every whole-cache walk visits them in ascending index order.
        self._sets: DefaultDict[int, List[Block]] = defaultdict(list)
        self._tick = 0

    def set_index(self, region: int) -> int:
        return region % self.num_sets

    def _bump(self, block: Block) -> None:
        self._tick += 1
        block.last_use = self._tick

    # -- lookups -----------------------------------------------------------

    def lookup(self, region: int, word: int) -> Optional[Block]:
        for block in self._sets[self.set_index(region)]:
            if block.region == region:
                self._bump(block)
                return block
        return None

    def peek(self, region: int, word: int = 0) -> Optional[Block]:
        for block in self._sets[self.set_index(region)]:
            if block.region == region:
                return block
        return None

    def blocks_of(self, region: int) -> List[Block]:
        return [b for b in self._sets[region % self.num_sets] if b.region == region]

    def overlapping(self, region: int, rng: WordRange) -> List[Block]:
        mask = rng.mask
        return [b for b in self._sets[region % self.num_sets]
                if b.region == region and b.range.mask & mask]

    def covered_mask(self, region: int, rng: WordRange) -> int:
        want = rng.to_mask()
        block = self.peek(region)
        return block.range.to_mask() & want if block else 0

    def __iter__(self) -> Iterator[Block]:
        for _, line in sorted(self._sets.items()):
            yield from line

    def __len__(self) -> int:
        return sum(len(line) for line in self._sets.values())

    # -- mutation ----------------------------------------------------------

    def remove(self, block: Block) -> None:
        line = self._sets[self.set_index(block.region)]
        try:
            line.remove(block)
        except ValueError:
            raise SimulationError(f"removing non-resident {block!r}")

    def insert(self, block: Block, evict: EvictionHook) -> List[Block]:
        """Install ``block``; evict the LRU way if the set is full."""
        index = self.set_index(block.region)
        line = self._sets[index]
        for other in line:
            if other.region == block.region:
                raise SimulationError(f"duplicate block for region {block.region}")
        victims: List[Block] = []
        while len(line) >= self.ways:
            victim = min(line, key=lambda b: b.last_use)
            self.remove(victim)
            victims.append(victim)
            evict(victim)
        line.append(block)
        self._bump(block)
        return victims

    # -- model-checking hooks ----------------------------------------------

    def snapshot(self):
        """Opaque copy of the cache contents (blocks cloned both ways)."""
        return ({index: [b.clone() for b in line]
                 for index, line in self._sets.items() if line}, self._tick)

    def restore(self, snap) -> None:
        """Reinstate a state captured by :meth:`snapshot`."""
        lines, tick = snap
        self._sets = defaultdict(list, {index: [b.clone() for b in line]
                                        for index, line in lines.items()})
        self._tick = tick

    def canonical_state(self):
        """Hashable control-state summary: per set, blocks in LRU order.

        Data values, touched/fetched masks, and absolute recency ticks are
        excluded — they do not influence which transitions are possible,
        only the statistics — so the model checker's state dedup is sound
        and actually converges.
        """
        return tuple(
            (index, tuple(
                (b.region, b.range.as_tuple(), b.state.value, b.dirty_mask)
                for b in sorted(line, key=lambda b: b.last_use)
            ))
            for index, line in sorted(self._sets.items()) if line
        )

    def check_integrity(self) -> None:
        for index, line in sorted(self._sets.items()):
            if len(line) > self.ways:
                raise SimulationError(f"set {index} holds {len(line)} > {self.ways}")
            regions = [b.region for b in line]
            if len(set(regions)) != len(regions):
                raise SimulationError(f"set {index} holds duplicate regions")
            for block in line:
                if self.set_index(block.region) != index:
                    raise SimulationError(f"{block!r} in wrong set {index}")

"""Amoeba-Cache: a set-associative cache of variable-granularity blocks.

Each set holds a byte budget (``set_bytes``) rather than a fixed number of
ways; every resident block costs its collocated tag plus its data words
(paper Figure 2).  All blocks of one REGION index into the same set, so the
multi-step CHECK/GATHER snoop of Figure 3 is a single-set operation.

Invariants maintained here (and property-tested):
  * blocks within a set never overlap (same region, intersecting ranges);
  * per-set occupancy never exceeds the byte budget;
  * a block's range never spans a region boundary.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.wordrange import WordRange
from repro.memory.block import Block

EvictionHook = Callable[[Block], None]


class AmoebaCache:
    """One core-private variable-granularity L1 cache."""

    def __init__(self, sets: int, set_bytes: int, tag_bytes: int = 8, word_bytes: int = 8):
        if sets <= 0 or set_bytes < tag_bytes + word_bytes:
            raise SimulationError("set budget cannot hold even a one-word block")
        self.num_sets = sets
        self.set_bytes = set_bytes
        self.tag_bytes = tag_bytes
        self.word_bytes = word_bytes
        # Sets and their byte occupancy are keyed by set index and created
        # on first use (a short run touches few of them); whole-cache walks
        # visit them in ascending index order.
        self._sets: DefaultDict[int, List[Block]] = defaultdict(list)
        self._occupancy: DefaultDict[int, int] = defaultdict(int)
        self._tick = 0

    # -- indexing ----------------------------------------------------------

    def set_index(self, region: int) -> int:
        return region % self.num_sets

    def _bump(self, block: Block) -> None:
        self._tick += 1
        block.last_use = self._tick

    # -- lookups -----------------------------------------------------------

    def lookup(self, region: int, word: int) -> Optional[Block]:
        """The resident block covering ``word`` of ``region``, if any."""
        for block in self._sets[self.set_index(region)]:
            if block.region == region and block.range.contains(word):
                self._bump(block)
                return block
        return None

    def peek(self, region: int, word: int) -> Optional[Block]:
        """Like :meth:`lookup` but without updating recency."""
        for block in self._sets[self.set_index(region)]:
            if block.region == region and block.range.contains(word):
                return block
        return None

    def blocks_of(self, region: int) -> List[Block]:
        """All resident blocks of a region (the CHECK step of Figure 3)."""
        return [b for b in self._sets[region % self.num_sets] if b.region == region]

    def overlapping(self, region: int, rng: WordRange) -> List[Block]:
        """Resident blocks of ``region`` intersecting ``rng``."""
        mask = rng.mask
        return [b for b in self._sets[region % self.num_sets]
                if b.region == region and b.range.mask & mask]

    def covered_mask(self, region: int, rng: WordRange) -> int:
        """Bitmask of the words of ``rng`` currently resident for ``region``."""
        have = 0
        for block in self._sets[region % self.num_sets]:
            if block.region == region:
                have |= block.range.mask
        return have & rng.mask

    def __iter__(self) -> Iterator[Block]:
        for _, line in sorted(self._sets.items()):
            yield from line

    def __len__(self) -> int:
        return sum(len(line) for line in self._sets.values())

    # -- mutation ----------------------------------------------------------

    def remove(self, block: Block) -> None:
        """Take ``block`` out of the cache (GATHER step; also invalidation)."""
        line = self._sets[self.set_index(block.region)]
        try:
            line.remove(block)
        except ValueError:
            raise SimulationError(f"removing non-resident {block!r}")
        self._occupancy[self.set_index(block.region)] -= block.footprint_bytes(
            self.tag_bytes, self.word_bytes
        )

    def insert(self, block: Block, evict: EvictionHook) -> List[Block]:
        """Install ``block``, evicting LRU victims until it fits.

        ``evict`` is called for each victim *before* the install completes
        (the protocol turns victims into writebacks).  The caller must have
        already removed or merged any overlapping blocks of the same region;
        violating that is a protocol bug and raises.

        Returns the list of evicted victims.
        """
        index = self.set_index(block.region)
        line = self._sets[index]
        for other in line:
            if other.region == block.region and other.range.overlaps(block.range):
                raise SimulationError(
                    f"inserting {block!r} overlapping resident {other!r}"
                )
        need = block.footprint_bytes(self.tag_bytes, self.word_bytes)
        victims: List[Block] = []
        while self._occupancy[index] + need > self.set_bytes:
            victim = min(line, key=lambda b: b.last_use)
            self.remove(victim)
            victims.append(victim)
            evict(victim)
        line.append(block)
        self._occupancy[index] += need
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
        self._occupancy = defaultdict(int, {
            index: sum(b.footprint_bytes(self.tag_bytes, self.word_bytes)
                       for b in line)
            for index, line in self._sets.items()
        })

    def canonical_state(self):
        """Hashable control-state summary: per set, blocks in LRU order.

        Excludes data values and usage masks (statistics only); keeps the
        relative LRU order because it decides future eviction victims.
        """
        return tuple(
            (index, tuple(
                (b.region, b.range.as_tuple(), b.state.value, b.dirty_mask)
                for b in sorted(line, key=lambda b: b.last_use)
            ))
            for index, line in sorted(self._sets.items()) if line
        )

    # -- accounting --------------------------------------------------------

    def occupancy(self, index: int) -> int:
        return self._occupancy.get(index, 0)

    def utilization(self) -> float:
        """Fraction of the total byte budget currently occupied."""
        return (sum(self._occupancy.values())
                / float(self.num_sets * self.set_bytes))

    def check_integrity(self) -> None:
        """Assert structural invariants (used by tests and debug runs)."""
        for index in sorted(self._sets.keys() | self._occupancy.keys()):
            line = self._sets.get(index, [])
            occ = 0
            for i, a in enumerate(line):
                if self.set_index(a.region) != index:
                    raise SimulationError(f"{a!r} in wrong set {index}")
                occ += a.footprint_bytes(self.tag_bytes, self.word_bytes)
                for b in line[i + 1 :]:
                    if a.region == b.region and a.range.overlaps(b.range):
                        raise SimulationError(f"overlap: {a!r} vs {b!r}")
            tracked = self._occupancy.get(index, 0)
            if occ != tracked:
                raise SimulationError(
                    f"set {index} occupancy drift {occ} != {tracked}"
                )
            if occ > self.set_bytes:
                raise SimulationError(f"set {index} over budget: {occ}")

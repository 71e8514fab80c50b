"""Decoupled sector cache: an alternative variable-granularity L1.

The paper (Section 3.1) notes that Protozoa's coherence support is
portable to other variable-granularity storage organisations — decoupled
sector caches [Seznec '94, Rothman & Smith '99] and word-organized caches —
and uses Amoeba-Cache only as a proof of concept.  This module implements
the sector-cache alternative so that portability claim is executable.

Organisation: a conventional sets x ways tag array at REGION granularity;
each way's data store holds the full region's words, but only *valid
sectors* (word ranges) are resident.  Compared with Amoeba:

* tags cost one per region (cheaper for dense regions, pricier for a
  region caching a single word);
* data space is reserved for the whole region once a tag is allocated, so
  sparse regions waste data capacity (the trade-off the Amoeba paper
  quantifies, reproduced by ``benchmarks/test_ablation_substrate.py``).

The protocol engines interact with caches through blocks; a sector cache
exposes each region's resident words as one :class:`Block` per maximal
contiguous valid run, so every engine works unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.wordrange import WordRange
from repro.memory.block import Block, LineState

EvictionHook = Callable[[Block], None]

_STATE_RANK = {LineState.S: 0, LineState.E: 1, LineState.M: 2}


class _SectorFrame:
    """One tag's worth of region storage: valid words exposed as blocks."""

    __slots__ = ("region", "blocks", "last_use")

    def __init__(self, region: int):
        self.region = region
        self.blocks: List[Block] = []
        self.last_use = 0

    def valid_mask(self) -> int:
        mask = 0
        for block in self.blocks:
            mask |= block.range.to_mask()
        return mask


class SectorCache:
    """Set-associative region-tagged cache with per-word validity.

    Interface-compatible with :class:`~repro.memory.amoeba_cache.AmoebaCache`
    (lookup/peek/blocks_of/overlapping/covered_mask/insert/remove/iteration),
    so the coherence engines treat both identically.
    """

    def __init__(self, sets: int, ways: int, words_per_region: int = 8):
        if sets <= 0 or ways <= 0:
            raise SimulationError("sector cache geometry must be positive")
        self.num_sets = sets
        self.ways = ways
        self.words_per_region = words_per_region
        # Keyed by set index and created on first use (a short run touches
        # few sets); whole-cache walks visit them in ascending index order.
        self._sets: DefaultDict[int, List[_SectorFrame]] = defaultdict(list)
        self._tick = 0

    # -- indexing ----------------------------------------------------------

    def set_index(self, region: int) -> int:
        return region % self.num_sets

    def _frame(self, region: int) -> Optional[_SectorFrame]:
        for frame in self._sets[self.set_index(region)]:
            if frame.region == region:
                return frame
        return None

    def _bump(self, frame: _SectorFrame) -> None:
        self._tick += 1
        frame.last_use = self._tick

    # -- queries -----------------------------------------------------------

    def lookup(self, region: int, word: int) -> Optional[Block]:
        frame = self._frame(region)
        if frame is None:
            return None
        for block in frame.blocks:
            if block.range.contains(word):
                self._bump(frame)
                self._tick += 1
                block.last_use = self._tick
                return block
        return None

    def peek(self, region: int, word: int) -> Optional[Block]:
        frame = self._frame(region)
        if frame is None:
            return None
        for block in frame.blocks:
            if block.range.contains(word):
                return block
        return None

    def blocks_of(self, region: int) -> List[Block]:
        frame = self._frame(region)
        return list(frame.blocks) if frame else []

    def overlapping(self, region: int, rng: WordRange) -> List[Block]:
        frame = self._frame(region)
        if frame is None:
            return []
        mask = rng.mask
        return [b for b in frame.blocks if b.range.mask & mask]

    def covered_mask(self, region: int, rng: WordRange) -> int:
        frame = self._frame(region)
        if frame is None:
            return 0
        return frame.valid_mask() & rng.to_mask()

    def __iter__(self) -> Iterator[Block]:
        for _, line in sorted(self._sets.items()):
            for frame in line:
                yield from frame.blocks

    def __len__(self) -> int:
        return sum(len(frame.blocks)
                   for line in self._sets.values() for frame in line)

    # -- mutation ----------------------------------------------------------

    def remove(self, block: Block) -> None:
        frame = self._frame(block.region)
        if frame is None or block not in frame.blocks:
            raise SimulationError(f"removing non-resident {block!r}")
        frame.blocks.remove(block)
        if not frame.blocks:
            self._sets[self.set_index(block.region)].remove(frame)

    def insert(self, block: Block, evict: EvictionHook) -> List[Block]:
        """Install ``block``; allocating a new tag may evict a whole frame.

        Frame eviction surfaces each of the victim frame's blocks through
        ``evict`` (the protocol writes dirty ones back), mirroring a sector
        cache invalidating a tag and all its sectors at once.
        """
        index = self.set_index(block.region)
        frame = self._frame(block.region)
        victims: List[Block] = []
        if frame is None:
            line = self._sets[index]
            while len(line) >= self.ways:
                victim = min(line, key=lambda f: f.last_use)
                line.remove(victim)
                for vb in victim.blocks:
                    victims.append(vb)
                    evict(vb)
            frame = _SectorFrame(block.region)
            line.append(frame)
        else:
            for other in frame.blocks:
                if other.range.overlaps(block.range):
                    raise SimulationError(
                        f"inserting {block!r} overlapping resident {other!r}"
                    )
        frame.blocks.append(block)
        self._bump(frame)
        self._tick += 1
        block.last_use = self._tick
        return victims

    # -- model-checking hooks ----------------------------------------------

    def snapshot(self):
        """Opaque copy of the cache contents (blocks cloned both ways)."""
        return (
            {
                index: [(f.region, f.last_use, [b.clone() for b in f.blocks])
                        for f in line]
                for index, line in self._sets.items() if line
            },
            self._tick,
        )

    def restore(self, snap) -> None:
        """Reinstate a state captured by :meth:`snapshot`."""
        lines, tick = snap
        self._sets = defaultdict(list)
        for index, line in lines.items():
            new_line = self._sets[index]
            for region, last_use, blocks in line:
                frame = _SectorFrame(region)
                frame.last_use = last_use
                frame.blocks = [b.clone() for b in blocks]
                new_line.append(frame)
        self._tick = tick

    def canonical_state(self):
        """Hashable control-state summary: frames in LRU order.

        Replacement is per *frame* here, so only the frames' relative
        recency matters; each frame's sectors are listed sorted (their
        in-frame order never affects behaviour).
        """
        return tuple(
            (index, tuple(
                (
                    f.region,
                    tuple(sorted(
                        (b.range.as_tuple(), b.state.value, b.dirty_mask)
                        for b in f.blocks
                    )),
                )
                for f in sorted(line, key=lambda f: f.last_use)
            ))
            for index, line in sorted(self._sets.items()) if line
        )

    # -- integrity ---------------------------------------------------------

    def check_integrity(self) -> None:
        for index, line in sorted(self._sets.items()):
            if len(line) > self.ways:
                raise SimulationError(f"set {index} holds {len(line)} frames")
            regions = [f.region for f in line]
            if len(set(regions)) != len(regions):
                raise SimulationError(f"set {index} holds duplicate regions")
            for frame in line:
                if self.set_index(frame.region) != index:
                    raise SimulationError(f"frame R{frame.region} in wrong set")
                if not frame.blocks:
                    raise SimulationError(f"empty frame R{frame.region} retained")
                for i, a in enumerate(frame.blocks):
                    if a.region != frame.region:
                        raise SimulationError(f"{a!r} in frame R{frame.region}")
                    for b in frame.blocks[i + 1:]:
                        if a.range.overlaps(b.range):
                            raise SimulationError(f"overlap {a!r} vs {b!r}")

"""Contiguous word ranges inside a coherence REGION.

An Amoeba-Block covers a contiguous, inclusive range of word slots
``[start, end]`` within one aligned REGION (the paper's Figure 2).  The
range never spans a region boundary, so both endpoints are small
non-negative integers (``0..words_per_region-1``).

``WordRange`` is immutable and hashable so it can be used as a dict key and
stored safely in sets; combining operations return new ranges, or an
operand unchanged when it already is the answer.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple


class WordRange:
    """An inclusive ``[start, end]`` range of word indices within a region."""

    __slots__ = ("start", "end", "width", "mask")

    def __init__(self, start: int, end: int):
        if start < 0 or end < start:
            raise ValueError(f"invalid word range [{start}, {end}]")
        # width and mask are derived but precomputed: they sit on the
        # per-access hot path, where a property/shift per call dominates.
        width = end - start + 1
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "mask", ((1 << width) - 1) << start)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("WordRange is immutable")

    def contains(self, word: int) -> bool:
        """True if ``word`` lies inside the range."""
        return self.start <= word <= self.end

    def covers(self, other: "WordRange") -> bool:
        """True if ``other`` lies entirely inside this range."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "WordRange") -> bool:
        """True if the two ranges share at least one word."""
        return self.start <= other.end and other.start <= self.end

    def adjacent(self, other: "WordRange") -> bool:
        """True if the ranges touch without overlapping (e.g. 0-3 and 4-7)."""
        return self.end + 1 == other.start or other.end + 1 == self.start

    def words(self) -> Iterator[int]:
        """Iterate over the word indices in the range."""
        return iter(range(self.start, self.end + 1))

    # -- combining ---------------------------------------------------------

    def intersect(self, other: "WordRange") -> Optional["WordRange"]:
        """The overlapping sub-range, or None when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return WordRange(lo, hi)

    def span(self, other: "WordRange") -> "WordRange":
        """The smallest range covering both inputs (fills any gap); an
        operand that already covers the other is returned, ``self`` first."""
        if self.start <= other.start and other.end <= self.end:
            return self
        if other.start <= self.start and self.end <= other.end:
            return other
        return WordRange(min(self.start, other.start), max(self.end, other.end))

    def subtract(self, other: "WordRange") -> List["WordRange"]:
        """The parts of this range not covered by ``other`` (0-2 pieces)."""
        if not self.overlaps(other):
            return [self]
        pieces: List[WordRange] = []
        if self.start < other.start:
            pieces.append(WordRange(self.start, other.start - 1))
        if other.end < self.end:
            pieces.append(WordRange(other.end + 1, self.end))
        return pieces

    # -- bitmap helpers ----------------------------------------------------

    def to_mask(self) -> int:
        """Bitmask with a set bit per covered word (bit i = word i)."""
        return self.mask

    @staticmethod
    def spanning_mask(mask: int) -> Optional["WordRange"]:
        """Smallest contiguous range covering every set bit of ``mask``."""
        if mask == 0:
            return None
        lo = (mask & -mask).bit_length() - 1
        hi = mask.bit_length() - 1
        return WordRange(lo, hi)

    @staticmethod
    def full(words_per_region: int) -> "WordRange":
        """The range covering a whole region."""
        return WordRange(0, words_per_region - 1)

    # -- dunder ------------------------------------------------------------

    def as_tuple(self) -> Tuple[int, int]:
        return (self.start, self.end)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordRange)
            and self.start == other.start
            and self.end == other.end
        )

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"WordRange({self.start}, {self.end})"

    def __str__(self) -> str:
        return f"[{self.start}-{self.end}]"


def union_mask(ranges) -> int:
    """Bitmask covering the union of an iterable of ranges."""
    mask = 0
    for r in ranges:
        mask |= r.mask
    return mask


def mask_to_ranges(mask: int) -> List[WordRange]:
    """Decompose a bitmask into maximal contiguous ranges, ascending."""
    ranges: List[WordRange] = []
    word = 0
    while mask:
        if mask & 1:
            start = word
            while mask & 1:
                mask >>= 1
                word += 1
            ranges.append(WordRange(start, word - 1))
        else:
            mask >>= 1
            word += 1
    return ranges


def popcount(mask: int) -> int:
    """Number of set bits (words) in a mask."""
    return mask.bit_count()

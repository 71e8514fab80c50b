"""Unit and property tests for WordRange interval arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.common.wordrange import (
    WordRange,
    mask_to_ranges,
    popcount,
    union_mask,
)

ranges = st.integers(0, 7).flatmap(
    lambda s: st.integers(s, 7).map(lambda e: WordRange(s, e))
)


class TestConstruction:
    def test_single_word(self):
        r = WordRange(3, 3)
        assert r.width == 1
        assert list(r.words()) == [3]

    def test_full_region(self):
        assert WordRange.full(8) == WordRange(0, 7)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            WordRange(-1, 3)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            WordRange(5, 2)

    def test_immutable(self):
        r = WordRange(1, 2)
        with pytest.raises(AttributeError):
            r.start = 0

    def test_repr_and_str(self):
        assert repr(WordRange(1, 3)) == "WordRange(1, 3)"
        assert str(WordRange(1, 3)) == "[1-3]"


class TestQueries:
    def test_contains_boundaries(self):
        r = WordRange(2, 5)
        assert r.contains(2) and r.contains(5)
        assert not r.contains(1) and not r.contains(6)

    def test_covers(self):
        assert WordRange(0, 7).covers(WordRange(3, 4))
        assert not WordRange(3, 4).covers(WordRange(0, 7))
        assert WordRange(3, 4).covers(WordRange(3, 4))

    def test_overlaps_adjacent_ranges_do_not(self):
        assert not WordRange(0, 3).overlaps(WordRange(4, 7))
        assert WordRange(0, 4).overlaps(WordRange(4, 7))

    def test_adjacent(self):
        assert WordRange(0, 3).adjacent(WordRange(4, 7))
        assert WordRange(4, 7).adjacent(WordRange(0, 3))
        assert not WordRange(0, 3).adjacent(WordRange(5, 7))
        assert not WordRange(0, 4).adjacent(WordRange(4, 7))


class TestCombining:
    def test_intersect_disjoint_is_none(self):
        assert WordRange(0, 1).intersect(WordRange(3, 5)) is None

    def test_intersect_partial(self):
        assert WordRange(0, 4).intersect(WordRange(3, 7)) == WordRange(3, 4)

    def test_span_fills_gap(self):
        assert WordRange(0, 1).span(WordRange(5, 6)) == WordRange(0, 6)

    def test_span_returns_a_covering_operand(self):
        # The miss path's merge fixpoint stops on ``wider is req``.
        a, b = WordRange(0, 7), WordRange(2, 5)
        assert a.span(b) is a
        assert b.span(a) is a
        assert a.span(WordRange(0, 7)) is a
        assert WordRange(2, 5).span(WordRange(4, 6)) == WordRange(2, 6)

    def test_subtract_middle_splits(self):
        parts = WordRange(0, 7).subtract(WordRange(3, 4))
        assert parts == [WordRange(0, 2), WordRange(5, 7)]

    def test_subtract_disjoint_returns_self(self):
        assert WordRange(0, 2).subtract(WordRange(5, 7)) == [WordRange(0, 2)]

    def test_subtract_total_is_empty(self):
        assert WordRange(3, 4).subtract(WordRange(0, 7)) == []


class TestMasks:
    def test_to_mask(self):
        assert WordRange(0, 7).to_mask() == 0xFF
        assert WordRange(2, 3).to_mask() == 0b1100

    def test_spanning_mask(self):
        assert WordRange.spanning_mask(0b0110) == WordRange(1, 2)
        assert WordRange.spanning_mask(0b1000001) == WordRange(0, 6)
        assert WordRange.spanning_mask(0) is None

    def test_mask_to_ranges(self):
        assert mask_to_ranges(0b1011) == [WordRange(0, 1), WordRange(3, 3)]
        assert mask_to_ranges(0) == []

    def test_union_mask(self):
        assert union_mask([WordRange(0, 1), WordRange(3, 3)]) == 0b1011

    def test_popcount(self):
        assert popcount(0b1011) == 3
        assert popcount(0) == 0


class TestHashing:
    def test_equal_ranges_hash_equal(self):
        assert hash(WordRange(1, 3)) == hash(WordRange(1, 3))
        assert WordRange(1, 3) == WordRange(1, 3)

    def test_usable_as_dict_key(self):
        d = {WordRange(0, 1): "a"}
        assert d[WordRange(0, 1)] == "a"

    def test_not_equal_to_tuple(self):
        assert WordRange(1, 3) != (1, 3)


class TestProperties:
    @given(ranges, ranges)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(ranges, ranges)
    def test_intersect_matches_mask_and(self, a, b):
        inter = a.intersect(b)
        mask = a.to_mask() & b.to_mask()
        if inter is None:
            assert mask == 0
        else:
            assert inter.to_mask() == mask

    @given(ranges, ranges)
    def test_span_covers_both(self, a, b):
        s = a.span(b)
        assert s.covers(a) and s.covers(b)

    @given(ranges, ranges)
    def test_subtract_disjoint_from_other(self, a, b):
        for piece in a.subtract(b):
            assert not piece.overlaps(b)
            assert a.covers(piece)

    @given(ranges, ranges)
    def test_subtract_preserves_words(self, a, b):
        kept = set()
        for piece in a.subtract(b):
            kept.update(piece.words())
        expected = set(a.words()) - set(b.words())
        assert kept == expected

    @given(ranges)
    def test_mask_roundtrip(self, a):
        assert mask_to_ranges(a.to_mask()) == [a]

    @given(st.integers(0, 255))
    def test_mask_to_ranges_partition(self, mask):
        pieces = mask_to_ranges(mask)
        assert union_mask(pieces) == mask
        for x, y in zip(pieces, pieces[1:]):
            assert x.end + 1 < y.start  # maximal and ordered

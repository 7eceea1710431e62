"""Tests for the interval-set bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntervalSet
from repro.core.intervals import cut_extents

interval = st.tuples(
    st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=100)
).map(lambda t: (t[0], t[0] + t[1]))


class TestAdd:
    def test_first_add_returns_whole_gap(self):
        s = IntervalSet()
        assert s.add(10, 20) == [(10, 20)]

    def test_fully_covered_add_returns_nothing(self):
        s = IntervalSet()
        s.add(0, 100)
        assert s.add(10, 20) == []

    def test_partial_overlap(self):
        s = IntervalSet()
        s.add(0, 10)
        assert s.add(5, 15) == [(10, 15)]

    def test_gap_in_middle(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(20, 30)
        assert s.add(0, 30) == [(10, 20)]

    def test_adjacent_intervals_coalesce(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(10, 20)
        assert s.intervals() == [(0, 20)]

    def test_zero_length_add(self):
        s = IntervalSet()
        assert s.add(5, 5) == []
        assert len(s) == 0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalSet().gaps_in(10, 5)


class TestQueries:
    def test_covers(self):
        s = IntervalSet()
        s.add(0, 100)
        assert s.covers(10, 50)
        assert not s.covers(50, 150)

    def test_contains_point(self):
        s = IntervalSet()
        s.add(10, 20)
        assert 10 in s and 19 in s
        assert 9 not in s and 20 not in s

    def test_total(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(20, 25)
        assert s.total() == 15

    def test_gaps_in(self):
        s = IntervalSet()
        s.add(10, 20)
        s.add(30, 40)
        assert s.gaps_in(0, 50) == [(0, 10), (20, 30), (40, 50)]


class TestProperties:
    @given(st.lists(interval, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_set_semantics(self, intervals):
        s = IntervalSet()
        shadow: set[int] = set()
        for start, end in intervals:
            gaps = s.add(start, end)
            gap_points = set()
            for g0, g1 in gaps:
                gap_points.update(range(g0, g1))
            # the reported gaps are exactly the new points
            assert gap_points == set(range(start, end)) - shadow
            shadow.update(range(start, end))
        assert s.total() == len(shadow)
        # disjoint + sorted invariants
        ivs = s.intervals()
        for (s1, e1), (s2, _e2) in zip(ivs, ivs[1:]):
            assert e1 < s2  # coalescing leaves no adjacency

    @given(st.lists(interval, max_size=20), interval)
    @settings(max_examples=100, deadline=None)
    def test_gaps_query_consistent(self, intervals, probe):
        s = IntervalSet()
        shadow: set[int] = set()
        for start, end in intervals:
            s.add(start, end)
            shadow.update(range(start, end))
        start, end = probe
        gap_points = set()
        for g0, g1 in s.gaps_in(start, end):
            gap_points.update(range(g0, g1))
        assert gap_points == set(range(start, end)) - shadow


class TestCutExtents:
    @given(
        st.lists(interval, max_size=12),
        st.lists(interval, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_pieces_match_the_interval_set(self, claims, extents):
        """Pieces tile each extent in order; a gap piece is exactly a
        gap :class:`IntervalSet` reports, and an inside piece is the
        overlap with one interval."""
        claimed = IntervalSet()
        for start, end in claims:
            claimed.add(start, end)
        bounds = claimed.intervals()
        starts = np.array([b[0] for b in bounds], dtype=np.int64)
        ends = np.array([b[1] for b in bounds], dtype=np.int64)
        lo = np.array([e[0] for e in extents], dtype=np.int64)
        hi = np.array([e[1] for e in extents], dtype=np.int64)
        extent, inside, begin, end = cut_extents(starts, ends, lo, hi)
        for k, (e_lo, e_hi) in enumerate(extents):
            mine = extent == k
            pieces = list(zip(begin[mine].tolist(), end[mine].tolist()))
            cursor = e_lo
            for b, e in pieces:
                assert b == cursor < e
                cursor = e
            assert cursor == e_hi or (not pieces and e_lo == e_hi)
            gaps = [p for p, j in zip(pieces, inside[mine].tolist()) if j < 0]
            assert gaps == claimed.gaps_in(e_lo, e_hi)
            for (b, e), j in zip(pieces, inside[mine].tolist()):
                if j >= 0:
                    assert (b, e) == (max(e_lo, bounds[j][0]), min(e_hi, bounds[j][1]))
        assert np.all(np.diff(extent) >= 0)

"""Disjoint byte-interval bookkeeping for the Data Reorganizer.

When the reorganizer walks a group's requests it must know which bytes
of the original file are *already claimed* by an earlier region (a byte
can live in exactly one reordered location).  :class:`IntervalSet`
tracks claimed half-open intervals ``[start, end)`` and reports, for a
new claim, exactly the sub-intervals that were previously unclaimed.
:func:`cut_extents` is the batch form of the same question: it cuts a
whole array of extents at a sorted set of disjoint intervals at once,
which is how the DRT translates a batch and how the columnar
reorganizer finds its claims.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

__all__ = ["IntervalSet", "cut_extents"]


class IntervalSet:
    """A set of disjoint, sorted half-open integer intervals."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def total(self) -> int:
        """Total bytes covered."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def intervals(self) -> list[tuple[int, int]]:
        """The covered intervals as ``(start, end)`` pairs, sorted."""
        return list(zip(self._starts, self._ends))

    def gaps_in(self, start: int, end: int) -> list[tuple[int, int]]:
        """Sub-intervals of ``[start, end)`` not currently covered."""
        if start < 0 or end < start:
            raise ValueError(f"bad interval [{start}, {end})")
        if start == end:
            return []
        gaps: list[tuple[int, int]] = []
        cursor = start
        # first interval possibly overlapping: the one before the
        # insertion point of `start` among ends
        idx = bisect_right(self._ends, start)
        while cursor < end and idx < len(self._starts):
            s, e = self._starts[idx], self._ends[idx]
            if s >= end:
                break
            if s > cursor:
                gaps.append((cursor, min(s, end)))
            cursor = max(cursor, e)
            idx += 1
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def covers(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` is fully covered."""
        return not self.gaps_in(start, end)

    def add(self, start: int, end: int) -> list[tuple[int, int]]:
        """Claim ``[start, end)``; returns the newly covered gaps.

        Adjacent/overlapping intervals are coalesced, keeping the
        internal lists small for long sequential claims.
        """
        gaps = self.gaps_in(start, end)
        if start == end:
            return gaps
        # locate the span of existing intervals that merge with [start, end)
        lo = bisect_left(self._ends, start)
        hi = bisect_right(self._starts, end)
        if lo < hi:
            new_start = min(start, self._starts[lo])
            new_end = max(end, self._ends[hi - 1])
            del self._starts[lo:hi]
            del self._ends[lo:hi]
            self._starts.insert(lo, new_start)
            self._ends.insert(lo, new_end)
        else:
            # nothing merges: the intervals before ``lo`` end before
            # ``start`` and the rest start after ``end``
            self._starts.insert(lo, start)
            self._ends.insert(lo, end)
        return gaps

    def __contains__(self, point: int) -> bool:
        idx = bisect_right(self._starts, point) - 1
        return idx >= 0 and point < self._ends[idx]


def cut_extents(
    starts: np.ndarray, ends: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut every extent ``[lo[k], hi[k])`` at sorted disjoint intervals.

    ``starts``/``ends`` are disjoint intervals sorted by start (so the
    ends are sorted too).  Returns the pieces as ``(extent, interval,
    begin, end)`` columns, extent by extent and ascending within one:
    ``interval`` is ``j`` for a piece inside interval ``j`` and ``-1``
    for a piece no interval covers.  The pieces of an extent tile it;
    an empty extent has none.

    Two ``searchsorted`` calls give each extent the intervals it
    overlaps, ``[first, stop)``.  Its ``m = stop - first`` overlaps and
    the ``m + 1`` gaps around them interleave into ``2m + 1`` slots
    (gap, interval, gap, ..., gap); slots of zero length are dropped.
    """
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    live = hi > lo
    if starts.size == 0:
        extent = np.flatnonzero(live)
        outside = np.full(extent.size, -1, dtype=np.int64)
        return extent, outside, lo[extent], hi[extent]
    first = np.searchsorted(ends, lo, side="right")
    overlaps = np.searchsorted(starts, hi, side="left") - first
    slots = np.where(live, 2 * overlaps + 1, 0)
    extent = np.repeat(np.arange(lo.size), slots)
    slot = np.arange(extent.size) - np.repeat(np.cumsum(slots) - slots, slots)
    half = slot >> 1
    inside = (slot & 1).astype(bool)
    # interval ``j`` for an inside slot; the interval after a gap slot
    j = first[extent] + half
    cur = np.minimum(j, starts.size - 1)
    prev = np.maximum(j - 1, 0)
    e_lo = lo[extent]
    e_hi = hi[extent]
    begin = np.where(
        inside,
        np.maximum(e_lo, starts[cur]),
        np.where(half == 0, e_lo, ends[prev]),
    )
    end = np.where(
        inside,
        np.minimum(e_hi, ends[cur]),
        np.where(half == overlaps[extent], e_hi, starts[cur]),
    )
    keep = end > begin
    return extent[keep], np.where(inside, j, -1)[keep], begin[keep], end[keep]

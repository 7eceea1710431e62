"""Region-partitioned layouts: a different stripe pair per file region.

HARL (Fig. 2) divides a file's logical space into consecutive regions
and gives each one its own :class:`~repro.layouts.varied.VariedStripeLayout`.
MHA's reordered region files each carry a single varied layout, but the
*original* file view used before reordering is also region-shaped, so
both schemes share this composition.

Each region maps into its own storage object (named
``f"{obj}/r{index}"``), matching the implementation note in §III-E that
"each region is implemented by a physical file in the same file
system".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import LayoutError
from .base import Layout, SubRequest
from .batch import MergedRuns, merged_runs_of

__all__ = ["Region", "RegionLayout"]


@dataclass(frozen=True)
class Region:
    """One logical region ``[start, end)`` with its own layout.

    ``layout`` maps *region-local* offsets (0-based within the region)
    onto servers.
    """

    start: int
    end: int
    layout: Layout

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise LayoutError(
                f"invalid region bounds [{self.start}, {self.end})"
            )

    @property
    def size(self) -> int:
        return self.end - self.start


class RegionLayout(Layout):
    """A file layout assembled from consecutive regions.

    Regions must be sorted, non-overlapping and gap-free from offset 0;
    extents beyond the last region fall into an ``overflow`` layout
    (the last region's layout pattern continued), so the file can grow.
    """

    def __init__(self, regions: Sequence[Region], obj: str = "file") -> None:
        if not regions:
            raise LayoutError("RegionLayout needs at least one region")
        cursor = 0
        for idx, region in enumerate(regions):
            if region.start != cursor:
                raise LayoutError(
                    f"region {idx} starts at {region.start}, expected {cursor}"
                )
            cursor = region.end
        self._regions = tuple(regions)
        self._starts = [r.start for r in self._regions]
        self.obj = obj

    @property
    def regions(self) -> Sequence[Region]:
        return self._regions

    @property
    def servers(self) -> Sequence[int]:
        seen: list[int] = []
        for region in self._regions:
            for srv in region.layout.servers:
                if srv not in seen:
                    seen.append(srv)
        return tuple(seen)

    @property
    def span(self) -> int:
        """Total bytes covered by explicit regions."""
        return self._regions[-1].end

    def region_at(self, offset: int) -> tuple[int, Region]:
        """The (index, region) containing logical ``offset``.

        Offsets past the last region clamp to the last region, whose
        layout pattern extends indefinitely (region-local offsets keep
        growing), mirroring how a PFS keeps striping a growing file.
        """
        if offset < 0:
            raise LayoutError(f"offset must be >= 0, got {offset}")
        idx = bisect_right(self._starts, offset) - 1
        return idx, self._regions[idx]

    def map_extent(self, offset: int, length: int) -> list[SubRequest]:
        if offset < 0 or length < 0:
            raise LayoutError("offset and length must be non-negative")
        fragments: list[SubRequest] = []
        cursor = offset
        end = offset + length
        while cursor < end:
            idx, region = self.region_at(cursor)
            if idx == len(self._regions) - 1:
                region_end = end  # last region extends indefinitely
            else:
                region_end = min(region.end, end)
            take = region_end - cursor
            local = cursor - region.start
            for frag in region.layout.map_extent(local, take):
                fragments.append(
                    SubRequest(
                        server=frag.server,
                        obj=frag.obj,
                        offset=frag.offset,
                        length=frag.length,
                        logical_offset=region.start + frag.logical_offset,
                    )
                )
            cursor = region_end
        return fragments

    def merged_extent_runs(
        self, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns | None:
        """Batch kernel: split extents at region boundaries, batch each
        region's pieces through its sublayout, reassemble per extent.

        Pieces of one extent cover ascending logical ranges and each
        piece's runs come out first-logical-sorted, so concatenating
        pieces in split order keeps the extent's runs sorted.  Requires
        every region to use a distinct storage object — otherwise runs
        could merge *across* regions and the exact per-extent object
        path must be used instead (``None`` is returned).
        """
        region_objs = [region.layout.obj for region in self._regions]
        if len(set(region_objs)) != len(region_objs):
            return None
        n = len(offsets)
        last = len(self._regions) - 1
        # per extent: (region index, position in that region's batch)
        pieces: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        per_region: dict[int, tuple[list[int], list[int]]] = {}
        for k in range(n):
            offset = int(offsets[k])
            length = int(lengths[k])
            if offset < 0 or length < 0:
                raise LayoutError("offset and length must be non-negative")
            cursor = offset
            end = offset + length
            while cursor < end:
                idx, region = self.region_at(cursor)
                region_end = end if idx == last else min(region.end, end)
                batch = per_region.setdefault(idx, ([], []))
                pieces[k].append((idx, len(batch[0])))
                batch[0].append(cursor - region.start)
                batch[1].append(region_end - cursor)
                cursor = region_end
        runs_by_region = {
            idx: merged_runs_of(self._regions[idx].layout, *batch)
            for idx, batch in per_region.items()
        }
        servers: list[int] = []
        lens: list[int] = []
        starts: list[int] = [0]
        for k in range(n):
            for idx, j in pieces[k]:
                runs = runs_by_region[idx]
                lo, hi = runs.starts[j], runs.starts[j + 1]
                servers.extend(runs.servers[lo:hi])
                lens.extend(runs.lengths[lo:hi])
            starts.append(len(servers))
        return MergedRuns(servers=servers, lengths=lens, starts=starts)

    def __repr__(self) -> str:
        return f"RegionLayout({len(self._regions)} regions, obj={self.obj!r})"

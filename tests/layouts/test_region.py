"""Tests for region-composed layouts."""

import pytest

from repro.exceptions import LayoutError
from repro.layouts import (
    FixedStripeLayout,
    Region,
    RegionLayout,
    VariedStripeLayout,
    check_tiling,
)


def simple_regions():
    return [
        Region(0, 100, FixedStripeLayout([0, 1], stripe=10, obj="f/r0")),
        Region(100, 250, FixedStripeLayout([2, 3], stripe=25, obj="f/r1")),
        Region(250, 400, VariedStripeLayout([0, 1], [2, 3], h=5, s=20, obj="f/r2")),
    ]


class TestRegionLayout:
    def test_region_lookup(self):
        layout = RegionLayout(simple_regions())
        idx, region = layout.region_at(0)
        assert idx == 0
        idx, region = layout.region_at(99)
        assert idx == 0
        idx, region = layout.region_at(100)
        assert idx == 1
        idx, region = layout.region_at(399)
        assert idx == 2

    def test_offsets_are_region_local(self):
        layout = RegionLayout(simple_regions())
        frags = layout.map_extent(100, 25)
        assert len(frags) == 1
        assert frags[0].server == 2
        assert frags[0].offset == 0  # local to region 1
        assert frags[0].obj == "f/r1"
        assert frags[0].logical_offset == 100  # global logical space

    def test_extent_spanning_regions(self):
        layout = RegionLayout(simple_regions())
        frags = layout.map_extent(90, 30)
        check_tiling(90, 30, frags)
        objs = {f.obj for f in frags}
        assert objs == {"f/r0", "f/r1"}

    def test_tiling_across_everything(self):
        layout = RegionLayout(simple_regions())
        check_tiling(0, 400, layout.map_extent(0, 400))

    def test_growth_beyond_last_region(self):
        layout = RegionLayout(simple_regions())
        frags = layout.map_extent(395, 20)  # extends past 400
        check_tiling(395, 20, frags)
        assert all(f.obj == "f/r2" for f in frags)

    def test_servers_union(self):
        layout = RegionLayout(simple_regions())
        assert set(layout.servers) == {0, 1, 2, 3}

    def test_span(self):
        assert RegionLayout(simple_regions()).span == 400

    def test_zero_length(self):
        assert RegionLayout(simple_regions()).map_extent(10, 0) == []


class TestValidation:
    def test_empty_regions_rejected(self):
        with pytest.raises(LayoutError):
            RegionLayout([])

    def test_gap_between_regions_rejected(self):
        with pytest.raises(LayoutError):
            RegionLayout(
                [
                    Region(0, 100, FixedStripeLayout([0], 10, obj="r0")),
                    Region(150, 200, FixedStripeLayout([0], 10, obj="r1")),
                ]
            )

    def test_regions_sharing_an_object_rejected(self):
        # runs could merge across the boundary: each region is its own file
        with pytest.raises(LayoutError, match="share a storage object"):
            RegionLayout(
                [
                    Region(0, 64, FixedStripeLayout([0, 1], 4, obj="f")),
                    Region(64, 128, FixedStripeLayout([0, 1], 8, obj="f")),
                ]
            )

    @pytest.mark.parametrize(
        "offsets, lengths", [([0], [10, 20]), ([0, 10], [10]), ([], [10])]
    )
    def test_batch_columns_must_match(self, offsets, lengths):
        layout = RegionLayout(simple_regions())
        with pytest.raises(LayoutError, match="must match"):
            layout.merged_extent_runs(offsets, lengths)

    def test_regions_must_start_at_zero(self):
        with pytest.raises(LayoutError):
            RegionLayout([Region(10, 100, FixedStripeLayout([0], 10))])

    def test_degenerate_region_rejected(self):
        with pytest.raises(LayoutError):
            Region(100, 100, FixedStripeLayout([0], 10))

    def test_negative_offset_rejected(self):
        layout = RegionLayout(simple_regions())
        with pytest.raises(LayoutError):
            layout.region_at(-1)

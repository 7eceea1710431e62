"""Tests for fixed round-robin striping."""

import pytest

from repro.exceptions import LayoutError
from repro.layouts import FixedStripeLayout, check_tiling
from repro.units import KiB


class TestMapping:
    def test_round_robin_order(self):
        layout = FixedStripeLayout([0, 1, 2], stripe=10)
        frags = layout.map_extent(0, 30)
        assert [f.server for f in frags] == [0, 1, 2]
        assert all(f.offset == 0 for f in frags)

    def test_second_cycle_advances_server_offset(self):
        layout = FixedStripeLayout([0, 1], stripe=10)
        frags = layout.map_extent(20, 20)
        assert [(f.server, f.offset) for f in frags] == [(0, 10), (1, 10)]

    def test_unaligned_extent(self):
        layout = FixedStripeLayout([0, 1], stripe=10)
        frags = layout.map_extent(5, 10)
        assert [(f.server, f.offset, f.length) for f in frags] == [
            (0, 5, 5),
            (1, 0, 5),
        ]

    def test_extent_within_one_stripe(self):
        layout = FixedStripeLayout([3, 4], stripe=64 * KiB)
        frags = layout.map_extent(1000, 50)
        assert len(frags) == 1
        assert frags[0].server == 3
        assert frags[0].offset == 1000

    def test_tiling_invariant(self):
        layout = FixedStripeLayout([0, 1, 2, 3], stripe=7)
        check_tiling(13, 555, layout.map_extent(13, 555))

    def test_zero_length_maps_to_nothing(self):
        layout = FixedStripeLayout([0], stripe=10)
        assert layout.map_extent(100, 0) == []

    def test_locate_single_byte(self):
        layout = FixedStripeLayout([0, 1], stripe=10)
        (frag,) = layout.map_extent(15, 1)
        assert frag.server == 1 and frag.offset == 5 and frag.length == 1

    def test_obj_label_propagates(self):
        layout = FixedStripeLayout([0], stripe=10, obj="myfile")
        assert layout.map_extent(0, 5)[0].obj == "myfile"

    def test_servers_property(self):
        assert FixedStripeLayout([5, 2, 9], stripe=4).servers == (5, 2, 9)


class TestValidation:
    def test_empty_servers_rejected(self):
        with pytest.raises(LayoutError):
            FixedStripeLayout([], stripe=10)

    def test_duplicate_servers_rejected(self):
        with pytest.raises(LayoutError):
            FixedStripeLayout([0, 0], stripe=10)

    def test_zero_stripe_rejected(self):
        with pytest.raises(LayoutError):
            FixedStripeLayout([0], stripe=0)

    def test_negative_offset_rejected(self):
        layout = FixedStripeLayout([0], stripe=10)
        with pytest.raises(LayoutError):
            layout.map_extent(-1, 10)

    def test_check_tiling_detects_gap(self):
        layout = FixedStripeLayout([0, 1], stripe=10)
        frags = layout.map_extent(0, 20)
        with pytest.raises(LayoutError):
            check_tiling(0, 20, frags[1:])

    def test_check_tiling_detects_short_coverage(self):
        layout = FixedStripeLayout([0, 1], stripe=10)
        frags = layout.map_extent(0, 20)
        with pytest.raises(LayoutError):
            check_tiling(0, 30, frags)

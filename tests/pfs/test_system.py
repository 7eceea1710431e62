"""Tests for the hybrid PFS assembly and fragment merging."""

import pytest

from repro.cluster import ClusterSpec
from repro.devices import HDD, SSD
from repro.exceptions import SimulationError
from repro.layouts import SubRequest
from repro.pfs import HybridPFS, merge_fragments
from repro.units import KiB


def frag(server, offset, length, logical, obj="o"):
    return SubRequest(
        server=server, obj=obj, offset=offset, length=length, logical_offset=logical
    )


class TestMergeFragments:
    def test_contiguous_same_server_merges(self):
        frags = [frag(0, 0, 10, 0), frag(1, 0, 10, 10), frag(0, 10, 10, 20)]
        merged = merge_fragments(frags)
        assert len(merged) == 2
        by_server = {f.server: f for f in merged}
        assert by_server[0].length == 20
        assert by_server[1].length == 10

    def test_noncontiguous_not_merged(self):
        frags = [frag(0, 0, 10, 0), frag(0, 50, 10, 10)]
        assert len(merge_fragments(frags)) == 2

    def test_different_objects_not_merged(self):
        frags = [frag(0, 0, 10, 0, obj="a"), frag(0, 10, 10, 10, obj="b")]
        assert len(merge_fragments(frags)) == 2

    def test_empty(self):
        assert merge_fragments([]) == []

    def test_interleaved_striping_collapses_per_server(self):
        """A striped request's per-server pieces are contiguous in the
        server object and merge into one sub-request per server."""
        from repro.layouts import VariedStripeLayout

        layout = VariedStripeLayout([0, 1], [2, 3], h=4 * KiB, s=4 * KiB)
        frags = layout.map_extent(0, 64 * KiB)
        merged = merge_fragments(frags)
        assert len(merged) == 4  # one run per server
        assert {f.server for f in merged} == {0, 1, 2, 3}


class TestHybridPFS:
    def test_server_classes(self):
        pfs = HybridPFS(ClusterSpec(num_hservers=2, num_sservers=2))
        assert isinstance(pfs.servers[0].device, HDD)
        assert isinstance(pfs.servers[2].device, SSD)
        assert len(pfs.servers) == 4

    def test_issue_completes_at_slowest(self):
        pfs = HybridPFS(ClusterSpec(num_hservers=1, num_sservers=1))
        frags = [frag(0, 0, 64 * KiB, 0), frag(1, 0, 64 * KiB, 64 * KiB)]
        done = pfs.issue("read", frags)
        pfs.sim.run()
        hdd_time = pfs.servers[0].busy_time
        assert pfs.sim.now == pytest.approx(hdd_time)  # HDD is slower

    def test_issue_empty_fragments(self):
        pfs = HybridPFS(ClusterSpec())
        done = pfs.issue("read", [])
        assert done.fired

    def test_unknown_server_rejected(self):
        pfs = HybridPFS(ClusterSpec(num_hservers=1, num_sservers=1))
        with pytest.raises(SimulationError):
            pfs.issue("read", [frag(9, 0, 10, 0)])
        n = len(pfs.servers)
        for index in (-1, n):
            with pytest.raises(SimulationError, match=f"out of range 0..{n - 1}"):
                pfs.server(index)

    def test_per_server_stats(self):
        pfs = HybridPFS(ClusterSpec(num_hservers=1, num_sservers=1))
        pfs.issue("write", [frag(0, 0, 100, 0), frag(1, 0, 300, 100)])
        pfs.sim.run()
        assert pfs.per_server_bytes() == [100, 300]
        assert all(t > 0 for t in pfs.per_server_busy())
        pfs.reset_stats()
        assert pfs.per_server_bytes() == [0, 0]

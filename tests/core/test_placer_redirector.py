"""Tests for the Placer and the I/O Redirector."""

import re

import pytest

from repro.cluster import ClusterSpec
from repro.core import (
    DRT,
    DRTEntry,
    RST,
    Redirector,
    StripePair,
    MHAPipeline,
    build_region_layout,
    estimate_migration_time,
    migration_schedule,
    place_regions,
)
from repro.exceptions import RedirectionError
from repro.layouts import FixedStripeLayout, check_tiling
from repro.pfs import run_workload
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from tests.plan_checks import migrate_offline


@pytest.fixture
def spec():
    return ClusterSpec(num_hservers=2, num_sservers=2)


class TestPlacer:
    def test_build_region_layout_servers(self, spec):
        layout = build_region_layout(spec, StripePair(4 * KiB, 8 * KiB), obj="r0")
        assert set(layout.servers) == {0, 1, 2, 3}
        assert layout.obj == "r0"

    def test_h_zero_layout_uses_only_sservers(self, spec):
        layout = build_region_layout(spec, StripePair(0, 8 * KiB), obj="r0")
        assert set(layout.servers) == set(spec.sserver_ids)

    def test_place_regions_covers_rst(self, spec):
        rst = RST()
        rst.set("rA", StripePair(4 * KiB, 8 * KiB))
        rst.set("rB", StripePair(0, 16 * KiB))
        layouts = place_regions(spec, rst)
        assert set(layouts) == {"rA", "rB"}
        assert layouts["rA"].obj == "rA"

    def test_migration_schedule_in_offset_order(self):
        drt = DRT()
        drt.add(DRTEntry("f", 500, 100, "r0", 0))
        drt.add(DRTEntry("f", 0, 100, "r1", 0))
        steps = migration_schedule(drt)
        assert [s.entry.o_offset for s in steps] == [0, 500]
        assert steps[0].bytes == 100
        assert "copy" in str(steps[0])


class TestRedirector:
    def make(self, spec):
        drt = DRT()
        drt.add(DRTEntry("f", 0, 1000, "f.region0", 0))
        drt.add(DRTEntry("f", 2000, 500, "f.region1", 0))
        regions = {
            "f.region0": build_region_layout(spec, StripePair(0, 4 * KiB), "f.region0"),
            "f.region1": build_region_layout(
                spec, StripePair(4 * KiB, 8 * KiB), "f.region1"
            ),
        }
        originals = {"f": FixedStripeLayout(spec.server_ids, 64 * KiB, obj="f")}
        return Redirector(drt, regions, originals)

    def test_mapped_request_goes_to_region(self, spec):
        r = self.make(spec)
        frags = r.map_request("f", 0, 500)
        assert all(f.obj == "f.region0" for f in frags)
        check_tiling(0, 500, frags)

    def test_unmapped_request_falls_through(self, spec):
        r = self.make(spec)
        frags = r.map_request("f", 1000, 500)
        assert all(f.obj == "f" for f in frags)

    def test_straddling_request_tiles(self, spec):
        r = self.make(spec)
        frags = r.map_request("f", 500, 2000)  # region0 + gap + region1
        check_tiling(500, 2000, frags)
        objs = {f.obj for f in frags}
        assert objs == {"f.region0", "f", "f.region1"}

    def test_logical_offsets_in_original_space(self, spec):
        r = self.make(spec)
        frags = r.map_request("f", 2000, 500)
        assert frags[0].logical_offset == 2000

    def test_missing_region_layout_raises(self, spec):
        drt = DRT()
        drt.add(DRTEntry("f", 0, 100, "ghost", 0))
        r = Redirector(drt, {}, {"f": FixedStripeLayout([0], 4 * KiB, obj="f")})
        with pytest.raises(RedirectionError):
            r.map_request("f", 0, 100)

    def test_unknown_file_raises(self, spec):
        r = self.make(spec)
        with pytest.raises(RedirectionError):
            r.map_request("unknown", 0, 100)

    def test_layout_for(self, spec):
        r = self.make(spec)
        assert r.layout_for("f").obj == "f"


class TestMigrationEstimate:
    def test_zero_for_empty_plan(self):
        spec = ClusterSpec()
        assert estimate_migration_time(spec, DRT()) == 0.0

    def test_scales_with_volume(self):
        spec = ClusterSpec()
        small = IORWorkload(
            num_processes=4, request_sizes=64 * KiB, total_size=1 * MiB
        ).trace("write")
        large = IORWorkload(
            num_processes=4, request_sizes=64 * KiB, total_size=4 * MiB
        ).trace("write")
        t_small = estimate_migration_time(
            spec, MHAPipeline(spec, seed=0).plan(small).drt
        )
        t_large = estimate_migration_time(
            spec, MHAPipeline(spec, seed=0).plan(large).drt
        )
        assert t_large > 2 * t_small

    def test_one_off_cost_is_modest(self):
        """The paper's premise: off-line migration once is acceptable.
        The one-off sweep should be within a small multiple of one
        optimized run of the same volume."""
        spec = ClusterSpec()
        trace = IORWorkload(
            num_processes=8, request_sizes=128 * KiB, total_size=8 * MiB
        ).trace("write")
        plan = MHAPipeline(spec, seed=0).plan(trace)
        migration = estimate_migration_time(spec, plan.drt)
        run = run_workload(spec, plan.redirector, trace)
        assert migration < 10 * run.makespan

    def test_documented_band_holds_against_the_live_scheduler(self):
        """The estimate's docstring gives its ratio to the live
        scheduler's idle, unthrottled copy over 24 IOR plans; every one
        of those plans lies in that band."""
        low, high = map(
            float,
            re.search(
                r"came to\s+(\d\.\d+)–(\d\.\d+)×", estimate_migration_time.__doc__
            ).groups(),
        )
        spec = ClusterSpec()
        mixes = [[16], [32], [64], [128], [256], [16, 64], [16, 256], [32, 128]]
        mixes += [[64, 128], [64, 512], [128, 256], [256, 512]]
        for sizes in mixes:
            for op in ("read", "write"):
                trace = IORWorkload(
                    num_processes=8,
                    request_sizes=[k * KiB for k in sizes],
                    total_size=16 * MiB,
                    seed=0,
                ).trace(op)
                plan = MHAPipeline(spec, seed=0).plan(trace)
                ratio = estimate_migration_time(spec, plan.drt) / (
                    migrate_offline(spec, plan).makespan
                )
                assert low <= ratio <= high, (sizes, op, ratio)

"""Tests for the incremental re-planner."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.exceptions import ConfigurationError
from repro.online import (
    DriftDetector,
    IncrementalReplanner,
    StreamingSketch,
)
from repro.tracing import Trace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


@pytest.fixture
def spec():
    return ClusterSpec()


@pytest.fixture
def pipeline(spec):
    return MHAPipeline(spec, seed=0)


def ior_trace(sizes, file="f", seed=1, processes=4, total=4 * MiB):
    return IORWorkload(
        num_processes=processes,
        request_sizes=list(sizes),
        total_size=total,
        seed=seed,
        file=file,
    ).trace("write")


def drift_report_for(pipeline, plan, window):
    sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
    for record in window.sorted_by_time():
        sketch.observe(record, plan)
    sketch.flush(plan)
    return DriftDetector(threshold=0.5, min_samples=4).check(sketch, plan)


class TestIncrementalReplanner:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_reuse_tolerance_must_be_finite_and_non_negative(self, pipeline, value):
        with pytest.raises(ConfigurationError, match="reuse_tolerance"):
            IncrementalReplanner(pipeline, reuse_tolerance=value)

    def test_full_drift_rebuild_matches_offline_plan(self, spec, pipeline):
        """When every region of a file drifts, the replan must be the
        off-line plan of the window — same DRT, same stripe pairs, same
        request mapping."""
        old_plan = pipeline.plan(ior_trace([32 * KiB]))
        window = ior_trace([128 * KiB, 512 * KiB], seed=3, total=8 * MiB)
        report = drift_report_for(pipeline, old_plan, window)
        assert report.drifted

        outcome = IncrementalReplanner(pipeline, reuse_tolerance=0.0).replan(
            window, old_plan, report
        )
        offline = MHAPipeline(spec, seed=0).plan(window)
        assert sorted(map(str, outcome.plan.drt.entries_for("f"))) == sorted(
            map(str, offline.drt.entries_for("f"))
        )
        assert {n: (p.h, p.s) for n, p in outcome.plan.rst} == {
            n: (p.h, p.s) for n, p in offline.rst
        }
        for record in window:
            assert outcome.plan.redirector.map_request(
                record.file, record.offset, record.size
            ) == offline.redirector.map_request(record.file, record.offset, record.size)

    def test_undrifted_files_carried_verbatim(self, pipeline):
        steady = ior_trace([32 * KiB], file="steady.dat")
        moving = ior_trace([32 * KiB], file="moving.dat", seed=2)
        old_plan = pipeline.plan(Trace(list(steady) + list(moving)))

        window = ior_trace([256 * KiB], file="moving.dat", seed=5, total=8 * MiB)
        report = drift_report_for(pipeline, old_plan, window)
        assert report.drifted_files == ["moving.dat"]

        outcome = IncrementalReplanner(pipeline, reuse_tolerance=0.0).replan(
            window, old_plan, report
        )
        assert outcome.replanned_files == ["moving.dat"]
        assert sorted(map(str, outcome.plan.drt.entries_for("steady.dat"))) == sorted(
            map(str, old_plan.drt.entries_for("steady.dat"))
        )
        for region in old_plan.reorder_plans["steady.dat"].regions:
            old_pair = old_plan.rst.get(region.name)
            new_pair = outcome.plan.rst.get(region.name)
            assert (old_pair.h, old_pair.s) == (new_pair.h, new_pair.s)
        # the steady file keeps serving identically through the new plan
        for record in steady:
            assert outcome.plan.redirector.map_request(
                record.file, record.offset, record.size
            ) == old_plan.redirector.map_request(record.file, record.offset, record.size)

    def test_migration_entries_cover_only_rebuilt_files(self, pipeline):
        steady = ior_trace([32 * KiB], file="steady.dat")
        moving = ior_trace([32 * KiB], file="moving.dat", seed=2)
        old_plan = pipeline.plan(Trace(list(steady) + list(moving)))
        window = ior_trace([256 * KiB], file="moving.dat", seed=5, total=8 * MiB)
        report = drift_report_for(pipeline, old_plan, window)
        outcome = IncrementalReplanner(pipeline, reuse_tolerance=0.0).replan(
            window, old_plan, report
        )
        assert outcome.migration_entries
        assert {e.o_file for e in outcome.migration_entries} == {"moving.dat"}

    def test_reuse_skips_searches_for_matching_centroids(self, pipeline):
        """A near-identical pattern on an un-drifted region's centroid
        reuses its decision instead of searching again."""
        steady = ior_trace([32 * KiB], file="steady.dat")
        moving = ior_trace([32 * KiB], file="moving.dat", seed=2)
        old_plan = pipeline.plan(Trace(list(steady) + list(moving)))
        # drift moving.dat's byte population but keep its feature shape
        # identical to steady.dat's regions (same sizes, same ranks)
        window = ior_trace([32 * KiB], file="moving.dat", seed=9, total=8 * MiB)
        report = drift_report_for(pipeline, old_plan, window)
        report.drifted_files = ["moving.dat"]
        report.drifted_regions = [
            r.name for r in old_plan.reorder_plans["moving.dat"].regions
        ]
        outcome = IncrementalReplanner(pipeline, reuse_tolerance=0.5).replan(
            window, old_plan, report
        )
        assert outcome.reused_regions
        assert not outcome.searched_regions

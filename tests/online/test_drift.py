"""Tests for drift detection, including the no-false-replan property."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.exceptions import ConfigurationError
from repro.online import (
    ControllerConfig,
    DriftDetector,
    RelayoutController,
    StreamingSketch,
    plan_centroids,
    relative_distance,
)
from repro.tracing import TraceRecord
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def rec(offset, size, ts, rank=0, op="write", file="f"):
    return TraceRecord(
        offset=offset, timestamp=ts, rank=rank, size=size, op=op, file=file
    )


@pytest.fixture
def spec():
    return ClusterSpec()


@pytest.fixture
def pipeline(spec):
    return MHAPipeline(spec, seed=0)


def ior_trace(sizes, processes=4, seed=1, total=4 * MiB):
    return IORWorkload(
        num_processes=processes,
        request_sizes=list(sizes),
        total_size=total,
        seed=seed,
        file="f",
    ).trace("write")


class TestPlanCentroids:
    def test_centroids_cover_every_region(self, pipeline):
        plan = pipeline.plan(ior_trace([32 * KiB, 128 * KiB]))
        centroids = plan_centroids(plan)
        assert set(centroids) == set(plan.region_layouts)

    def test_empty_plan_has_no_centroids(self, pipeline):
        from repro.tracing import Trace

        assert plan_centroids(pipeline.plan(Trace([]))) == {}


class TestRelativeDistance:
    def test_zero_at_center(self):
        assert relative_distance((64.0, 4.0), (64.0, 4.0)) == 0.0

    def test_scale_free(self):
        small = relative_distance((96.0, 4.0), (64.0, 4.0))
        large = relative_distance((96.0 * 1024, 4.0), (64.0 * 1024, 4.0))
        assert small == pytest.approx(large)

    def test_zero_axis_does_not_divide_by_zero(self):
        assert relative_distance((1.0, 0.5), (0.0, 0.0)) > 0


class TestDriftDetector:
    def test_shifted_sizes_flag_regions(self, pipeline):
        profile = ior_trace([32 * KiB])
        plan = pipeline.plan(profile)
        shifted = ior_trace([256 * KiB], seed=2, total=8 * MiB)
        sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
        for record in shifted.sorted_by_time():
            sketch.observe(record, plan)
        sketch.flush(plan)
        report = DriftDetector(threshold=0.5, min_samples=4).check(sketch, plan)
        assert report.drifted
        assert report.drifted_files == ["f"]
        assert "drift" in str(report)

    def test_min_samples_guards_stray_requests(self, pipeline):
        plan = pipeline.plan(ior_trace([32 * KiB]))
        sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
        lone = rec(0, 4 * MiB, 0.0)  # wildly off-centroid, but only one
        sketch.observe(lone, plan)
        sketch.flush(plan)
        report = DriftDetector(threshold=0.5, min_samples=8).check(sketch, plan)
        assert not report.drifted_regions

    def test_unmapped_traffic_flags_file(self, pipeline):
        trace = ior_trace([32 * KiB])
        plan = pipeline.plan(trace)
        sketch = StreamingSketch()
        beyond = max(r.offset + r.size for r in trace)
        for i in range(4):
            sketch.observe(
                rec(beyond + i * MiB, 64 * KiB, float(i) * 10, file="f"), plan
            )
        sketch.flush(plan)
        report = DriftDetector(unmapped_threshold=0.25).check(sketch, plan)
        assert report.drifted_files == ["f"]
        assert report.unmapped_fractions["f"] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftDetector(threshold=0.0)
        with pytest.raises(ConfigurationError):
            DriftDetector(min_samples=0)
        with pytest.raises(ConfigurationError):
            DriftDetector(unmapped_threshold=1.5)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("threshold", math.nan),
            ("threshold", math.inf),
            ("min_samples", math.inf),
        ],
    )
    def test_settings_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            DriftDetector(**{field: value})


class TestNoFalseReplanProperty:
    """Traffic matching the active plan's centroids admits no replan."""

    @given(
        size=st.sampled_from([16 * KiB, 64 * KiB, 256 * KiB]),
        processes=st.sampled_from([2, 4, 8]),
        seed=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=12, deadline=None)
    def test_steady_traffic_never_admits_a_replan(self, size, processes, seed):
        spec = ClusterSpec()
        pipeline = MHAPipeline(spec, seed=0)
        trace = ior_trace([size], processes=processes, seed=seed, total=2 * MiB)
        plan = pipeline.plan(trace)
        controller = RelayoutController(
            pipeline,
            plan,
            ControllerConfig(window=len(trace), check_interval=max(1, len(trace) // 3)),
        )
        # replay the plan's own profile: the live features are exactly
        # the centroids, so no check may admit (or even attempt) a replan
        for record in trace.sorted_by_time():
            assert controller.observe(record) is None
        assert controller.replans_admitted == 0
        assert controller.replans_rejected == 0
        assert all(not r.drifted for r in controller.reports)

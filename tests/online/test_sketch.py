"""Tests for the streaming feature sketch."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.exceptions import ConfigurationError
from repro.online import RegionSketch, StreamingSketch
from repro.tracing import Trace, TraceRecord
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


@pytest.fixture
def trace():
    return IORWorkload(
        num_processes=4,
        request_sizes=[32 * KiB, 128 * KiB],
        total_size=4 * MiB,
        seed=1,
        file="f",
    ).trace("write")


class TestRegionSketch:
    def test_window_evicts_oldest(self):
        sketch = RegionSketch(window=3)
        for size in (10, 20, 30, 40):
            sketch.update(size, 1)
        assert sketch.n == 3
        assert sketch.feature_point() == (30.0, 1.0)

    def test_empty_feature_point(self):
        assert RegionSketch().feature_point() == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionSketch(window=0)


class TestStreamingSketch:
    def test_steady_traffic_reproduces_plan_features(self, pipeline, trace):
        """Replaying the profiled trace must land each region's live
        feature point on (or very near) its plan centroid — the
        commensurability the drift detector depends on."""
        plan = pipeline.plan(trace)
        sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
        for record in trace.sorted_by_time():
            sketch.observe(record, plan)
        sketch.flush(plan)

        from repro.online import plan_centroids, relative_distance

        centroids = plan_centroids(plan)
        assert sketch.regions, "no region received any sample"
        for region, region_sketch in sketch.regions.items():
            distance = relative_distance(
                region_sketch.feature_point(), centroids[region]
            )
            assert distance < 0.25, f"{region}: {distance}"

    def test_burst_closes_on_gap(self, pipeline, trace):
        plan = pipeline.plan(trace)
        sketch = StreamingSketch(gap=0.5)
        r1, r2 = trace.sorted_by_time()[:2]
        sketch.observe(r1, plan)
        assert not sketch.regions  # burst still open
        late = rec(r2.offset, r2.size, r1.timestamp + 10.0, file=r1.file)
        sketch.observe(late, plan)  # gap > 0.5 closes the first burst
        assert sketch.regions

    def test_unmapped_bytes_tallied(self, pipeline, trace):
        plan = pipeline.plan(trace)
        sketch = StreamingSketch()
        beyond = max(r.offset + r.size for r in trace)
        sketch.observe(rec(beyond + 1 * MiB, 64 * KiB, 0.0, file="f"), plan)
        sketch.flush(plan)
        assert sketch.unmapped_fraction("f") == 1.0
        assert sketch.files() == ["f"]

    def test_mapped_traffic_has_zero_unmapped_fraction(self, pipeline, trace):
        plan = pipeline.plan(trace)
        sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
        for record in trace.sorted_by_time():
            sketch.observe(record, plan)
        sketch.flush(plan)
        assert sketch.unmapped_fraction("f") == 0.0

    def test_reset_clears_everything(self, pipeline, trace):
        plan = pipeline.plan(trace)
        sketch = StreamingSketch()
        for record in trace.sorted_by_time():
            sketch.observe(record, plan)
        sketch.flush(plan)
        sketch.reset()
        assert not sketch.regions
        assert not sketch.traffic
        assert sketch.observed == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingSketch(window=0)


class TestSnapshot:
    def test_snapshot_attributes_open_burst_whole(self, pipeline):
        """A snapshot taken mid-burst sees the burst's full width so
        far, and the live sketch later attributes it once, whole."""
        trace = IORWorkload(
            num_processes=8,
            request_sizes=[256 * KiB],
            total_size=2 * MiB,
            seed=0,
            file="f",
        ).trace("write")
        plan = pipeline.plan(trace)
        records = list(trace.sorted_by_time())
        sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
        for record in records[:2]:  # 2 of an 8-wide burst
            sketch.observe(record, plan)
        snap = sketch.snapshot(plan)
        # the snapshot closed the open burst with the width seen so far
        assert sum(rs.n for rs in snap.regions.values()) == 2
        # ... but the live sketch still has the burst open
        assert not sketch.regions
        for record in records[2:]:
            sketch.observe(record, plan)
        sketch.flush(plan)
        # one whole burst: every sample carries the full concurrency
        concs = [c for rs in sketch.regions.values() for _, c in rs.samples]
        assert concs == [8] * 8

    def test_snapshot_does_not_mutate_live_state(self, pipeline, trace):
        plan = pipeline.plan(trace)
        sketch = StreamingSketch(gap=pipeline.gap, spatial=pipeline.spatial)
        for record in trace.sorted_by_time():
            sketch.observe(record, plan)
        pending_before = {f: list(p) for f, p in sketch._pending.items()}
        samples_before = {r: list(s.samples) for r, s in sketch.regions.items()}
        snap = sketch.snapshot(plan)
        assert {f: list(p) for f, p in sketch._pending.items()} == pending_before
        assert {r: list(s.samples) for r, s in sketch.regions.items()} == (
            samples_before
        )
        # mutating the snapshot cannot leak back
        for rs in snap.regions.values():
            rs.update(1, 1)
        assert {r: list(s.samples) for r, s in sketch.regions.items()} == (
            samples_before
        )

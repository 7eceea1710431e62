"""Tests for phase splitting, concurrency and burst analysis."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.tracing import (
    Trace,
    TraceRecord,
    burst_clusters,
    burst_ids_of,
    concurrency_of,
    split_phases,
    trace_statistics,
)


def rec(offset, ts, rank=0, size=100, op="read"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op)


class TestSplitPhases:
    def test_single_phase(self):
        t = Trace([rec(0, 0.0), rec(100, 0.1), rec(200, 0.2)])
        phases = split_phases(t, gap=0.5)
        assert len(phases) == 1
        assert phases[0].concurrency == 3

    def test_gap_splits(self):
        t = Trace([rec(0, 0.0), rec(100, 10.0), rec(200, 10.1)])
        phases = split_phases(t, gap=0.5)
        assert [p.concurrency for p in phases] == [1, 2]

    def test_empty_trace(self):
        assert split_phases(Trace([])) == []

    def test_invalid_gap(self):
        with pytest.raises(ConfigurationError, match="gap"):
            split_phases(Trace([]), gap=0)

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_gap_rejected(self, gap):
        """A NaN gap compares false against every timestamp gap, so it
        would put the whole trace in one phase; it is rejected like 0."""
        t = Trace([rec(0, 0.0), rec(100, 10.0)])
        with pytest.raises(ConfigurationError, match="gap"):
            split_phases(t, gap=gap)
        with pytest.raises(ConfigurationError, match="gap"):
            burst_clusters(t, gap=gap)

    def test_distinct_ranks(self):
        t = Trace([rec(0, 0.0, rank=0), rec(100, 0.0, rank=1), rec(200, 0.1, rank=0)])
        assert split_phases(t)[0].distinct_ranks == 2


class TestConcurrency:
    def test_phase_concurrency(self):
        t = Trace([rec(i * 100, 0.0, rank=i) for i in range(4)])
        conc = concurrency_of(t)
        assert all(v == 4 for v in conc.values())

    def test_phases_isolated(self):
        t = Trace([rec(0, 0.0)] + [rec(i * 100, 10.0, rank=i) for i in range(1, 4)])
        conc = concurrency_of(t)
        assert conc[t[0]] == 1

    def test_spatial_clustering_splits_dense_parts(self):
        # two dense groups far apart with different sizes (Fig 9 shape)
        group_a = [rec(i * 100, 0.0, rank=i) for i in range(2)]
        base = 100 * 1024 * 1024
        group_b = [rec(base + i * 100, 0.0, rank=10 + i) for i in range(6)]
        t = Trace(group_a + group_b)
        conc = concurrency_of(t, spatial=True)
        assert conc[group_a[0]] == 2
        assert conc[group_b[0]] == 6

    def test_spatial_keeps_uniformly_spread_phase_together(self):
        # LANL shape: one request per distant process area
        t = Trace([rec(i * 10_000_000, 0.0, rank=i, size=128 * 1024) for i in range(8)])
        conc = concurrency_of(t, spatial=True)
        assert all(v == 8 for v in conc.values())

    def test_fixed_spatial_threshold(self):
        t = Trace([rec(0, 0.0), rec(10_000, 0.0, rank=1)])
        conc = concurrency_of(t, spatial=100)
        assert all(v == 1 for v in conc.values())
        conc = concurrency_of(t, spatial=1_000_000)
        assert all(v == 2 for v in conc.values())


class TestBurstIds:
    def test_ids_dense_and_grouped(self):
        t = Trace([rec(i * 100, float(i // 2) * 10, rank=i % 2) for i in range(6)])
        ids = burst_ids_of(t)
        assert sorted(set(ids.values())) == [0, 1, 2]

    def test_clusters_cover_trace(self):
        t = Trace([rec(i * 100, 0.0, rank=i) for i in range(5)])
        clusters = burst_clusters(t)
        assert sum(len(c) for c in clusters) == 5

    def test_ids_match_concurrency(self):
        t = Trace([rec(i * 100, float(i % 3), rank=i) for i in range(9)])
        ids = burst_ids_of(t, gap=0.5)
        conc = concurrency_of(t, gap=0.5)
        from collections import Counter

        sizes = Counter(ids.values())
        for record, burst in ids.items():
            assert conc[record] == sizes[burst]


class TestStatistics:
    def test_basic_stats(self):
        t = Trace(
            [
                rec(0, 0.0, size=100, op="read"),
                rec(100, 0.1, size=300, op="write", rank=1),
            ]
        )
        stats = trace_statistics(t)
        assert stats.count == 2
        assert stats.total_bytes == 400
        assert stats.read_fraction == 0.5
        assert stats.mean_size == 200
        assert stats.max_size == 300
        assert stats.min_size == 100
        assert stats.distinct_sizes == 2
        assert stats.distinct_ranks == 2

    def test_empty_stats(self):
        stats = trace_statistics(Trace([]))
        assert stats.count == 0 and stats.total_bytes == 0

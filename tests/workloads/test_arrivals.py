"""Open-arrival rewrite: seeded Poisson pacing over closed generators."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.tracing import as_columnar_trace
from repro.units import KiB, MiB
from repro.workloads import (
    CheckpointWorkload,
    IORWorkload,
    OpenArrivalWorkload,
    open_arrivals,
    poisson_arrival_times,
)


def inner():
    return IORWorkload(
        num_processes=4, request_sizes=[64 * KiB], total_size=1 * MiB
    )


class TestPoissonArrivalTimes:
    def test_strictly_increasing_from_start(self):
        times = poisson_arrival_times(50, rate=100.0, start=3.0)
        assert len(times) == 50
        assert all(t >= 3.0 for t in times)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_deterministic_per_stream(self):
        a = poisson_arrival_times(20, rate=10.0, stream=7)
        b = poisson_arrival_times(20, rate=10.0, stream=7)
        c = poisson_arrival_times(20, rate=10.0, stream=8)
        assert a.dtype == np.float64
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_jitter_offsets_start(self):
        flat = poisson_arrival_times(10, rate=10.0, jitter=0.0)
        jittered = poisson_arrival_times(10, rate=10.0, jitter=100.0)
        assert not np.array_equal(jittered, flat)

    def test_mean_gap_tracks_rate(self):
        times = poisson_arrival_times(4000, rate=50.0)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / 50.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(TraceError):
            poisson_arrival_times(5, rate=0.0)
        with pytest.raises(TraceError):
            poisson_arrival_times(5, rate=1.0, jitter=-1.0)


class TestOpenArrivalWorkload:
    def test_rewrites_timestamps_preserving_order_and_payload(self):
        base = inner().trace("write").sorted_by_time()
        wrapped = OpenArrivalWorkload(inner(), rate=100.0).trace("write")
        assert len(wrapped) == len(base)
        ts = [r.timestamp for r in wrapped]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        for original, rewritten in zip(base, wrapped):
            assert rewritten.offset == original.offset
            assert rewritten.size == original.size
            assert rewritten.rank == original.rank
            assert rewritten.file == original.file
            assert rewritten.op == original.op

    def test_streams_are_independent_and_reproducible(self):
        w3 = OpenArrivalWorkload(inner(), rate=100.0, stream=3)
        w4 = OpenArrivalWorkload(inner(), rate=100.0, stream=4)
        assert w3.trace("write") == w3.trace("write")
        assert w3.trace("write") != w4.trace("write")

    def test_columnar_equals_the_record_trace(self):
        for workload, op in ((inner(), "write"), (CheckpointWorkload(), None)):
            wrapped = OpenArrivalWorkload(workload, rate=100.0, stream=3)
            columns = wrapped.columnar(op)
            assert columns == as_columnar_trace(wrapped.trace(op))
            times = columns.data["timestamp"]
            assert np.array_equal(
                times, poisson_arrival_times(len(columns), 100.0, stream=3)
            )
        # no op means the wrapped generator's own default (the full
        # checkpoint mix here, not only its writes)
        default = open_arrivals(
            wrapped.inner.columnar().sorted_by_time(), 100.0, stream=3
        )
        assert wrapped.columnar() == default
        assert len(default) == len(wrapped.inner.columnar())

    def test_name_and_validation(self):
        wrapped = OpenArrivalWorkload(inner(), rate=5.0)
        assert wrapped.name == "open(IOR)"
        with pytest.raises(TraceError):
            OpenArrivalWorkload(inner(), rate=-1.0)
        with pytest.raises(TraceError):
            OpenArrivalWorkload(inner(), rate=1.0, jitter=-0.5)

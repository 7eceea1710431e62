"""Columnar trace-spine microbenchmark: ingest + clustering at 1M requests.

Times the two trace hot paths the columnar spine (:mod:`repro.tracing.
columnar`) vectorizes, against the record path they are twins of:

* ``trace-ingest-*`` — building a trace from raw request columns: one
  million ``TraceRecord`` constructions versus one
  :meth:`ColumnarTrace.from_columns` call on the same NumPy columns;
* ``trace-cluster-*`` — :func:`extract_features` (phase split, burst
  clustering with the adaptive spatial threshold, feature matrix)
  versus :func:`extract_features_columnar` on the identical trace.

The combined columnar path must be at least ``MIN_SPEEDUP``× faster
than the record path — the headline perf claim of the spine — and the
absolute throughputs are written to ``BENCH_trace.json`` (override
with ``REPRO_BENCH_OUT``), which CI gates against
``benchmarks/baselines/BENCH_trace.json`` at the usual >30% regression
tolerance.
"""

import numpy as np
import pytest

from harness.bench import PhaseResult

from repro.core.features import (
    extract_features,
    extract_features_columnar,
)
from repro.tracing import ColumnarTrace, Trace, TraceRecord
from repro.units import KiB

N_REQUESTS = 1_000_000
MIN_SPEEDUP = 10.0
GAP = 0.5
BENCH = "trace"
BENCH_OUT = "BENCH_trace.json"


def raw_columns(n: int = N_REQUESTS):
    """Deterministic raw request columns: bursty phases over one file."""
    rng = np.random.default_rng(7)
    phase = np.arange(n) // 4096  # ~244 phases of 4096 requests
    timestamps = phase * 2.0 + rng.uniform(0.0, 0.2, size=n)
    timestamps.sort()
    offsets = rng.integers(0, 1 << 20, size=n) * (16 * KiB)
    sizes = rng.integers(1, 17, size=n) * (16 * KiB)
    ranks = rng.integers(0, 64, size=n)
    ops = rng.integers(0, 2, size=n).astype(np.uint8)
    return offsets, timestamps, ranks, sizes, ops


@pytest.fixture(scope="module")
def columns():
    return raw_columns()


@pytest.fixture(scope="module")
def walls():
    """Phase walls shared across tests so the final speedup gate can
    combine ingest and cluster timings."""
    return {}


def test_ingest(report, columns, walls, best_of):
    """Raw columns -> trace: 1M record constructions vs one batch call."""
    offsets, timestamps, ranks, sizes, ops = columns
    off_l, ts_l = offsets.tolist(), timestamps.tolist()
    rank_l, size_l, op_l = ranks.tolist(), sizes.tolist(), ops.tolist()

    def ingest_record():
        return Trace(
            [
                TraceRecord(
                    offset=off_l[i],
                    timestamp=ts_l[i],
                    rank=rank_l[i],
                    op="write" if op_l[i] else "read",
                    size=size_l[i],
                    file="bench.dat",
                )
                for i in range(len(off_l))
            ]
        )

    def ingest_columnar():
        return ColumnarTrace.from_columns(
            offsets=offsets,
            timestamps=timestamps,
            ranks=ranks,
            sizes=sizes,
            ops=ops,
            files="bench.dat",
        )

    record_wall, trace = best_of(ingest_record, 1)
    columnar_wall, col = best_of(ingest_columnar)
    assert len(trace) == len(col) == N_REQUESTS
    walls["ingest-record"] = record_wall
    walls["ingest-columnar"] = columnar_wall
    walls["trace"], walls["col"] = trace, col
    report.add(PhaseResult.from_timing("trace-ingest-record", record_wall, N_REQUESTS))
    report.add(
        PhaseResult.from_timing(
            "trace-ingest-columnar", columnar_wall, N_REQUESTS, record_wall
        )
    )
    print(
        f"\ntrace ingest: record {record_wall * 1e3:,.0f} ms, columnar "
        f"{columnar_wall * 1e3:,.0f} ms ({record_wall / columnar_wall:,.1f}x)"
    )


def test_cluster(report, columns, walls, best_of):
    """Phase split + burst clustering + feature matrix, both paths."""
    trace, col = walls["trace"], walls["col"]
    record_wall, ref = best_of(
        lambda: extract_features(trace, gap=GAP, spatial=True), 1
    )
    columnar_wall, got = best_of(
        lambda: extract_features_columnar(col, gap=GAP, spatial=True)
    )
    assert got.points.tobytes() == ref.points.tobytes()
    walls["cluster-record"] = record_wall
    walls["cluster-columnar"] = columnar_wall
    report.add(PhaseResult.from_timing("trace-cluster-record", record_wall, N_REQUESTS))
    report.add(
        PhaseResult.from_timing(
            "trace-cluster-columnar", columnar_wall, N_REQUESTS, record_wall
        )
    )
    print(
        f"\ntrace cluster: record {record_wall * 1e3:,.0f} ms, columnar "
        f"{columnar_wall * 1e3:,.0f} ms ({record_wall / columnar_wall:,.1f}x)"
    )


def test_end_to_end_speedup(walls):
    """The headline gate: ingest+cluster columnar >= MIN_SPEEDUP x."""
    record = walls["ingest-record"] + walls["cluster-record"]
    columnar = walls["ingest-columnar"] + walls["cluster-columnar"]
    speedup = record / columnar
    print(
        f"\ntrace spine end-to-end: record {record * 1e3:,.0f} ms, columnar "
        f"{columnar * 1e3:,.0f} ms ({speedup:,.1f}x, floor {MIN_SPEEDUP:g}x)"
    )
    assert speedup >= MIN_SPEEDUP

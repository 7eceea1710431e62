"""I/O tracing substrate (the paper's IOSIG role)."""

from .analysis import (
    Phase,
    TraceStats,
    burst_clusters,
    burst_ids_of,
    concurrency_of,
    split_phases,
    trace_statistics,
)
from .columnar import (
    TRACE_DTYPE,
    ColumnarTrace,
    PhaseSlices,
    as_columnar_trace,
    burst_ids_columnar,
    concurrency_columnar,
    split_phases_columnar,
)
from .record import Trace, TraceRecord
from .tracefile import (
    load_trace,
    load_trace_dir,
    load_trace_mmap,
    save_trace,
    save_trace_columnar,
    save_trace_per_rank,
)

__all__ = [
    "Trace",
    "TraceRecord",
    "Phase",
    "TraceStats",
    "split_phases",
    "concurrency_of",
    "burst_clusters",
    "burst_ids_of",
    "trace_statistics",
    "save_trace",
    "load_trace",
    "save_trace_per_rank",
    "load_trace_dir",
    "TRACE_DTYPE",
    "ColumnarTrace",
    "PhaseSlices",
    "as_columnar_trace",
    "split_phases_columnar",
    "concurrency_columnar",
    "burst_ids_columnar",
    "save_trace_columnar",
    "load_trace_mmap",
]

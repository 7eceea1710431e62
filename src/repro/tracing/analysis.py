"""Trace analysis: I/O phases and request concurrency.

MHA's similarity features are request **size** and request
**concurrency**, where concurrency is "the number of requests that are
simultaneously issued to the file" (§III-D).  From a timestamped trace
we recover that number by segmenting the trace into *I/O phases*
(bursts separated by a time gap, the standard trace-analysis heuristic
the paper's HPC workloads exhibit between compute phases) and counting
the requests issued within each phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import unique_values
from .record import Trace, TraceRecord

__all__ = ["Phase", "split_phases", "concurrency_of", "trace_statistics", "TraceStats"]


@dataclass(frozen=True)
class Phase:
    """A burst of requests issued close together in time."""

    start_time: float
    end_time: float
    records: tuple[TraceRecord, ...]

    @property
    def concurrency(self) -> int:
        """Requests simultaneously in flight during this phase."""
        return len(self.records)

    @property
    def distinct_ranks(self) -> int:
        return len({r.rank for r in self.records})


def split_phases(trace: Trace, gap: float = 0.5) -> list[Phase]:
    """Segment a trace into phases at timestamp gaps larger than ``gap``.

    Records are first time-ordered.  ``gap`` is in the trace's own time
    unit (the generators stamp phases ``PHASE_GAP`` seconds apart).
    """
    if gap <= 0:
        raise ValueError(f"gap must be > 0, got {gap}")
    ordered = list(trace.sorted_by_time())
    if not ordered:
        return []
    phases: list[Phase] = []
    current: list[TraceRecord] = [ordered[0]]
    for record in ordered[1:]:
        if record.timestamp - current[-1].timestamp > gap:
            phases.append(
                Phase(current[0].timestamp, current[-1].timestamp, tuple(current))
            )
            current = [record]
        else:
            current.append(record)
    phases.append(Phase(current[0].timestamp, current[-1].timestamp, tuple(current)))
    return phases


def _phase_spatial_threshold(ordered: list[TraceRecord]) -> int:
    """Adaptive split distance for one phase's offset-sorted records.

    A phase whose requests drive *different parts of the file with
    different process counts* (the paper's §I heterogeneity, exercised
    by Fig. 9) shows two gap populations: near-zero gaps inside each
    dense part and huge gaps between parts.  Splitting at
    ``16 * median_gap + 4 * max_request_size`` separates those without
    splitting phases whose requests are spread any *other* way:

    * uniformly spread (one request per process area) — every gap sits
      at the median, far below 16x it;
    * randomly shuffled over the file — the largest neighbour gap of an
      (approximately exponential) gap population stays well under 16x
      the median for realistic phase sizes;
    * dense tilings — gaps are zero and the ``4 * max_size`` term keeps
      the threshold above incidental holes.
    """
    gaps = [
        max(0, nxt.offset - cur.end)
        for cur, nxt in zip(ordered, ordered[1:])
    ]
    if not gaps:
        return 0
    gaps.sort()
    median = gaps[len(gaps) // 2]
    max_size = max(r.size for r in ordered)
    return 16 * median + 4 * max_size


def burst_clusters(
    trace: Trace, gap: float = 0.5, spatial: bool | int = False
) -> list[list[TraceRecord]]:
    """The trace's *bursts*: groups of requests issued simultaneously.

    With ``spatial=False`` a burst is simply an I/O phase (the paper's
    literal "number of requests that are simultaneously issued to the
    file").  With ``spatial=True`` each phase is additionally clustered
    by file location using an adaptive gap threshold (see
    :func:`_phase_spatial_threshold`); an integer value uses that fixed
    byte threshold instead.  Spatial clustering recovers the
    *per-location* concurrency MHA needs when different file parts see
    different process counts (Fig. 9).  A negative threshold is a
    ``ValueError``.
    """
    if spatial < 0:
        raise ValueError(f"spatial must be >= 0, got {spatial}")
    clusters: list[list[TraceRecord]] = []
    for phase in split_phases(trace, gap=gap):
        if spatial is False:
            clusters.append(list(phase.records))
            continue
        ordered = sorted(phase.records, key=lambda r: (r.offset, r.rank))
        threshold = (
            _phase_spatial_threshold(ordered) if spatial is True else int(spatial)
        )
        cluster: list[TraceRecord] = [ordered[0]]
        clusters.append(cluster)
        for record in ordered[1:]:
            if record.offset - cluster[-1].end > threshold:
                cluster = [record]
                clusters.append(cluster)
            else:
                cluster.append(record)
    return clusters


def concurrency_of(
    trace: Trace, gap: float = 0.5, spatial: bool | int = False
) -> dict[TraceRecord, int]:
    """Per-record concurrency: the size of the record's burst.

    Records that compare equal (identical fields) share a phase by
    construction and therefore a single entry.  See
    :func:`burst_clusters` for the burst definition.
    """
    mapping: dict[TraceRecord, int] = {}
    for members in burst_clusters(trace, gap=gap, spatial=spatial):
        for record in members:
            mapping[record] = len(members)
    return mapping


def burst_ids_of(
    trace: Trace, gap: float = 0.5, spatial: bool | int = False
) -> dict[TraceRecord, int]:
    """Per-record burst identifier (dense ints, one per burst).

    The layout determinator uses burst ids to evaluate the cost model
    against the trace's *actual* simultaneous request groups rather
    than a statistical approximation of them.
    """
    mapping: dict[TraceRecord, int] = {}
    for idx, members in enumerate(burst_clusters(trace, gap=gap, spatial=spatial)):
        for record in members:
            mapping[record] = idx
    return mapping


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (used in reports and sanity tests)."""

    count: int
    total_bytes: int
    read_fraction: float
    mean_size: float
    max_size: int
    min_size: int
    distinct_sizes: int
    distinct_ranks: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.count} requests, {self.total_bytes} bytes, "
            f"{self.read_fraction:.0%} reads, sizes "
            f"[{self.min_size}, {self.max_size}] mean {self.mean_size:.0f}"
        )


def trace_statistics(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for a trace (zeros when empty)."""
    if len(trace) == 0:
        return TraceStats(0, 0, 0.0, 0.0, 0, 0, 0, 0)
    sizes = np.array([r.size for r in trace], dtype=np.int64)
    reads = sum(1 for r in trace if r.op == "read")
    return TraceStats(
        count=len(trace),
        total_bytes=int(sizes.sum()),
        read_fraction=reads / len(trace),
        mean_size=float(sizes.mean()),
        max_size=int(sizes.max()),
        min_size=int(sizes.min()),
        distinct_sizes=int(unique_values(sizes).size),
        distinct_ranks=len(trace.ranks()),
    )

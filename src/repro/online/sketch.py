"""Streaming feature sketch: windowed per-region traffic stats.

The off-line pipeline sees a complete trace and can run the full §III-D
feature analysis; the online controller sees one record at a time and
must keep its view of "what each region is currently serving" cheap and
bounded.  Each region keeps a **window**
(``collections.deque(maxlen=...)``) of its most recent ``(size,
concurrency)`` samples — the drift detector's evidence, because it
forgets old traffic at a predictable rate.

Concurrency cannot be known at arrival time (a burst's size is only
known once the burst ends), so the sketch buffers the current burst per
file and attributes the whole burst when a record arrives more than
``gap`` after the previous one — the same phase rule as
:func:`repro.tracing.analysis.split_phases`, applied incrementally.
Within a closed burst, per-record concurrency comes from the *same*
:func:`~repro.tracing.analysis.concurrency_of` analysis the off-line
pipeline uses (including spatial sub-clustering), so a steady workload
produces exactly the features its plan's centroids were built from.

Each sample is attributed to the region that holds the largest share of
the request's bytes under the *active* plan's DRT; bytes the DRT does
not map at all are tallied per file as **unmapped traffic** — a rising
unmapped fraction means the application started touching byte ranges
the active plan never reordered, which is drift no centroid comparison
can see.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.pipeline import MHAPlan
from ..exceptions import ConfigurationError
from ..tracing.analysis import concurrency_of
from ..tracing.record import Trace, TraceRecord

__all__ = ["RegionSketch", "StreamingSketch", "DEFAULT_WINDOW"]

#: default per-region sample window
DEFAULT_WINDOW = 256


@dataclass
class RegionSketch:
    """Windowed ``(size, concurrency)`` stats for one region."""

    window: int = DEFAULT_WINDOW
    samples: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        self.samples = deque(self.samples, maxlen=self.window)

    def update(self, size: int, concurrency: int) -> None:
        """Add one attributed sample to the window."""
        self.samples.append((size, concurrency))

    @property
    def n(self) -> int:
        """Samples currently in the window."""
        return len(self.samples)

    def feature_point(self) -> tuple[float, float]:
        """Windowed mean ``(size, concurrency)`` — the live feature point."""
        if not self.samples:
            return (0.0, 0.0)
        n = len(self.samples)
        return (
            sum(s for s, _ in self.samples) / n,
            sum(c for _, c in self.samples) / n,
        )


@dataclass
class FileTraffic:
    """Per-file mapped/unmapped byte tallies over the sketch's lifetime."""

    mapped_bytes: int = 0
    unmapped_bytes: int = 0

    @property
    def unmapped_fraction(self) -> float:
        total = self.mapped_bytes + self.unmapped_bytes
        if total == 0:
            return 0.0
        return self.unmapped_bytes / total


class StreamingSketch:
    """Incremental per-region traffic statistics against an active plan.

    Parameters
    ----------
    window:
        Per-region sample window length.
    gap:
        Burst-closing time gap (same meaning as the off-line analysis
        gap: records further apart belong to different phases).
    spatial:
        Spatial burst sub-clustering, forwarded to
        :func:`~repro.tracing.analysis.concurrency_of` when a burst
        closes; match the planning pipeline's setting so live features
        are commensurable with the plan's centroids.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        gap: float = 0.5,
        spatial: bool | int = True,
    ) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.gap = gap
        self.spatial = spatial
        self.regions: dict[str, RegionSketch] = {}
        self.traffic: dict[str, FileTraffic] = {}
        self._pending: dict[str, list[TraceRecord]] = {}
        self.observed = 0

    # -- ingestion -------------------------------------------------------

    def observe(self, record: TraceRecord, plan: MHAPlan) -> None:
        """Feed one live record; bursts are attributed when they close."""
        self.observed += 1
        pending = self._pending.setdefault(record.file, [])
        if pending and record.timestamp - pending[-1].timestamp > self.gap:
            self._close_burst(record.file, pending, plan)
            pending = self._pending[record.file] = []
        pending.append(record)

    def flush(self, plan: MHAPlan) -> None:
        """Attribute every still-open burst (end-of-stream finalization).

        Destructive: the open bursts are closed *as seen*, so a flush in
        the middle of a burst fragments it and under-counts concurrency.
        Periodic drift checks must use :meth:`snapshot` instead.
        """
        for file, pending in list(self._pending.items()):
            if pending:
                self._close_burst(file, pending, plan)
                self._pending[file] = []

    def snapshot(self, plan: MHAPlan) -> "StreamingSketch":
        """A copy with every open burst attributed, live state untouched.

        A drift check can fire while a burst is still accumulating; if
        it flushed the live sketch it would split that burst at the
        check boundary and attribute a partial concurrency (e.g. an
        8-wide burst checked after 2 records reads as concurrency 2).
        Reading a snapshot instead leaves the burst open, so it is
        attributed exactly once, whole, when it really closes.
        """
        snap = StreamingSketch(window=self.window, gap=self.gap, spatial=self.spatial)
        snap.observed = self.observed
        snap.regions = {
            name: RegionSketch(window=rs.window, samples=rs.samples)
            for name, rs in self.regions.items()
        }
        snap.traffic = {
            file: FileTraffic(t.mapped_bytes, t.unmapped_bytes)
            for file, t in self.traffic.items()
        }
        snap._pending = {file: list(p) for file, p in self._pending.items()}
        snap.flush(plan)
        return snap

    def _close_burst(
        self, file: str, burst: list[TraceRecord], plan: MHAPlan
    ) -> None:
        conc = concurrency_of(Trace(burst), gap=self.gap, spatial=self.spatial)
        traffic = self.traffic.setdefault(file, FileTraffic())
        for record in burst:
            region, mapped, unmapped = self._dominant_region(plan, record)
            traffic.mapped_bytes += mapped
            traffic.unmapped_bytes += unmapped
            if region is None:
                continue
            sketch = self.regions.get(region)
            if sketch is None:
                sketch = self.regions[region] = RegionSketch(window=self.window)
            sketch.update(record.size, conc.get(record, 1))

    @staticmethod
    def _dominant_region(
        plan: MHAPlan, record: TraceRecord
    ) -> tuple[str | None, int, int]:
        """The region holding most of the record's bytes, plus the
        mapped/unmapped byte split of the whole request."""
        per_region: dict[str, int] = {}
        unmapped = 0
        for extent in plan.drt.translate(record.file, record.offset, record.size):
            if extent.mapped:
                per_region[extent.file] = per_region.get(extent.file, 0) + extent.length
            else:
                unmapped += extent.length
        mapped = record.size - unmapped
        if not per_region:
            return None, mapped, unmapped
        dominant = max(per_region, key=lambda name: (per_region[name], name))
        return dominant, mapped, unmapped

    # -- readout ---------------------------------------------------------

    def region_sketch(self, region: str) -> RegionSketch | None:
        return self.regions.get(region)

    def unmapped_fraction(self, file: str) -> float:
        traffic = self.traffic.get(file)
        return traffic.unmapped_fraction if traffic else 0.0

    def files(self) -> list[str]:
        """Files with any observed traffic."""
        return sorted(self.traffic)

    def reset(self) -> None:
        """Drop all state — called after a relayout commits, so the new
        plan's regions are judged only on traffic they served."""
        self.regions.clear()
        self.traffic.clear()
        self._pending.clear()
        self.observed = 0

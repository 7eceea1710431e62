"""Trace replay: drive the PFS simulator with an application's requests.

The paper's trace-driven experiments (§V-D) "replay the data accesses
of the application according to the I/O trace": every rank issues its
own requests synchronously (next request starts when the previous
completes — the applications use synchronous read/write), and ranks
run concurrently.  The replay engine reproduces exactly that, mapping
each request through a *file view* — a static layout table
(DEF/AAL/HARL) or the MHA redirector: any object with
``map_request(file, offset, length) -> list[SubRequest]``
(:class:`FileView`) and, to replay on the flat engine, the batch
mapper ``merged_runs(file, offsets, lengths) -> MergedRuns``
(:class:`BatchFileView`).

Two engines produce the same replay:

* ``"flat"`` (the default, :mod:`repro.pfs.flat`) — an event-free merge
  loop over per-rank cursors that computes every completion time as
  queue-tail arithmetic.  Bit-identical metrics, ~an order of magnitude
  faster.  It also drives feedback views (the straggler-aware
  dispatcher), reporting each run's completion in event order;
* ``"event"`` — one generator process per rank on the discrete-event
  engine.  Required (and selected automatically) whenever a replay
  needs the per-record ``on_record`` hook or runs on a simulator with
  events already in flight — the two things the online relayout loop
  does.  It is also the reference every flat-kernel twin is tested
  against.

:attr:`RunMetrics.engine` records which engine ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Iterator,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from ..cluster import ClusterSpec
from ..config import DEFAULT_REPLAY_ENGINE
from ..exceptions import ConfigurationError
from ..layouts.base import SubRequest
from ..layouts.batch import MergedRuns
from ..simulate import Simulator, Waitable
from ..tracing.columnar import ColumnarTrace, as_columnar_trace
from ..tracing.record import Trace, TraceRecord
from .flat import replay_flat
from .system import HybridPFS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan

__all__ = ["BatchFileView", "FileView", "RunMetrics", "replay_trace", "run_workload"]


@runtime_checkable
class FileView(Protocol):
    """Anything that can resolve a file request into server fragments:
    what the event engine maps each request through.  The flat kernel
    also needs :class:`BatchFileView`'s ``merged_runs``."""

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Fragments of ``[offset, offset+length)`` of ``file``."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class BatchFileView(FileView, Protocol):
    """A file view the flat kernel can premap: one batch call per file."""

    def merged_runs(
        self, file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        """Extent ``k``'s servers and lengths, in order, are those of
        ``merge_fragments(map_request(file, offsets[k], lengths[k]))``."""
        ...  # pragma: no cover - protocol


@dataclass
class RunMetrics:
    """Everything a replay measures."""

    makespan: float
    total_bytes: int
    requests: int
    per_server_busy: list[float]
    per_server_bytes: list[int]
    read_bytes: int
    write_bytes: int
    latencies: list[float] = field(default_factory=list)
    #: issuing rank of each kept latency sample (parallel to
    #: ``latencies``); the multi-tenant service namespaces ranks per
    #: tenant, so this is what per-tenant tail percentiles group by
    latency_ranks: list[int] = field(default_factory=list)
    #: per-server sub-request service latencies (finish - submit), by
    #: cluster index; populated only when the replay kept latencies —
    #: the per-server tail columns of the chaos reports read these
    per_server_latencies: list[list[float]] = field(default_factory=list)
    #: the engine that ran the replay, ``"flat"`` or ``"event"`` (empty
    #: when the metrics come from elsewhere); both engines give the same
    #: results, so it takes no part in equality and no digest reads it
    engine: str = field(default="", compare=False)
    # cached ascending view of ``latencies`` for percentile queries;
    # rebuilt when the list length changes, droppable explicitly via
    # :meth:`invalidate_latency_cache` after in-place mutation
    _sorted_latencies: list[float] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # same caching discipline, per server index
    _sorted_server_latencies: dict[int, list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def bandwidth(self) -> float:
        """Aggregate bandwidth in bytes/second (the figures' metric)."""
        if self.makespan <= 0:
            return 0.0
        return self.total_bytes / self.makespan

    def invalidate_latency_cache(self) -> None:
        """Drop the sorted-latency caches (call after mutating
        ``latencies``/``per_server_latencies`` in place without
        changing their lengths)."""
        self._sorted_latencies = None
        self._sorted_server_latencies.clear()

    def _sorted_view(self) -> list[float]:
        cached = self._sorted_latencies
        if cached is None or len(cached) != len(self.latencies):
            cached = sorted(self.latencies)
            self._sorted_latencies = cached
        return cached

    def latency_percentile(self, q: float) -> float:
        """Request-latency percentile (``q`` in [0, 100]).

        Requires the replay to have been run with
        ``keep_latencies=True``; returns 0.0 otherwise.  The sorted
        view is cached, so repeated percentile queries (p50/p99 per
        figure row) cost one sort total.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self.latencies:
            return 0.0
        ordered = self._sorted_view()
        rank = min(len(ordered) - 1, int(round(q / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def server_latency_percentile(self, server: int, q: float) -> float:
        """Per-server sub-request latency percentile (``q`` in [0, 100]).

        ``server`` is the cluster index.  Requires the replay to have
        kept latencies; returns 0.0 when the server saw no traffic (or
        none were kept).  Sorted views are cached per server, the same
        discipline as :meth:`latency_percentile`.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not 0 <= server < len(self.per_server_latencies):
            if not self.per_server_latencies:
                return 0.0
            raise IndexError(
                f"server {server} out of range 0..{len(self.per_server_latencies) - 1}"
            )
        raw = self.per_server_latencies[server]
        if not raw:
            return 0.0
        cached = self._sorted_server_latencies.get(server)
        if cached is None or len(cached) != len(raw):
            cached = sorted(raw)
            self._sorted_server_latencies[server] = cached
        rank = min(len(cached) - 1, int(round(q / 100 * (len(cached) - 1))))
        return cached[rank]

    def group_latencies(self, ranks: "Collection[int]") -> list[float]:
        """The kept latency samples of requests issued by ``ranks``.

        Requires the replay to have kept latencies; the returned list
        is in completion order, same as :attr:`latencies`.  The
        multi-tenant service passes a tenant's (namespaced) rank set
        here to compute per-tenant tails.
        """
        wanted = ranks if isinstance(ranks, (set, frozenset)) else frozenset(ranks)
        return [
            lat
            for lat, rank in zip(self.latencies, self.latency_ranks)
            if rank in wanted
        ]

    def group_latency_percentile(self, ranks: "Collection[int]", q: float) -> float:
        """Request-latency percentile over one rank group (tenant).

        Same rank convention as :meth:`latency_percentile`; returns 0.0
        when the group has no kept samples.  Not cached — tenant groups
        are queried a handful of times each, unlike the global tails.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        samples = sorted(self.group_latencies(ranks))
        if not samples:
            return 0.0
        rank = min(len(samples) - 1, int(round(q / 100 * (len(samples) - 1))))
        return samples[rank]

    @property
    def p50_latency(self) -> float:
        """Median request latency (0.0 unless latencies were kept)."""
        return self.latency_percentile(50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile request latency (0.0 unless kept)."""
        return self.latency_percentile(95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile request latency (tail; 0.0 unless kept)."""
        return self.latency_percentile(99)

    @property
    def p999_latency(self) -> float:
        """99.9th-percentile request latency (0.0 unless kept)."""
        return self.latency_percentile(99.9)

    def load_imbalance(self) -> float:
        """Max/min per-server I/O time over servers that did any work.

        1.0 means perfectly even (the paper's Fig. 8 normalizes to the
        minimum for the same reason).
        """
        active = [t for t in self.per_server_busy if t > 0]
        if len(active) < 2:
            return 1.0
        return max(active) / min(active)


def _phase_index(
    ordered: ColumnarTrace, barrier_gap: float
) -> tuple[list[int], list[int]]:
    """Bucket time-ordered records into barrier phases, by *index*.

    A new phase opens wherever consecutive timestamps jump by more than
    ``barrier_gap``.  Keying by position (not by record value) keeps
    duplicated records — identical rank/offset/size/timestamp entries,
    legal in a trace — in their own phase slots.  Returns
    ``(phase_of, phase_sizes)`` with ``phase_of[i]`` the phase of
    ``ordered[i]``.
    """
    times = ordered.data["timestamp"]
    if times.size == 0:
        return [], []
    new_phase = np.empty(times.size, dtype=bool)
    new_phase[0] = True
    new_phase[1:] = times[1:] - times[:-1] > barrier_gap
    phase_arr = np.cumsum(new_phase) - 1
    return phase_arr.tolist(), np.bincount(phase_arr).tolist()


def _arrival_gate(sim: Simulator, at: float) -> Waitable:
    """A waitable firing at absolute simulated time ``at`` (one event)."""
    gate = Waitable()
    sim.schedule_at(at, gate.fire)
    return gate


def _replay_event(
    pfs: HybridPFS,
    view: FileView,
    ordered: Sequence[TraceRecord],
    *,
    keep_latencies: bool,
    on_record: Callable[[TraceRecord], None] | None,
    phase_of: list[int] | None,
    phase_sizes: list[int] | None,
    open_arrivals: bool = False,
) -> tuple[float, list[float], list[int]]:
    """The generator-process replay path (one process per rank)."""
    sim = pfs.sim
    start_time = sim.now
    latencies: list[float] = []
    latency_ranks: list[int] = []
    # optional view protocols: op-aware dispatch (a dispatcher that
    # treats writes and reads differently and orders its own pre-merged
    # runs, e.g. straggler-aware write redirection) and completion-time
    # latency feedback
    dispatch = getattr(view, "dispatch_request", None)
    observer = getattr(view, "observe_latency", None)
    by_rank: dict[int, list[int]] = {}
    for i, record in enumerate(ordered):
        by_rank.setdefault(record.rank, []).append(i)
    foreground_end = [start_time]

    use_barrier = phase_of is not None
    remaining: list[int] = list(phase_sizes) if phase_sizes is not None else []
    phases: list[int] = phase_of if phase_of is not None else []
    phase_done: list[Waitable] = [Waitable() for _ in remaining]
    frontier = [0]  # first phase not yet known complete

    def record_complete(phase: int) -> None:
        remaining[phase] -= 1
        while frontier[0] < len(remaining) and remaining[frontier[0]] == 0:
            phase_done[frontier[0]].fire()
            frontier[0] += 1

    def rank_process(indices: list[int]) -> Iterator[Waitable]:
        for i in indices:
            record = ordered[i]
            if use_barrier:
                p = phases[i]
                if p > 0 and not phase_done[p - 1].fired:
                    yield phase_done[p - 1]
            if open_arrivals:
                arrival = start_time + record.timestamp
                if arrival > sim.now:
                    yield _arrival_gate(sim, arrival)
            issued = sim.now
            if on_record is not None:
                on_record(record)
            if dispatch is not None:
                runs = dispatch(record.op, record.file, record.offset, record.size)
                yield pfs.issue_merged(
                    record.op, runs, rank=record.rank, observer=observer
                )
            else:
                fragments = view.map_request(record.file, record.offset, record.size)
                yield pfs.issue(
                    record.op, fragments, rank=record.rank, observer=observer
                )
            if use_barrier:
                record_complete(phases[i])
            if keep_latencies:
                latencies.append(sim.now - issued)
                latency_ranks.append(record.rank)
        foreground_end[0] = max(foreground_end[0], sim.now)

    for rank in sorted(by_rank):
        sim.spawn(rank_process(by_rank[rank]), name=f"rank{rank}")
    sim.run()
    return foreground_end[0], latencies, latency_ranks


def replay_trace(
    pfs: HybridPFS,
    view: FileView,
    trace: "Trace | ColumnarTrace",
    *,
    keep_latencies: bool = False,
    on_record: Callable[[TraceRecord], None] | None = None,
    barrier_gap: float | None = None,
    engine: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    open_arrivals: bool = False,
) -> RunMetrics:
    """Replay ``trace`` against ``pfs`` through ``view``.

    Each rank's records are issued in timestamp order, one at a time;
    ranks proceed independently and contend on the servers.  Returns
    the metrics of this replay (server stats are reset first, so a
    shared :class:`HybridPFS` can host several sequential replays).

    ``trace`` is converted once, on entry, to a time-sorted
    :class:`~repro.tracing.columnar.ColumnarTrace` (the conversion is a
    no-op for a columnar input).  The flat kernel reads its columns
    directly; the event engine gets records materialized from it.

    ``on_record`` is called with each trace record at its simulated
    issue time, *before* the request is mapped — the hook point for
    online observers (the relayout controller of :mod:`repro.online`
    watches live traffic and spawns background migrations through it).
    Because the view is consulted after the hook, a hook that swaps or
    mutates the view affects the very record it was called for.
    ``metrics.makespan`` covers only the foreground requests: processes
    the hook spawned may keep the simulator running past it.

    ``barrier_gap`` emulates MPI collective I/O: records are bucketed
    into phases wherever consecutive trace timestamps jump by more
    than the gap (the :data:`~repro.workloads.base.PHASE_GAP`
    structure of the workload generators), and no rank may issue a
    phase-``p`` record before every record of earlier phases has
    completed.  ``None`` (the default) keeps ranks fully independent.

    ``engine`` picks ``"flat"`` or ``"event"``
    (:data:`~repro.config.DEFAULT_REPLAY_ENGINE` when ``None``).  The
    flat kernel is skipped, falling back to the event engine, when an
    ``on_record`` hook is set or when the simulator already has pending
    events (e.g. background migrations in flight).  ``metrics.engine``
    names the engine that ran.  The flat kernel premaps through the
    view's ``merged_runs``: a view without one (not a
    :class:`BatchFileView`) raises :class:`ConfigurationError` there.

    ``fault_plan`` attaches a compiled
    :class:`~repro.faults.plan.FaultPlan` to ``pfs`` before the replay
    (``None`` leaves whatever is already attached untouched).  Faults
    only defer/dilate service — both engines consult the same compiled
    timelines and stay bit-identical.

    ``open_arrivals`` switches to open-loop replay: in addition to the
    closed-loop rule (a rank's next record issues when its previous one
    completes), no record may issue before ``replay start +
    record.timestamp`` — the trace timestamps become an arrival
    process.  This is how the multi-tenant service
    (:mod:`repro.tenancy`) replays independently-arriving tenant
    streams; both engines implement it bit-identically.
    """
    if engine is None:
        engine = DEFAULT_REPLAY_ENGINE
    if engine not in ("flat", "event"):
        raise ConfigurationError(f"unknown replay engine {engine!r}")
    sim = pfs.sim
    # the view the flat kernel replays, or None for the event engine
    flat_view: BatchFileView | None = None
    if engine == "flat" and on_record is None and sim.pending() == 0:
        if not isinstance(view, BatchFileView):
            raise ConfigurationError(
                f"{type(view).__name__} has no merged_runs for the flat "
                "engine; replay it with engine='event'"
            )
        flat_view = view
    if fault_plan is not None:
        fault_plan.attach(pfs)
    pfs.reset_stats()
    if keep_latencies:
        for srv in pfs.servers:
            srv.latency_log = []
    start_time = sim.now
    ordered = as_columnar_trace(trace).sorted_by_time()
    phase_of: list[int] | None = None
    phase_sizes: list[int] | None = None
    if barrier_gap is not None:
        phase_of, phase_sizes = _phase_index(ordered, barrier_gap)
    if flat_view is not None:
        foreground_end, latencies, latency_ranks = replay_flat(
            pfs,
            flat_view,
            ordered,
            keep_latencies=keep_latencies,
            phase_of=phase_of,
            phase_sizes=phase_sizes,
            open_arrivals=open_arrivals,
        )
    else:
        # the event engine's hook and dispatchers consume records, so
        # records materialize only on this fallback path
        foreground_end, latencies, latency_ranks = _replay_event(
            pfs,
            view,
            ordered.to_trace(),
            keep_latencies=keep_latencies,
            on_record=on_record,
            phase_of=phase_of,
            phase_sizes=phase_sizes,
            open_arrivals=open_arrivals,
        )

    per_server_latencies: list[list[float]] = []
    if keep_latencies:
        per_server_latencies = [
            srv.latency_log if srv.latency_log is not None else []
            for srv in pfs.servers
        ]
    return RunMetrics(
        makespan=foreground_end - start_time,
        total_bytes=ordered.total_bytes(),
        requests=len(ordered),
        per_server_busy=pfs.per_server_busy(),
        per_server_bytes=pfs.per_server_bytes(),
        read_bytes=ordered.read_bytes(),
        write_bytes=ordered.write_bytes(),
        latencies=latencies,
        latency_ranks=latency_ranks,
        per_server_latencies=per_server_latencies,
        engine="event" if flat_view is None else "flat",
    )


def run_workload(
    spec: ClusterSpec,
    view: FileView,
    trace: "Trace | ColumnarTrace",
    *,
    keep_latencies: bool = False,
    engine: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    open_arrivals: bool = False,
) -> RunMetrics:
    """Convenience: fresh simulator + PFS, one replay, return metrics."""
    pfs = HybridPFS(spec)
    return replay_trace(
        pfs,
        view,
        trace,
        keep_latencies=keep_latencies,
        engine=engine,
        fault_plan=fault_plan,
        open_arrivals=open_arrivals,
    )

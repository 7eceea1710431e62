"""The flat replay kernel: event-free trace replay over FIFO servers.

Every data server is a single FIFO channel, so a sub-request's finish
time is pure queue-tail arithmetic (``start = max(now, not_before,
tail)``) the moment it is submitted — no event heap, no generator
processes, no ``Completion``/``AllOf`` allocation per request.  The
kernel takes the time-sorted
:class:`~repro.tracing.columnar.ColumnarTrace` that
:func:`~repro.pfs.replay.replay_trace` converts its input to, and
builds its per-rank rows, ops and arrival times from the columns.  It
keeps one cursor per rank and drives a merge loop keyed by each
in-flight request's finish time; requests themselves are pre-mapped in
one batched pass through the view (:func:`mapped_runs`).

**Bit-identity with the event engine.**  The kernel owns the servers'
FIFO arithmetic.  It prices each distinct ``(server, op, length)`` of
a run once, with the expression :meth:`repro.pfs.server.DataServer.submit`
evaluates, keeps each server's queue tail, busy time, counts and
latency log in locals (written back once, at the end), and combines
them with the same ``max``/``+`` arithmetic in the same per-server
order, consulting a faulted server's timeline per run — so every float
it produces equals the event engine's bit for bit.  Ordering decisions
mirror the event engine exactly:

* ranks issue their first records synchronously in sorted-rank order
  (event mode: ``spawn`` order);
* a request's completion is its *critical* fragment — the last
  submitted among those with the maximal finish time (event mode: the
  last child event popped fires the ``AllOf``), so the ready heap keyed
  by ``(finish, fragment_seq)`` pops in the event heap's order.  The
  fragment counter skips the seq numbers the event engine burns on NIC
  completions, which sit *between* consecutive fragments' seqs and
  therefore never change relative order;
* on completion: barrier bookkeeping first (resuming barrier-blocked
  ranks in blocking order, as ``Waitable.fire`` does), then the latency
  append, then the rank's next issue — the exact statement order of the
  event-mode rank generator.

**Feedback views.**  The kernel gives a view the event engine's two
hooks.  A view with ``dispatch_runs`` (the straggler-aware dispatcher,
whose event-engine form is ``dispatch_request``) is asked at issue time
which runs to submit, in which order: it gets the request's file name,
offset and size as a Python string and ints, the premapped batch and
the request's index, and returns the runs' servers and lengths as
columns, all a run's service time depends on; the kernel prices each
of those runs in its submit loop.  A view with
``observe_latency`` learns from every run's completion, in
event order: each merged run gets its own ready-heap entry keyed
``(finish, seq)``, popping it calls ``observe_latency(server, finish -
issued, finish)``, and the request completes when its last run pops —
in event mode a run's ``Completion`` fires its observer before the
``AllOf`` wakes the rank.  Views without an observer keep the single
critical-fragment entry per request.

The simulator clock is advanced once at the end via
:meth:`~repro.simulate.engine.Simulator.advance_to`, so sequential
replays sharing a :class:`~repro.pfs.system.HybridPFS` observe the same
clock either way.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..contracts import twin_of
from ..exceptions import SimulationError
from ..layouts.batch import MergedRuns, in_request_order, runs_from_fragments
from ..tracing.columnar import OP_NAMES, ColumnarTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .replay import FileView
    from .server import DataServer
    from .system import HybridPFS

__all__ = ["mapped_runs", "replay_flat"]


def mapped_runs(view: "FileView", trace: ColumnarTrace) -> MergedRuns:
    """Map all records of ``trace`` through ``view`` into merged runs.

    Views exposing a ``merged_runs(file, offsets, lengths)`` batch API
    (:class:`~repro.schemes.base.LayoutView`, the MHA
    :class:`~repro.core.redirector.Redirector`, the straggler-aware
    view) get one batched call per file, fed the offset/size columns as
    the arrays they already are, and a multi-file trace's parts are
    gathered into record order by
    :func:`~repro.layouts.batch.in_request_order`; anything else falls
    back to per-record ``map_request``.
    Either way extent ``k``'s runs have the servers and lengths, in
    order, of the event path's ``merge_fragments(view.map_request(...))``
    for record ``k``.
    """
    batch = getattr(view, "merged_runs", None)
    d = trace.data
    if batch is None:
        names = trace.interned_files
        return MergedRuns.concat(
            [
                runs_from_fragments(view.map_request(names[code], offset, size))
                for code, offset, size in zip(
                    d["file"].tolist(), d["offset"].tolist(), d["size"].tolist()
                )
            ]
        )
    partition = trace.file_partition()
    if len(partition) == 1:
        # single-file trace: the batch result is already record-ordered
        (file,) = partition
        runs: MergedRuns = batch(file, d["offset"], d["size"])
        return runs
    parts = [
        batch(file, d["offset"][rows], d["size"][rows])
        for file, rows in partition.items()
    ]
    return in_request_order(parts, list(partition.values()))


#: heap sentinel marking an arrival wakeup (vs. a barrier phase >= 0
#: or the barrier-less completion marker -1)
_WAKEUP = -2


@twin_of(
    "repro.pfs.replay:_replay_event",
    unsupported=("on_record",),
    fallback_flags=("DEFAULT_REPLAY_ENGINE",),
    harness="replay",
)
def replay_flat(
    pfs: "HybridPFS",
    view: "FileView",
    ordered: ColumnarTrace,
    *,
    keep_latencies: bool = False,
    phase_of: Sequence[int] | None = None,
    phase_sizes: Sequence[int] | None = None,
    open_arrivals: bool = False,
) -> tuple[float, list[float], list[int]]:
    """Replay the time-ordered columnar trace ``ordered`` without the
    event heap.

    ``phase_of``/``phase_sizes`` carry the barrier structure computed by
    :func:`repro.pfs.replay._phase_index` (both ``None`` when barriers
    are off).  ``open_arrivals`` switches from closed-loop replay (a
    rank issues its next record the instant the previous one completes)
    to open-loop: a record may additionally not issue before its trace
    timestamp, relative to the replay start — arrival waits go through
    the same ready heap as completions, with seq numbers allocated at
    the point the event engine would schedule its wakeup event, so
    same-instant ordering stays bit-identical.  Returns
    ``(foreground_end, latencies, latency_ranks)`` where
    ``latency_ranks[k]`` is the issuing rank of the request behind
    ``latencies[k]``; server/resource statistics accumulate on ``pfs``
    exactly as in event mode, and the simulator clock ends at the last
    completion time.
    """
    sim = pfs.sim
    start = sim.now
    runs = mapped_runs(view, ordered)
    dispatch = getattr(view, "dispatch_runs", None)
    observer = getattr(view, "observe_latency", None)
    # stable argsort by rank == per-rank index rows in trace order
    rank_col = ordered.data["rank"]
    order = np.argsort(rank_col, kind="stable")
    uniq, bounds = np.unique(rank_col[order], return_index=True)
    ranks = uniq.tolist()
    edges = np.append(bounds, order.size)
    rows = [order[edges[r] : edges[r + 1]].tolist() for r in range(uniq.size)]
    codes = ordered.data["op"].tolist()
    ops = [OP_NAMES[c] for c in codes]
    arrivals = (start + ordered.data["timestamp"]).tolist() if open_arrivals else []
    n_ranks = len(rows)
    cursor = [0] * n_ranks
    issued_at = [start] * n_ranks
    servers = pfs.servers
    n_srv = len(servers)
    n_ops = len(OP_NAMES)
    prices = _Prices(servers)
    price_col = prices.column(runs, ordered.data["op"]) if dispatch is None else []
    if dispatch is not None:
        # a dispatcher keys requests by file name, offset and size as
        # Python objects: memoryviews of the columns index to Python ints
        names = ordered.interned_files
        file_codes, offsets, sizes = (
            memoryview(ordered.data[column].astype(np.int64))
            for column in ("file", "offset", "size")
        )
    # per-server queue state, written back once at the end
    tails = [srv.channel.busy_until for srv in servers]
    busy = [srv.channel.busy_time for srv in servers]
    served = [0] * n_srv
    moved = {op: [0] * n_srv for op in OP_NAMES}
    faults = [srv.faults for srv in servers]
    logs = [srv.latency_log for srv in servers]
    client_links = pfs.client_links
    nodes = (
        [client_links[rank % len(client_links)] for rank in ranks]
        if client_links is not None
        else None
    )
    link_time = pfs.spec.link.transfer_time
    srv_col = runs.servers
    len_col = runs.lengths
    starts_col = runs.starts
    use_barrier = phase_of is not None
    phases: list[int] = list(phase_of) if phase_of is not None else []
    remaining: list[int] = list(phase_sizes) if phase_sizes is not None else []
    fired = [False] * len(remaining)
    waiters: list[list[int]] = [[] for _ in remaining]
    frontier = 0
    foreground_end = start
    max_finish = start
    seq = 0
    latencies: list[float] = []
    latency_ranks: list[int] = []
    # in-flight requests: (critical finish, critical fragment seq, rank
    # position, barrier phase or -1, -1) — pops in the event heap's
    # order.  Arrival wakeups ride the same heap tagged ``_WAKEUP``.  A
    # view with an observer gets one entry per run instead, whose last
    # field is the run's server, and ``runs_left`` counts each rank's
    # runs still in flight.
    heap: list[tuple[float, int, int, int, int]] = []
    runs_left = [0] * n_ranks

    def issue_from(rp: int, now: float) -> None:
        nonlocal foreground_end, max_finish, seq
        row = rows[rp]
        c = cursor[rp]
        if c == len(row):
            if now > foreground_end:
                foreground_end = now
            return
        i = row[c]
        phase = -1
        if use_barrier:
            phase = phases[i]
            if phase > 0 and not fired[phase - 1]:
                waiters[phase - 1].append(rp)
                return
        if open_arrivals:
            arrival = arrivals[i]
            if arrival > now:
                # the event engine schedules one wakeup event here; burn
                # the matching seq so same-instant pops keep its order
                heappush(heap, (arrival, seq, rp, _WAKEUP, -1))
                seq += 1
                return
        cursor[rp] = c + 1
        issued_at[rp] = now
        lo = starts_col[i]
        hi = starts_col[i + 1]
        if lo == hi:  # pragma: no cover - size > 0 always maps to a run
            if phase >= 0:
                record_complete(phase, now)
            if keep_latencies:
                latencies.append(0.0)
                latency_ranks.append(ranks[rp])
            issue_from(rp, now)
            return
        op = ops[i]
        code = codes[i]
        price: list[float] | None
        if dispatch is None:
            on, lens, price = srv_col, len_col, price_col
        else:
            on, lens = dispatch(op, names[file_codes[i]], offsets[i], sizes[i], runs, i)
            lo, hi = 0, len(on)
            # each run priced in the loop below: a comprehension here
            # would make ``code`` a cell, allocated on every call
            price = None
        not_before = 0.0
        if nodes is not None:
            total = 0
            for j in range(lo, hi):
                total += lens[j]
            not_before = nodes[rp].schedule_flat(now, link_time(total))
        op_bytes = moved[op]
        best = -1.0
        best_seq = -1
        for j in range(lo, hi):
            s = on[j]
            n = lens[j]
            begin = max(now, not_before, tails[s])
            if price is None:
                duration = prices[(n * n_ops + code) * n_srv + s]
            else:
                duration = price[j]
            fault = faults[s]
            if fault is not None:
                begin, factor = fault.adjust_flat(op, n, begin, tails[s])
                duration *= factor
            finish = begin + duration
            tails[s] = finish
            busy[s] += duration
            served[s] += 1
            op_bytes[s] += n
            log = logs[s]
            if log is not None:
                log.append(finish - now)
            if finish >= best:
                best = finish
                best_seq = seq
            if observer is not None:
                heappush(heap, (finish, seq, rp, phase, s))
            seq += 1
        if best > max_finish:
            max_finish = best
        if observer is None:
            heappush(heap, (best, best_seq, rp, phase, -1))
        else:
            runs_left[rp] = hi - lo

    def record_complete(phase: int, now: float) -> None:
        nonlocal frontier
        remaining[phase] -= 1
        while frontier < len(remaining) and remaining[frontier] == 0:
            if fired[frontier]:  # pragma: no cover - mirrors Waitable's guard
                raise SimulationError("barrier phase fired twice")
            fired[frontier] = True
            for rp in waiters[frontier]:
                issue_from(rp, now)
            frontier += 1

    for rp in range(n_ranks):
        issue_from(rp, start)
    while heap:
        now, _, rp, phase, server = heappop(heap)
        if phase == _WAKEUP:
            issue_from(rp, now)
            continue
        if server >= 0:
            observer(server, now - issued_at[rp], now)
            runs_left[rp] -= 1
            if runs_left[rp]:
                continue
        if phase >= 0:
            record_complete(phase, now)
        if keep_latencies:
            latencies.append(now - issued_at[rp])
            latency_ranks.append(ranks[rp])
        issue_from(rp, now)
    # the two closures call each other: break the cycle so the premap
    # and the per-rank rows free on return, not at the next cyclic GC
    del issue_from, record_complete
    for s, srv in enumerate(servers):
        srv.channel.busy_until = tails[s]
        srv.channel.busy_time = busy[s]
        srv.channel.served += served[s]
        srv.stats.sub_requests += served[s]
        srv.stats.bytes_read += moved["read"][s]
        srv.stats.bytes_written += moved["write"][s]
    sim.advance_to(max_finish)
    return foreground_end, latencies, latency_ranks


class _Prices(dict[int, float]):
    """Run service times keyed ``(length * len(OP_NAMES) + op code) *
    len(servers) + server``, each priced on first lookup with the
    server's own ``device.alpha(op) / device.channels +
    device.transfer_time(op, n) + link.transfer_time(n)``."""

    def __init__(self, servers: Sequence["DataServer"]) -> None:
        super().__init__()
        self.servers = servers

    def __missing__(self, key: int) -> float:
        rest, s = divmod(key, len(self.servers))
        length, code = divmod(rest, len(OP_NAMES))
        op = OP_NAMES[code]
        device = self.servers[s].device
        self[key] = price = (
            device.alpha(op) / device.channels
            + device.transfer_time(op, length)
            + self.servers[s].link.transfer_time(length)
        )
        return price

    def column(self, runs: MergedRuns, op_codes: np.ndarray) -> list[float]:
        """Each premapped run's price; request ``k``'s op is ``op_codes[k]``."""
        keys = (
            np.asarray(runs.lengths, dtype=np.int64) * len(OP_NAMES)
            + np.repeat(op_codes.astype(np.int64), np.diff(runs.starts))
        ) * len(self.servers) + np.asarray(runs.servers, dtype=np.int64)
        distinct, inverse = np.unique(keys, return_inverse=True)
        # an object array gathers references: runs share their price's float
        prices = np.array([self[k] for k in distinct.tolist()], dtype=object)
        return prices[inverse].tolist()

"""Data server model: one storage device behind one network link.

Each server serves sub-requests through a single FIFO channel whose
service time is ``device_service + network_transfer`` — the same
serialization the paper's cost model assumes (``p·α + bytes·(t + β)``),
but queued dynamically so contention between processes emerges instead
of being approximated.

Sequential-access detection: the server tracks the tails of a bounded
number of *access streams* (an OS block layer's readahead/plugging and
a disk's NCQ recognize several interleaved sequential streams, but only
so many); a sub-request that extends a tracked stream pays the device's
(cheaper) sequential startup, anything else pays a full positioning
startup and starts a new stream, evicting the least-recently-extended
one when the tracker is full.  This is what makes large/contiguous
requests faster per byte ("the increasingly amortized disk seek time",
§V-B) and what degrades bandwidth as the process count grows past the
per-server stream capacity ("the contention among processes becomes
more severe", §V-B Fig. 9/11).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..contracts import twin_of
from ..devices.base import Device, OpType
from ..network.link import Link
from ..simulate import Completion, FIFOResource, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.state import ServerFaultState

__all__ = ["DataServer", "ServerStats"]


@dataclass
class ServerStats:
    """Per-server accounting for the run metrics (Fig. 8's bars)."""

    bytes_read: int = 0
    bytes_written: int = 0
    sub_requests: int = 0
    seeks: int = 0
    sequential_hits: int = 0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


class DataServer:
    """A PFS data server: one FIFO service channel per server.

    A sub-request occupies the server for
    ``startup / device.channels + bytes·β_op + latency + bytes·t``
    seconds — exactly the ``α + bytes·(t + β)`` structure of the
    paper's cost model (the per-request *average* startup a calibration
    measures is the raw device startup amortized over its internal
    channels, since concurrent startups overlap on flash), but queued
    dynamically so contention between processes emerges instead of
    being approximated.

    ``stream_capacity`` is the number of concurrent sequential streams
    the server can keep recognizing (see module docstring).
    """

    #: default number of sequential streams a server tracks
    DEFAULT_STREAM_CAPACITY = 16

    def __init__(
        self,
        sim: Simulator,
        index: int,
        device: Device,
        link: Link,
        name: str | None = None,
        stream_capacity: int = DEFAULT_STREAM_CAPACITY,
    ) -> None:
        if stream_capacity < 0:
            raise ValueError("stream_capacity must be >= 0")
        self.sim = sim
        self.index = index
        self.device = device
        self.link = link
        self.name = name if name is not None else f"server{index}"
        self.stream_capacity = stream_capacity
        self.channel = FIFOResource(sim, name=self.name)
        self.stats = ServerStats()
        #: service-time multiplier for fault/straggler injection: 1.0 is
        #: healthy, 2.0 services everything at half speed, etc.
        self.slowdown = 1.0
        #: compiled fault timeline (:class:`repro.faults.state.ServerFaultState`),
        #: installed by :meth:`repro.faults.plan.FaultPlan.attach`; ``None``
        #: is a healthy server and costs one attribute check per submit
        self.faults: ServerFaultState | None = None
        #: per-sub-request service latencies (finish - submit time); a
        #: replay with ``keep_latencies=True`` installs a fresh list and
        #: harvests it into the run metrics, ``None`` disables logging
        self.latency_log: list[float] | None = None
        # stream tails: (obj, next_offset) -> None, in LRU order
        self._streams: OrderedDict[tuple[str, int], None] = OrderedDict()

    def _check_sequential(self, obj: str, offset: int, length: int) -> bool:
        """Consume/extend a stream tail; returns sequentiality."""
        if self.stream_capacity == 0:
            return False
        key = (obj, offset)
        sequential = key in self._streams
        if sequential:
            del self._streams[key]
        self._streams[(obj, offset + length)] = None
        self._streams.move_to_end((obj, offset + length))
        while len(self._streams) > self.stream_capacity:
            self._streams.popitem(last=False)
        return sequential

    def submit(
        self, op: OpType, obj: str, offset: int, length: int, not_before: float = 0.0
    ) -> Completion:
        """Enqueue one sub-request; completion fires when it finishes.

        ``not_before`` lower-bounds the service start (used when an
        upstream stage — e.g. the issuing client's NIC — must finish
        first).
        """
        if self.slowdown <= 0:
            raise ValueError(f"slowdown must be > 0, got {self.slowdown}")
        sequential = self._check_sequential(obj, offset, length)
        startup = self.device.startup_time(op, sequential) / self.device.channels
        base = (
            startup
            + self.device.transfer_time(op, length)
            + self.link.transfer_time(length)
        )
        faults = self.faults
        if faults is None:
            duration = self.slowdown * base
        else:
            # the service start is fully determined at submission (FIFO
            # queue-tail arithmetic), so the fault timeline is consulted
            # synchronously: outages defer the start, dilations scale the
            # duration.  ``not_before=start`` reproduces the deferred
            # start exactly inside ``channel.schedule``'s own max().
            now = self.sim.now
            tail = self.channel.busy_until
            start, factor = faults.adjust(
                op, length, max(now, not_before, tail), tail
            )
            duration = self.slowdown * (factor * base)
            not_before = start
        if sequential:
            self.stats.sequential_hits += 1
        else:
            self.stats.seeks += 1
        self.stats.sub_requests += 1
        if op == "read":
            self.stats.bytes_read += length
        else:
            self.stats.bytes_written += length
        record, done = self.channel.schedule(duration, not_before=not_before)
        if self.latency_log is not None:
            self.latency_log.append(record.finish - self.sim.now)
        return done

    @twin_of(
        "repro.pfs.server:DataServer.submit",
        twin_only=("now",),
        harness="server_submit",
    )
    def submit_flat(
        self,
        op: OpType,
        obj: str,
        offset: int,
        length: int,
        now: float,
        not_before: float = 0.0,
    ) -> float:
        """Event-free twin of :meth:`submit` for the flat replay kernel.

        Same sequential-stream update, same duration arithmetic, same
        statistics — but the finish time is computed synchronously with
        :meth:`FIFOResource.schedule_flat`'s arithmetic, inlined (the
        server is a single FIFO channel, so it is fully determined at
        submission) instead of scheduling a completion event.  ``now``
        is the caller's clock.
        """
        if self.slowdown <= 0:
            raise ValueError(f"slowdown must be > 0, got {self.slowdown}")
        sequential = self._check_sequential(obj, offset, length)
        startup = self.device.startup_time(op, sequential) / self.device.channels
        base = (
            startup
            + self.device.transfer_time(op, length)
            + self.link.transfer_time(length)
        )
        stats = self.stats
        if sequential:
            stats.sequential_hits += 1
        else:
            stats.seeks += 1
        stats.sub_requests += 1
        if op == "read":
            stats.bytes_read += length
        else:
            stats.bytes_written += length
        channel = self.channel
        tail = channel.busy_until
        faults = self.faults
        if faults is None:
            duration = self.slowdown * base
            start = max(now, not_before, tail)
        else:
            start, factor = faults.adjust_flat(
                op, length, max(now, not_before, tail), tail
            )
            duration = self.slowdown * (factor * base)
        finish = start + duration
        channel.busy_until = finish
        channel.busy_time += duration
        channel.served += 1
        if self.latency_log is not None:
            self.latency_log.append(finish - now)
        return finish

    @property
    def busy_time(self) -> float:
        """Seconds of service performed — the server's I/O time."""
        return self.channel.busy_time

    def reset_stats(self) -> None:
        self.stats = ServerStats()
        self.channel.reset_stats()
        self.latency_log = None

"""Data server model: one storage device behind one network link.

Each server serves sub-requests through a single FIFO channel whose
service time is Table I's affine law, ``α_op/channels + bytes·(β_op +
t)`` plus the link latency — the same serialization the paper's cost
model assumes (``p·α + bytes·(t + β)``), but queued dynamically so
contention between processes emerges instead of being approximated.
A sub-request's service time depends on its server, op and length
only; the fault timeline is the one thing that dilates or defers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


class DataServer:
    """A PFS data server: one FIFO service channel per server.

    The startup is the device's ``alpha(op)`` amortized over its
    internal channels: the per-request *average* a calibration
    measures, since concurrent startups overlap on flash.
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        device: Device,
        link: Link,
        name: str | None = None,
    ) -> None:
        self.sim = sim
        self.index = index
        self.device = device
        self.link = link
        self.name = name if name is not None else f"server{index}"
        self.channel = FIFOResource(sim, name=self.name)
        self.stats = ServerStats()
        #: compiled fault timeline (:class:`repro.faults.state.ServerFaultState`),
        #: installed by :meth:`repro.faults.plan.FaultPlan.attach`; ``None``
        #: is a healthy server and costs one attribute check per submit
        self.faults: ServerFaultState | None = None
        #: per-sub-request service latencies (finish - submit time); a
        #: replay with ``keep_latencies=True`` installs a fresh list and
        #: harvests it into the run metrics, ``None`` disables logging
        self.latency_log: list[float] | None = None

    def submit(self, op: OpType, length: int, not_before: float = 0.0) -> Completion:
        """Enqueue one sub-request; completion fires when it finishes.

        ``not_before`` lower-bounds the service start (used when an
        upstream stage — e.g. the issuing client's NIC — must finish
        first).
        """
        device = self.device
        base = (
            device.alpha(op) / device.channels
            + device.transfer_time(op, length)
            + self.link.transfer_time(length)
        )
        faults = self.faults
        if faults is None:
            duration = base
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
            duration = factor * base
            not_before = start
        self.stats.sub_requests += 1
        if op == "read":
            self.stats.bytes_read += length
        else:
            self.stats.bytes_written += length
        record, done = self.channel.schedule(duration, not_before=not_before)
        if self.latency_log is not None:
            self.latency_log.append(record.finish - self.sim.now)
        return done

    @property
    def busy_time(self) -> float:
        """Seconds of service performed — the server's I/O time."""
        return self.channel.busy_time

    def reset_stats(self) -> None:
        self.stats = ServerStats()
        self.channel.reset_stats()
        self.latency_log = None

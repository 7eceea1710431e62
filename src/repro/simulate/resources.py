"""FIFO resources for the discrete-event engine.

A storage server's service channel and a client NIC are each
modelled as a :class:`FIFOResource`: work items are served one at a
time in arrival order, each occupying the resource for a
caller-supplied duration.  This is the single FIFO queue per server
that the paper's cost model (Eq. 2) approximates analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..contracts import twin_of
from .engine import Completion, Simulator

__all__ = ["FIFOResource", "ServiceRecord"]


@dataclass(frozen=True)
class ServiceRecord:
    """Bookkeeping for one completed service on a resource."""

    arrival: float
    start: float
    finish: float
    duration: float

    @property
    def wait(self) -> float:
        """Queueing delay before service began."""
        return self.start - self.arrival


class FIFOResource:
    """A single-channel FIFO queue with busy-until semantics.

    ``submit(duration)`` enqueues a work item that will occupy the
    resource for ``duration`` seconds once it frees up, and returns a
    :class:`~repro.simulate.engine.Completion` firing (with the
    :class:`ServiceRecord`) when service finishes.

    The implementation does not need an explicit queue object: because
    service is FIFO and non-preemptive, the ``busy_until`` watermark
    fully determines each item's start time at submission.
    :meth:`schedule` exposes the computed times synchronously for
    callers composing multi-stage pipelines (device then NIC),
    including a ``not_before`` lower bound on the start time.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        #: simulated time at which the current backlog fully drains
        self.busy_until = 0.0
        #: total seconds of service performed (utilization numerator)
        self.busy_time = 0.0
        #: completed service count
        self.served = 0

    def schedule(
        self, duration: float, not_before: float = 0.0
    ) -> tuple[ServiceRecord, Completion]:
        """Enqueue a work item; returns its (record, completion).

        The record's ``start``/``finish`` are already final (FIFO,
        non-preemptive), so multi-stage callers can chain stages
        without waiting.
        """
        if duration < 0:
            raise ValueError(f"service duration must be >= 0, got {duration}")
        now = self._sim.now
        start = max(now, not_before, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        self.busy_time += duration
        self.served += 1
        record = ServiceRecord(
            arrival=now, start=start, finish=finish, duration=duration
        )
        done = Completion()
        self._sim.schedule_at(finish, lambda: done.fire(record))
        return record, done

    @twin_of(
        "repro.simulate.resources:FIFOResource.schedule",
        twin_only=("now",),
        harness="fifo_schedule",
    )
    def schedule_flat(
        self, now: float, duration: float, not_before: float = 0.0
    ) -> float:
        """Queue-tail arithmetic twin of :meth:`schedule`.

        Identical bookkeeping (watermark, busy time, served count) and
        identical start/finish arithmetic, but no :class:`Completion`
        and no heap event: the finish time is returned directly.
        ``now`` is the caller-maintained clock — the flat replay kernel
        (:mod:`repro.pfs.flat`) advances time itself and only moves the
        simulator clock at the end.
        """
        if duration < 0:
            raise ValueError(f"service duration must be >= 0, got {duration}")
        start = max(now, not_before, self.busy_until)
        finish = start + duration
        self.busy_until = finish
        self.busy_time += duration
        self.served += 1
        return finish

    def submit(self, duration: float) -> Completion:
        """Enqueue a work item; returns a completion for its finish."""
        _, done = self.schedule(duration)
        return done

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource spent serving."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    def reset_stats(self) -> None:
        """Clear accumulated statistics (not the busy watermark)."""
        self.busy_time = 0.0
        self.served = 0

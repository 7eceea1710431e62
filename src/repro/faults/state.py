"""Compiled per-server fault state: the replay engines' fault hot path.

A :class:`~repro.faults.plan.FaultPlan` compiles each server's declared
faults into one :class:`ServerFaultState` holding three timeline
structures plus optional write-cliff state:

* **outages** — merged disjoint ``[start, end)`` blackout spans.  A
  sub-request whose service would start inside a span is deferred to
  the span's end (the server is down; its queue keeps building behind
  the deferred request, which is exactly what a crashed server does to
  clients that keep issuing).
* **segments** — disjoint ``[start, end)`` dilation windows, each with
  a multiplicative service-time factor (transient slowdowns compose by
  factor product where they overlap; rebuild phases after an outage
  contribute one window each).
* **scrubs** — periodic dilations, evaluated analytically: the factor
  applies while ``(t - phase) % period < duty``.
* **cliff** — SSD write-cliff bookkeeping (bytes written since the
  last long-enough idle gap; once past the device cache capacity,
  writes dilate).

Both replay engines look a sub-request up through the one
:meth:`ServerFaultState.adjust` (a bisect per timeline), so both
compose the same factors in the same multiplication order and every
float they produce is bit-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..devices.base import OpType

__all__ = [
    "CliffState",
    "Scrub",
    "ServerFaultState",
    "Window",
    "flatten_windows",
    "merge_outages",
]


@dataclass(frozen=True)
class Window:
    """One finite service-time dilation: ``factor`` in ``[start, end)``."""

    start: float
    end: float
    factor: float


@dataclass(frozen=True)
class Scrub:
    """A periodic dilation (background scrub/patrol-read pass): the
    factor applies while ``(t - phase) % period < duty`` seconds."""

    period: float
    duty: float
    factor: float
    phase: float = 0.0


@dataclass
class CliffState:
    """SSD write-cliff bookkeeping.

    ``written`` accumulates write bytes; once it exceeds
    ``capacity_bytes`` (the device's fast cache / clean-block reserve),
    writes dilate by ``factor``.  An idle gap of at least
    ``recovery_idle`` seconds between consecutive services lets the
    device garbage-collect and resets the counter.
    """

    capacity_bytes: int
    factor: float
    recovery_idle: float
    written: int = 0


def merge_outages(spans: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort ``[start, end)`` spans and merge overlapping/touching ones."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(spans):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def flatten_windows(windows: Iterable[Window]) -> list[Window]:
    """Flatten possibly-overlapping windows into disjoint segments.

    Where windows overlap their factors *compose* (multiply) — two
    concurrent degradations both slow the server.  The product is taken
    in ``(start, end, factor)`` sort order so compilation is
    deterministic regardless of declaration order.  Gaps (no covering
    window) produce no segment.
    """
    ordered = sorted(
        (w for w in windows if w.end > w.start),
        key=lambda w: (w.start, w.end, w.factor),
    )
    points = sorted({w.start for w in ordered} | {w.end for w in ordered})
    segments: list[Window] = []
    for a, b in zip(points, points[1:]):
        factor = 1.0
        covering = 0
        for w in ordered:
            if w.start <= a and b <= w.end:
                factor *= w.factor
                covering += 1
        if covering:
            segments.append(Window(a, b, factor))
    return segments


class ServerFaultState:
    """One server's compiled fault timeline (see module docstring).

    Instances are built by :meth:`repro.faults.plan.FaultPlan.compile`
    and attached to :class:`~repro.pfs.server.DataServer` as
    ``server.faults``; both replay engines consult :meth:`adjust` per
    sub-request.
    """

    def __init__(
        self,
        windows: Iterable[Window] = (),
        outages: Iterable[tuple[float, float]] = (),
        scrubs: Sequence[Scrub] = (),
        cliff: CliffState | None = None,
    ) -> None:
        self._segments = flatten_windows(windows)
        self._segment_starts = [seg.start for seg in self._segments]
        self._outages = merge_outages(outages)
        self._outage_starts = [span[0] for span in self._outages]
        self._scrubs = tuple(scrubs)
        self.cliff = cliff

    def adjust(
        self, op: OpType, length: int, candidate: float, prev_tail: float
    ) -> tuple[float, float]:
        """``(service_start, duration_factor)`` for a sub-request that
        would otherwise start at ``candidate``.

        ``prev_tail`` is the server queue's tail *before* this
        submission — the previous service's finish time — used for the
        write-cliff idle-gap recovery test.  Service that would begin
        inside an outage is deferred to the outage's end; the factor is
        evaluated at the (possibly deferred) start, composed in one
        order: the dilation segment's, each scrub's in declaration
        order, then the write cliff's.
        """
        start = candidate
        i = bisect_right(self._outage_starts, candidate) - 1
        if i >= 0 and candidate < self._outages[i][1]:
            start = self._outages[i][1]
        factor = 1.0
        j = bisect_right(self._segment_starts, start) - 1
        if j >= 0 and start < self._segments[j].end:
            factor *= self._segments[j].factor
        for scrub in self._scrubs:
            if (start - scrub.phase) % scrub.period < scrub.duty:
                factor *= scrub.factor
        cliff = self.cliff
        if cliff is not None:
            if start - prev_tail >= cliff.recovery_idle:
                cliff.written = 0
            if op == "write":
                cliff.written += length
                if cliff.written > cliff.capacity_bytes:
                    factor *= cliff.factor
        return start, factor

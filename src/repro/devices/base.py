"""Storage device model interface.

The paper's cost model (Table I) characterizes each server's storage by
an *average startup time* ``alpha`` and a *unit-data transfer time*
``beta`` — i.e. servicing ``n`` bytes costs ``alpha + n * beta``, with
read/write-specific values for SSDs.  Device models here implement that
affine service-time law, plus one refinement the affine law abstracts
away: **sequential-access startup amortization**.  On a real HDD, a
sub-request that continues exactly where the previous one ended pays no
seek, which is why the paper observes bandwidth rising with request
size ("the increasingly amortized disk seek time", §V-B).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

__all__ = ["Device", "OpType", "READ", "WRITE"]

#: request operation types, matching the trace "request type" field
OpType = str
READ: OpType = "read"
WRITE: OpType = "write"


@dataclass
class Device(abc.ABC):
    """Abstract storage device.

    Concrete devices define startup and per-byte costs; the PFS server
    calls :meth:`service_time` for each sub-request and tracks the last
    accessed byte so that sequential continuation can be detected.

    ``channels`` is the device's internal parallelism: how many
    sub-requests it can service concurrently (1 for a disk head,
    several for a flash channel array).  The server's device stage uses
    it as queue capacity.
    """

    name: str = "device"
    channels: int = 1

    @abc.abstractmethod
    def startup_time(self, op: OpType, sequential: bool) -> float:
        """Seconds of fixed cost to begin a transfer.

        ``sequential`` is True when the transfer begins exactly where
        the device's previous transfer ended (no repositioning needed).
        """

    @abc.abstractmethod
    def transfer_time(self, op: OpType, nbytes: int) -> float:
        """Seconds to move ``nbytes`` once positioned."""

    def service_time(self, op: OpType, nbytes: int, sequential: bool = False) -> float:
        """Total device-side service time for one sub-request."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.startup_time(op, sequential) + self.transfer_time(op, nbytes)

    @abc.abstractmethod
    def alpha(self, op: OpType) -> float:
        """Average startup time for the cost model (Table I alpha)."""

    @abc.abstractmethod
    def beta(self, op: OpType) -> float:
        """Unit-data transfer time for the cost model (Table I beta)."""


def _check_channels(channels: int) -> None:
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")


def _check_times(**kwargs: float) -> None:
    """Times: finite and non-negative."""
    for key, value in kwargs.items():
        if not (0 <= value < math.inf):
            raise ValueError(f"{key} must be finite and non-negative, got {value}")


def _check_rates(**kwargs: float) -> None:
    """Bandwidths: finite and positive."""
    for key, value in kwargs.items():
        if not (0 < value < math.inf):
            raise ValueError(f"{key} must be finite and > 0, got {value}")

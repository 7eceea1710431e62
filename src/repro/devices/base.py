"""Storage device model interface.

The paper's cost model (Table I) characterizes each server's storage by
an *average startup time* ``alpha`` and a *unit-data transfer time*
``beta`` — i.e. servicing ``n`` bytes costs ``alpha + n * beta``, with
read/write-specific values for SSDs.  Device models here implement
exactly that affine law: a data server charges every sub-request
``alpha(op) / channels + transfer_time(op, n)``, so Table I's
parameters are the devices' own.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["Device", "OpType", "READ", "WRITE"]

#: request operation types, matching the trace "request type" field
OpType = str
READ: OpType = "read"
WRITE: OpType = "write"


@dataclass
class Device(abc.ABC):
    """Abstract storage device.

    Concrete devices define the startup and per-byte costs of Table I's
    affine law; the PFS server calls :meth:`alpha` and
    :meth:`transfer_time` for each sub-request.

    ``channels`` is the device's internal parallelism: how many
    sub-requests it can service concurrently (1 for a disk head,
    several for a flash channel array).  The server amortizes each
    startup over it.
    """

    name: str = "device"
    channels: int = 1

    @abc.abstractmethod
    def transfer_time(self, op: OpType, nbytes: int) -> float:
        """Seconds to move ``nbytes`` once positioned: ``nbytes`` over
        the bandwidth, which can differ from ``nbytes * beta(op)`` in
        the last bit."""

    @abc.abstractmethod
    def alpha(self, op: OpType) -> float:
        """Startup time of one sub-request (Table I alpha)."""

    @abc.abstractmethod
    def beta(self, op: OpType) -> float:
        """Unit-data transfer time for the cost model (Table I beta)."""


def _check_channels(channels: int) -> None:
    if channels < 1:
        raise ConfigurationError(f"channels must be >= 1, got {channels}")


def _check_times(**kwargs: float) -> None:
    """Times: finite and non-negative."""
    for key, value in kwargs.items():
        if not (0 <= value < math.inf):
            raise ConfigurationError(
                f"{key} must be finite and non-negative, got {value}"
            )


def _check_rates(**kwargs: float) -> None:
    """Bandwidths: finite and positive."""
    for key, value in kwargs.items():
        if not (0 < value < math.inf):
            raise ConfigurationError(f"{key} must be finite and > 0, got {value}")

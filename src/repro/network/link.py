"""Network link model.

The paper's cluster interconnect is Gigabit Ethernet and its cost model
"assumes all servers offer the same network bandwidth": every byte a
server ships to a client costs the unit network transfer time ``t``
(Table I).  :class:`Link` captures exactly that — a serialization rate
plus a small per-message latency — and is instantiated once per server
NIC by the PFS simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..units import MiB

__all__ = ["Link", "GIGABIT_ETHERNET"]


@dataclass(frozen=True)
class Link:
    """A full-duplex point-to-point link with fixed serialization rate.

    Parameters
    ----------
    bandwidth:
        Payload bytes per second the link sustains.  Gigabit Ethernet's
        theoretical 125 MB/s lands near 117 MiB/s of payload after
        framing/TCP overheads.
    latency:
        One-way propagation + stack latency per message (seconds).
    """

    bandwidth: float = 117.0 * MiB
    latency: float = 0.05e-3
    name: str = "link"

    def __post_init__(self) -> None:
        if not (0 < self.bandwidth < math.inf):
            raise ConfigurationError(
                f"bandwidth must be finite and > 0, got {self.bandwidth}"
            )
        if not (0 <= self.latency < math.inf):
            raise ConfigurationError(
                f"latency must be finite and non-negative, got {self.latency}"
            )

    @property
    def unit_transfer_time(self) -> float:
        """Table I ``t``: seconds to move one byte across the link."""
        return 1.0 / self.bandwidth

    def transfer_time(self, nbytes: int) -> float:
        """Seconds to move an ``nbytes`` message across the link."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency + nbytes * self.unit_transfer_time


#: The paper's interconnect, ready to use.
GIGABIT_ETHERNET = Link(name="gige")

"""Solid state drive model (the paper's SServer storage).

SSDs have near-zero positioning cost and *asymmetric* read/write
performance, which the paper models with separate
``alpha_sr``/``beta_sr`` (read) and ``alpha_sw``/``beta_sw`` (write)
parameters in Table I.  Defaults approximate the PCIe x4 100 GB SSDs of
the paper's testbed: ~420 MiB/s reads, ~310 MiB/s writes, startup well
under 0.2 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import MiB
from .base import READ, Device, OpType, _check_channels, _check_rates, _check_times

__all__ = ["SSD"]


@dataclass
class SSD(Device):
    """Flash device with asymmetric read/write costs and tiny startup."""

    name: str = "ssd"
    #: flash channel parallelism: concurrent small requests overlap,
    #: which is a large part of why SSDs absorb concurrency so well
    channels: int = 4
    read_startup: float = 0.08e-3
    write_startup: float = 0.15e-3
    read_bandwidth: float = 420.0 * MiB
    write_bandwidth: float = 310.0 * MiB

    def __post_init__(self) -> None:
        _check_channels(self.channels)
        _check_times(
            read_startup=self.read_startup, write_startup=self.write_startup
        )
        _check_rates(
            read_bandwidth=self.read_bandwidth, write_bandwidth=self.write_bandwidth
        )

    def transfer_time(self, op: OpType, nbytes: int) -> float:
        bw = self.read_bandwidth if op == READ else self.write_bandwidth
        return nbytes / bw

    def alpha(self, op: OpType) -> float:
        """Table I ``alpha_sr`` / ``alpha_sw`` depending on ``op``."""
        return self.read_startup if op == READ else self.write_startup

    def beta(self, op: OpType) -> float:
        """Table I ``beta_sr`` / ``beta_sw`` depending on ``op``."""
        bw = self.read_bandwidth if op == READ else self.write_bandwidth
        return 1.0 / bw

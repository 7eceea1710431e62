"""Hard disk drive model (the paper's HServer storage).

Calibrated by default to a 250 GB SATA-II disk of the paper's SUN Fire
cluster era behind a busy parallel-file-server: ~60 MiB/s *effective*
transfer under interleaved multi-process load (the raw platter rate is
higher, but head switches between concurrent streams eat into it), and
a flat ~2.5 ms positioning cost per sub-request — under PFS service,
requests from many processes interleave at the disk, so virtually every
sub-request repositions; the I/O scheduler and NCQ soak up part of the
raw 4-5 ms mechanical seek.  Every sub-request pays ``seek_time``, so
the cost model's single average ``alpha_h`` of Table I is *exact*.
These values put the HServer:SServer service-time ratio for 64 KB
requests near the 3.5x load skew the paper measures (§I), with the
paper's qualitative regimes: small random requests are an order of
magnitude cheaper on SServers, while large streaming requests amortize
the HServer startup and keep HServers worth striping onto.  Reads and
writes are treated symmetrically, as the paper's cost model does for
HServers (a single ``alpha_h`` / ``beta_h`` pair in Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import MiB
from .base import Device, OpType, _check_channels, _check_rates, _check_times

__all__ = ["HDD"]


@dataclass
class HDD(Device):
    """Rotational disk with seek-dominated startup.

    Parameters
    ----------
    seek_time:
        Average positioning time per sub-request (seconds).
    bandwidth:
        Sustained media transfer rate, bytes/second.
    """

    name: str = "hdd"
    channels: int = 1  # one head assembly: strictly serial media access
    seek_time: float = 2.5e-3
    bandwidth: float = 60.0 * MiB

    def __post_init__(self) -> None:
        _check_channels(self.channels)
        _check_times(seek_time=self.seek_time)
        _check_rates(bandwidth=self.bandwidth)

    def transfer_time(self, op: OpType, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def alpha(self, op: OpType) -> float:
        """Table I ``alpha_h``: every sub-request pays one seek."""
        return self.seek_time

    def beta(self, op: OpType) -> float:
        """Unit transfer time (Table I ``beta_h``), seconds per byte."""
        return 1.0 / self.bandwidth

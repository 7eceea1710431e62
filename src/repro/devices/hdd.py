"""Hard disk drive model (the paper's HServer storage).

Calibrated by default to a 250 GB SATA-II disk of the paper's SUN Fire
cluster era behind a busy parallel-file-server: ~60 MiB/s *effective*
transfer under interleaved multi-process load (the raw platter rate is
higher, but head switches between concurrent streams eat into it), and
a flat ~2.5 ms positioning cost per sub-request — under PFS service,
requests from many processes interleave at the disk, so virtually every
sub-request repositions; the I/O scheduler and NCQ soak up part of the
raw 4-5 ms mechanical seek, and by default no sequential discount
remains (``sequential_startup == seek_time``, so the cost model's
single average ``alpha_h`` of Table I is *exact*).  Deployments that
want to study stream-detection effects can lower
``sequential_startup`` and the server's stream tracker will apply it.
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
        Average positioning time for a random access (seconds).
    sequential_startup:
        Residual startup for a sequential continuation (seconds); real
        disks still pay controller/command overhead.
    bandwidth:
        Sustained media transfer rate, bytes/second.
    """

    name: str = "hdd"
    channels: int = 1  # one head assembly: strictly serial media access
    seek_time: float = 2.5e-3
    sequential_startup: float = 2.5e-3
    bandwidth: float = 60.0 * MiB

    def __post_init__(self) -> None:
        _check_channels(self.channels)
        _check_times(
            seek_time=self.seek_time,
            sequential_startup=self.sequential_startup,
        )
        _check_rates(bandwidth=self.bandwidth)

    def startup_time(self, op: OpType, sequential: bool) -> float:
        return self.sequential_startup if sequential else self.seek_time

    def transfer_time(self, op: OpType, nbytes: int) -> float:
        return nbytes / self.bandwidth

    def alpha(self, op: OpType) -> float:
        """Table I ``alpha_h`` — the *average* storage startup time.

        The calibration a real deployment measures mixes sequential
        continuations with repositionings; the midpoint of the two
        regimes is that average for a balanced mix.
        """
        return 0.5 * (self.seek_time + self.sequential_startup)

    def beta(self, op: OpType) -> float:
        """Unit transfer time (Table I ``beta_h``), seconds per byte."""
        return 1.0 / self.bandwidth

"""Table I — the parameters of the data-access cost model.

Every symbol from the paper's Table I appears here with its exact
meaning:

====== =============================================
symbol meaning
====== =============================================
o      offset of the file request           (per request)
l      size of the file request             (per request)
op     type of the file request             (per request)
M      number of HServers
N      number of SServers
t      unit data network transfer time
α_h    average storage startup time on HServer
β_h    unit data transfer time on HServer
α_sr   average read startup time on SServer
β_sr   unit data read transfer time on SServer
α_sw   average write startup time on SServer
β_sw   unit data write transfer time on SServer
h      stripe size on HServer               (decision variable)
s      stripe size on SServer               (decision variable)
====== =============================================

The per-request symbols live in trace records; the decision variables
are what RSSD searches over; everything else is a
:class:`CostModelParams`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..devices.base import READ, WRITE
from ..exceptions import ConfigurationError

__all__ = ["CostModelParams"]


@dataclass(frozen=True)
class CostModelParams:
    """The server-and-network half of Table I."""

    M: int
    N: int
    t: float
    alpha_h: float
    beta_h: float
    alpha_sr: float
    beta_sr: float
    alpha_sw: float
    beta_sw: float
    #: per-message network latency (one request-response on the link);
    #: not in Table I, but the simulated network charges it, so the
    #: model folds it into each per-process startup
    net_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.M < 0 or self.N < 0 or self.M + self.N == 0:
            raise ConfigurationError(
                f"need at least one server: M={self.M}, N={self.N}"
            )
        for name in ("t", "alpha_h", "beta_h", "alpha_sr", "beta_sr",
                     "alpha_sw", "beta_sw", "net_latency"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")

    @classmethod
    def from_cluster(cls, spec: ClusterSpec) -> "CostModelParams":
        """Read the parameters off a cluster description.

        On the paper's testbed these come from a calibration profile of
        the servers.  A simulated data server charges every sub-request
        ``device.alpha(op) / channels`` plus its transfer times, so the
        device models give the exact values such a profile would fit.
        The SSD startups are divided by the device's channel count: the
        calibration workload runs many requests concurrently, and flash
        internal parallelism overlaps their startups, so the *average*
        per-request startup a profile measures is the raw value
        amortized over the channels.
        """
        return cls(
            M=spec.num_hservers,
            N=spec.num_sservers,
            t=spec.link.unit_transfer_time,
            alpha_h=spec.hdd.alpha(READ) / spec.hdd.channels,
            beta_h=spec.hdd.beta(READ),
            alpha_sr=spec.ssd.alpha(READ) / spec.ssd.channels,
            beta_sr=spec.ssd.beta(READ),
            alpha_sw=spec.ssd.alpha(WRITE) / spec.ssd.channels,
            beta_sw=spec.ssd.beta(WRITE),
            net_latency=spec.link.latency,
        )

    def sserver_alpha(self, op: str) -> float:
        """``α_sr`` or ``α_sw`` depending on the operation type."""
        if op == READ:
            return self.alpha_sr
        if op == WRITE:
            return self.alpha_sw
        raise ConfigurationError(f"unknown op {op!r}")

    def sserver_beta(self, op: str) -> float:
        """``β_sr`` or ``β_sw`` depending on the operation type."""
        if op == READ:
            return self.beta_sr
        if op == WRITE:
            return self.beta_sw
        raise ConfigurationError(f"unknown op {op!r}")

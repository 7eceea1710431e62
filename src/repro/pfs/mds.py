"""Metadata server (MDS) model.

§III-G: "Upon receiving a file request, a client first contacts the MDS
to get the file's meta-data ... the MDS looks up the RST according to
the request's offset and length".  For bandwidth-dominated workloads
this lookup is cheap; the model charges a configurable per-lookup
latency (default reflects one round trip on the cluster interconnect)
so metadata pressure appears in the simulation without dominating it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.rst import RST, StripePair
from ..exceptions import ConfigurationError
from ..network.link import Link
from ..simulate import Completion, FIFOResource, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.drt import DRT

__all__ = ["MetaDataServer"]


class MetaDataServer:
    """Serves RST lookups with a small FIFO-queued latency.

    Multi-tenant deployments register per-tenant *namespaces*: each
    tenant's region-stripe table (and optionally its data-reordering
    table) lives under its tenant id, so one tenant's region names can
    never shadow another's.  Lookups without a tenant keep hitting the
    legacy global table, so single-application experiments are
    untouched.
    """

    def __init__(
        self,
        sim: Simulator,
        rst: RST | None = None,
        link: Link | None = None,
        lookup_latency: float | None = None,
    ) -> None:
        self.sim = sim
        self.rst = rst if rst is not None else RST()
        if lookup_latency is None:
            lookup_latency = 2 * (link.latency if link is not None else 0.05e-3)
        self.lookup_latency = lookup_latency
        self.channel = FIFOResource(sim, name="mds")
        self.lookups = 0
        self._rst_namespaces: dict[int, RST] = {}
        self._drt_namespaces: dict[int, "DRT"] = {}

    def register_namespace(
        self, tenant: int, rst: RST | None = None, drt: "DRT | None" = None
    ) -> None:
        """Attach tenant ``tenant``'s RST (and optionally DRT)."""
        if tenant in self._rst_namespaces:
            raise ConfigurationError(f"tenant {tenant} namespace already registered")
        self._rst_namespaces[tenant] = rst if rst is not None else RST()
        if drt is not None:
            self._drt_namespaces[tenant] = drt

    def namespaces(self) -> tuple[int, ...]:
        """Registered tenant ids, ascending."""
        return tuple(sorted(self._rst_namespaces))

    def rst_for(self, tenant: int) -> RST:
        """Tenant ``tenant``'s region-stripe table."""
        try:
            return self._rst_namespaces[tenant]
        except KeyError:
            raise ConfigurationError(
                f"no namespace registered for tenant {tenant}"
            ) from None

    def drt_for(self, tenant: int) -> "DRT | None":
        """Tenant ``tenant``'s data-reordering table, if registered."""
        self.rst_for(tenant)  # raises on unknown tenants
        return self._drt_namespaces.get(tenant)

    def lookup(
        self, region: str, tenant: int | None = None
    ) -> tuple[Completion, StripePair | None]:
        """Queue one metadata lookup; returns (completion, stripe pair).

        ``tenant`` scopes the lookup to that tenant's namespace;
        ``None`` consults the legacy global table.
        """
        self.lookups += 1
        table = self.rst if tenant is None else self.rst_for(tenant)
        pair = table.get(region) if region in table else None
        return self.channel.submit(self.lookup_latency), pair

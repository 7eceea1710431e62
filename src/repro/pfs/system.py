"""The hybrid parallel file system: servers assembled from a cluster spec.

:class:`HybridPFS` owns the simulator and the data servers (HServers
with HDDs first, SServers with SSDs after, matching the cluster index
convention).  Clients interact with it through :meth:`issue`: hand
over the per-server fragments of one request and receive a completion
that fires when the slowest fragment finishes — the defining latency
semantics of striped parallel I/O.  Metadata lookups are not charged:
the paper's §III-G calls them cheap for bandwidth-dominated workloads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from ..cluster import ClusterSpec
from ..devices.base import OpType
from ..exceptions import SimulationError
from ..layouts.base import SubRequest
from ..layouts.batch import merge_fragments
from ..simulate import Completion, FIFOResource, Simulator
from .server import DataServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulate.resources import ServiceRecord

__all__ = ["HybridPFS", "merge_fragments"]


def _observation(
    observer: Callable[[int, float, float], None], server: int
) -> "Callable[[ServiceRecord], None]":
    """A completion waiter reporting ``(server, latency, finish)``.

    The fired value is the channel's ``ServiceRecord``; its ``arrival``
    is the submission time, so ``finish - arrival`` is the client-side
    sub-request latency (queueing + NIC wait + service).
    """

    def _fire(record: "ServiceRecord") -> None:
        observer(server, record.finish - record.arrival, record.finish)

    return _fire


class HybridPFS:
    """A simulated hybrid parallel file system."""

    def __init__(self, spec: ClusterSpec, sim: Simulator | None = None) -> None:
        self.spec = spec
        self.sim = sim if sim is not None else Simulator()
        self.servers: list[DataServer] = []
        for idx in spec.hserver_ids:
            self.servers.append(
                DataServer(self.sim, idx, spec.hdd, spec.link, name=f"h{idx}")
            )
        for idx in spec.sserver_ids:
            self.servers.append(
                DataServer(self.sim, idx, spec.ssd, spec.link, name=f"s{idx}")
            )
        # compute-node NICs (optional): one serialized link per node
        self.client_links: list[FIFOResource] | None = None
        if spec.model_client_nics:
            self.client_links = [
                FIFOResource(self.sim, name=f"client{i}.nic")
                for i in range(spec.num_clients)
            ]

    def server(self, index: int) -> DataServer:
        """The data server at cluster index ``index``."""
        if not 0 <= index < len(self.servers):
            raise SimulationError(
                f"server index {index} out of range 0..{len(self.servers) - 1}"
            )
        return self.servers[index]

    def issue(
        self,
        op: OpType,
        fragments: Sequence[SubRequest],
        rank: int | None = None,
        observer: Callable[[int, float, float], None] | None = None,
    ) -> Completion:
        """Issue one file request given its mapped fragments.

        Fragments are merged per server object, enqueued on their
        servers, and the returned completion fires when the **slowest**
        sub-request completes.  When client-NIC modelling is enabled
        and ``rank`` is given, the issuing compute node's link first
        serializes the request's payload (ranks map round-robin onto
        the cluster's client nodes), so co-located ranks contend.

        ``observer`` is the client-side latency feedback hook: it is
        called as ``observer(server, latency, finish)`` once per merged
        sub-request *when that sub-request completes* (so a dispatcher
        only ever learns from the past — the straggler-aware view's
        EWMAs update through this).
        """
        return self.issue_merged(
            op, merge_fragments(fragments), rank=rank, observer=observer
        )

    def issue_merged(
        self,
        op: OpType,
        merged: Sequence[SubRequest],
        rank: int | None = None,
        observer: Callable[[int, float, float], None] | None = None,
    ) -> Completion:
        """:meth:`issue` for runs that are already merged.

        Dispatch-ordering views (``dispatch_request``) hand over runs in
        their own issue order; :func:`merge_fragments` would re-sort
        them by logical offset, so this entry point submits them
        verbatim.  Callers must pass non-overlapping per-server runs —
        exactly what ``merge_fragments`` (in any order) produces.
        """
        if not merged:
            done = Completion()
            done.fire(None)
            return done
        not_before = 0.0
        if self.client_links is not None and rank is not None:
            node = self.client_links[rank % len(self.client_links)]
            total = sum(f.length for f in merged)
            record, _ = node.schedule(self.spec.link.transfer_time(total))
            not_before = record.finish
        completions = []
        for f in merged:
            done = self.server(f.server).submit(op, f.length, not_before=not_before)
            if observer is not None:
                done.add_waiter(_observation(observer, f.server))
            completions.append(done)
        return self.sim.all_of(completions)

    # -- statistics ------------------------------------------------------

    def per_server_busy(self) -> list[float]:
        """Each server's accumulated I/O (service) time, by index."""
        return [srv.busy_time for srv in self.servers]

    def per_server_bytes(self) -> list[int]:
        """Bytes moved per server, by index."""
        return [srv.stats.total_bytes for srv in self.servers]

    def reset_stats(self) -> None:
        for srv in self.servers:
            srv.reset_stats()

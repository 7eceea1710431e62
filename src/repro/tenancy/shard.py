"""Fleet builds: one table for every tenant, with the work done per class.

A tenant's requests depend on its class (``tenant_workload`` and
``tenant_op`` read only ``klass``), its arrival stream and its
namespace.  So :func:`build_tenants` generates each class once, in the
coordinator, as a :class:`TenantClass`: a time-sorted, tenant-local
:class:`~repro.tracing.columnar.ColumnarTrace`, its one file partition
and each file's request columns; it also checks there, once per class,
that the class's ranks fit a tenant's rank window.  The fleet is then
one :class:`FleetTable`:

* one row per request of every tenant, grouped by tenant in fleet
  order.  Tenant ``k``'s rows are its class's rows, in order; the table
  holds their tenant-id column and their arrival column, which each
  tenant's own :func:`~repro.workloads.arrivals.poisson_arrival_times`
  draw (the ``ARRIVALS`` lineage, stream ``k``) fills in place;
* per tenant, the file view its requests map through (tenant-local
  names; the HDD-only rebuild's when demoted), its premapped runs per
  class file, the bytes they put on SServers and whether the quota
  demoted it.

No tenant's trace is copied into its namespace: tenant ``k``'s files
are :func:`~repro.tenancy.namespace.tenant_file` names and its ranks
sit ``k * rank_stride`` up, and the merge applies both as it gathers
the emitted rows from the class rows.

Each tenant still builds its scheme on its own re-stamped rows (AAL,
HARL and MHA read burst ids from the clock), through one scheme object
per scheme name (AAL keeps the stripe of every search).  The premapped
runs of a class file, with their SServer byte count, are keyed on
``(layout, class, file)`` and shared by every tenant whose
:class:`~repro.schemes.base.LayoutView` maps that file through an equal
layout; any other view (MHA's redirector) premaps per tenant.  A
premapped run is a server and a length, which no file name enters, so
tenants share runs and callers must not change them.  Every entry is
keyed on the complete input of the work it replaces, and that work is
deterministic, so each tenant's entry equals building the tenant alone
from scratch (``tests/tenancy/test_shard.py``).

The SServer quota is enforced here, at build time, the way a real
deployment would: if a tenant's premapped placement puts more than
``sserver_quota`` of its bytes on SServers, its scheme is rebuilt
against the HDD-only sub-cluster (HServers occupy cluster indices
``0..M-1``, so layouts built on ``spec.with_ratio(M, 0)`` are valid —
and all-HDD — in the full cluster) and the tenant is flagged
``demoted``.

With ``n_jobs > 1`` the fleet is split into contiguous ranges of
tenants, and :func:`build_tenant` builds one range per task, carrying
each class once.  A task shares its schemes and runs with no other
task, and the ranges are concatenated in fleet order, so the table
equals the serial one at any job count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec
from ..config import DEFAULT_ARRIVAL_SEED
from ..core.parallel import parallel_map
from ..effects import effects
from ..exceptions import ConfigurationError
from ..layouts.base import Layout
from ..layouts.batch import MergedRuns
from ..pfs.replay import FileView
from ..schemes.base import LayoutView, Scheme
from ..schemes.registry import make_scheme
from ..tracing.columnar import ColumnarTrace
from ..workloads.arrivals import poisson_arrival_times
from .namespace import RANK_STRIDE, tenant_file
from .spec import TenantSpec, tenant_op, tenant_workload, validate_tenants
from .view import RequestColumns, TenantRoutingView

__all__ = ["FleetTable", "TenantClass", "TenantRange", "build_tenant", "build_tenants"]

#: premapped runs of one class file and the bytes they put on SServers,
#: keyed on (layout, class, file)
SharedRuns = dict[tuple[Layout, str, str], tuple[MergedRuns, int]]


@dataclass(frozen=True, eq=False)
class TenantClass:
    """One tenant class: its tenant-local, time-sorted trace, the
    request columns of each file in partition order, and its bytes."""

    name: str
    trace: ColumnarTrace
    requests: dict[str, RequestColumns]
    total_bytes: int

    @classmethod
    def generate(cls, tenant: TenantSpec, rank_stride: int) -> TenantClass:
        """Generate ``tenant``'s class; its ranks must fit the window."""
        trace = tenant_workload(tenant).columnar(tenant_op(tenant)).sorted_by_time()
        data = trace.data
        outside = (data["rank"] < 0) | (data["rank"] >= rank_stride)
        if outside.any():
            raise ConfigurationError(
                f"tenant class {tenant.klass!r}: local rank "
                f"{int(data['rank'][outside][0])} outside the "
                f"0..{rank_stride - 1} namespace window"
            )
        requests = {
            file: (data["offset"][rows], data["size"][rows])
            for file, rows in trace.file_partition().items()
        }
        return cls(tenant.klass, trace, requests, trace.total_bytes())


@dataclass(eq=False)
class FleetTable:
    """Every tenant's build: request rows, and one entry per tenant.

    ``tenant`` and ``arrival`` are the row columns (rows grouped by
    tenant, in the order of ``tenants``); ``views``, ``runs``
    (aligned with the class's ``requests``), ``ssd_bytes`` and
    ``demoted`` hold one entry per tenant, in the same order.  Tables
    compare by identity: compare their columns instead.
    """

    classes: dict[str, TenantClass]
    rank_stride: int
    tenants: tuple[TenantSpec, ...]
    tenant: np.ndarray
    arrival: np.ndarray
    views: list[FileView] = field(default_factory=list)
    runs: list[tuple[MergedRuns, ...]] = field(default_factory=list)
    ssd_bytes: list[int] = field(default_factory=list)
    demoted: list[bool] = field(default_factory=list)

    def routing_view(self) -> TenantRoutingView:
        """One view over every tenant's premapped runs, by namespaced
        file name."""
        runs_by_file: dict[str, MergedRuns] = {}
        requests_by_file: dict[str, RequestColumns] = {}
        for spec, runs in zip(self.tenants, self.runs):
            requests = self.classes[spec.klass].requests
            for (file, columns), file_runs in zip(requests.items(), runs):
                name = tenant_file(spec.tenant, file)
                runs_by_file[name] = file_runs
                requests_by_file[name] = columns
        views = {spec.tenant: view for spec, view in zip(self.tenants, self.views)}
        return TenantRoutingView(runs_by_file, requests_by_file, views)


@dataclass(frozen=True)
class TenantRange:
    """The picklable unit of work: a contiguous range of the fleet's
    tenants and every class of the fleet, once."""

    spec: ClusterSpec
    classes: dict[str, TenantClass]
    tenants: tuple[TenantSpec, ...]
    arrival_seed: int
    rank_stride: int


def _with_ssd_bytes(spec: ClusterSpec, runs: MergedRuns) -> tuple[MergedRuns, int]:
    """A file's premapped runs and the bytes they put on SServers."""
    floor = spec.num_hservers
    return runs, sum(
        length for server, length in zip(runs.servers, runs.lengths) if server >= floor
    )


def _premap(
    spec: ClusterSpec,
    scheme: Scheme,
    klass: TenantClass,
    trace: ColumnarTrace,
    shared: SharedRuns,
) -> tuple[FileView, tuple[MergedRuns, ...], int]:
    """Build the scheme on the tenant's trace; premap each class file
    through its view, sharing the runs of equal layouts."""
    view = scheme.build(spec, trace)
    runs: list[MergedRuns] = []
    ssd_bytes = 0
    for file, requests in klass.requests.items():
        if isinstance(view, LayoutView):
            key = (view.layout_for(file), klass.name, file)
            entry = shared.get(key)
            if entry is None:
                entry = shared[key] = _with_ssd_bytes(
                    spec, view.merged_runs(file, *requests)
                )
        else:
            entry = _with_ssd_bytes(spec, view.merged_runs(file, *requests))
        runs.append(entry[0])
        ssd_bytes += entry[1]
    return view, tuple(runs), ssd_bytes


@effects("READS_CONFIG")
def build_tenant(task: TenantRange) -> FleetTable:
    """Build one contiguous range of tenants (module-level: picklable).

    Each tenant's scheme is built and its class files premapped on its
    class rows re-stamped with its own arrivals; a tenant over its
    SServer quota is rebuilt HDD-only.
    """
    spec = task.spec
    counts = [len(task.classes[t.klass].trace) for t in task.tenants]
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64))).tolist()
    ids = np.array([t.tenant for t in task.tenants], dtype=np.int64)
    arrival = np.empty(bounds[-1], dtype=np.float64)
    table = FleetTable(
        task.classes, task.rank_stride, task.tenants, np.repeat(ids, counts), arrival
    )
    schemes: dict[str, Scheme] = {}
    shared: SharedRuns = {}
    for tenant, lo, hi in zip(task.tenants, bounds, bounds[1:]):
        klass = task.classes[tenant.klass]
        arrival[lo:hi] = poisson_arrival_times(
            hi - lo,
            tenant.rate,
            start=tenant.start,
            jitter=tenant.jitter,
            seed=task.arrival_seed,
            stream=tenant.tenant,
        )
        data = klass.trace.data.copy()
        data["timestamp"] = arrival[lo:hi]
        local = ColumnarTrace(data, klass.trace.interned_files, validate=False)
        scheme = schemes.get(tenant.scheme)
        if scheme is None:
            scheme = schemes[tenant.scheme] = make_scheme(tenant.scheme)
        view, runs, ssd_bytes = _premap(spec, scheme, klass, local, shared)
        demoted = (
            tenant.sserver_quota is not None
            and spec.num_hservers > 0
            and spec.num_sservers > 0
            and klass.total_bytes > 0
            and ssd_bytes > tenant.sserver_quota * klass.total_bytes
        )
        if demoted:
            hdd_only = spec.with_ratio(spec.num_hservers, 0)
            view, runs, ssd_bytes = _premap(hdd_only, scheme, klass, local, shared)
        table.views.append(view)
        table.runs.append(runs)
        table.ssd_bytes.append(ssd_bytes)
        table.demoted.append(demoted)
    return table


def build_tenants(
    spec: ClusterSpec,
    tenants: tuple[TenantSpec, ...],
    *,
    n_jobs: int = 1,
    arrival_seed: int = DEFAULT_ARRIVAL_SEED,
    rank_stride: int = RANK_STRIDE,
) -> FleetTable:
    """Build every tenant, in fleet order, possibly across processes.

    Each tenant class is generated once, here.  ``n_jobs=1`` (the
    default) builds the whole fleet as one range in this process;
    ``n_jobs > 1`` builds up to ``n_jobs`` contiguous ranges in worker
    processes.  The table is identical at any job count.
    """
    validate_tenants(tenants)
    classes: dict[str, TenantClass] = {}
    for tenant in tenants:
        if tenant.klass not in classes:
            classes[tenant.klass] = TenantClass.generate(tenant, rank_stride)
    jobs = max(1, min(n_jobs, len(tenants)))
    cuts = [len(tenants) * j // jobs for j in range(jobs + 1)]
    parts = parallel_map(
        build_tenant,
        [
            TenantRange(spec, classes, tuple(tenants[lo:hi]), arrival_seed, rank_stride)
            for lo, hi in zip(cuts, cuts[1:])
        ],
        n_jobs=n_jobs,
        labels=[f"tenants {lo}-{hi - 1}" for lo, hi in zip(cuts, cuts[1:])],
    )
    if len(parts) == 1:
        return parts[0]
    return FleetTable(
        classes,
        rank_stride,
        tuple(tenants),
        np.concatenate([part.tenant for part in parts]),
        np.concatenate([part.arrival for part in parts]),
        [view for part in parts for view in part.views],
        [runs for part in parts for runs in part.runs],
        [ssd for part in parts for ssd in part.ssd_bytes],
        [demoted for part in parts for demoted in part.demoted],
    )

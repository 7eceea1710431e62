"""Sharded tenant builds: one picklable task per tenant.

A tenant's trace depends on its class (``tenant_workload`` and
``tenant_op`` read only ``klass``), its arrival stream and its
namespace.  So :func:`build_tenants` generates one time-sorted
:class:`~repro.tracing.columnar.ColumnarTrace` per tenant class in the
coordinator, before any task exists, and hands it to every task of that
class.  Everything else a tenant needs before the shared replay — its
seeded arrival re-stamp, its namespace, its layout scheme, the premap
of every file's requests into columnar
:class:`~repro.layouts.batch.MergedRuns`, and its SServer quota — works
on those columns and reads only that tenant's own inputs.  So the
build phase shards perfectly: :func:`build_tenants` fans
:func:`build_tenant` out over processes via
:func:`repro.core.parallel.parallel_map`, and because each task is
pure and deterministic and ``parallel_map`` preserves item order, the
sharded result is bit-identical to the serial one (property-tested in
``tests/tenancy/``), and each class's generator runs once per call at
any job count.

The SServer quota is enforced here, at build time, the way a real
deployment would: if a tenant's premapped placement puts more than
``sserver_quota`` of its bytes on SServers, its scheme is rebuilt
against the HDD-only sub-cluster (HServers occupy cluster indices
``0..M-1``, so layouts built on ``spec.with_ratio(M, 0)`` are valid —
and all-HDD — in the full cluster) and the build is flagged
``demoted``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..config import DEFAULT_ARRIVAL_SEED
from ..core.parallel import parallel_map
from ..effects import effects
from ..layouts.batch import MergedRuns
from ..schemes.registry import make_scheme
from ..tracing.columnar import ColumnarTrace
from ..workloads.arrivals import open_arrivals
from .namespace import RANK_STRIDE, namespace_trace
from .spec import TenantSpec, tenant_op, tenant_workload, validate_tenants
from .view import RequestColumns

__all__ = ["TenantBuild", "TenantBuildTask", "build_tenant", "build_tenants"]


@dataclass(frozen=True)
class TenantBuildTask:
    """The picklable unit of work one shard executes.

    ``trace`` is the tenant's class trace: tenant-local, time-sorted,
    shared by every task of the class.
    """

    spec: ClusterSpec
    tenant: TenantSpec
    trace: ColumnarTrace
    arrival_seed: int = DEFAULT_ARRIVAL_SEED
    rank_stride: int = RANK_STRIDE


@dataclass
class TenantBuild:
    """One tenant's shard output — the merge phase's exchange format.

    ``trace`` is the tenant's namespaced, arrival-stamped trace in time
    order; ``runs_by_file`` / ``requests_by_file`` are its premapped
    per-file columnar runs and the matching offset and size columns.
    """

    tenant: int
    klass: str
    trace: ColumnarTrace
    runs_by_file: dict[str, MergedRuns]
    requests_by_file: dict[str, RequestColumns]
    total_bytes: int
    ssd_bytes: int
    demoted: bool

    @property
    def requests(self) -> int:
        return len(self.trace)


def _premap(
    spec: ClusterSpec, scheme_name: str, trace: ColumnarTrace
) -> tuple[dict[str, MergedRuns], dict[str, RequestColumns], int]:
    """Build the scheme, batch-map each file's requests, report SSD bytes."""
    view = make_scheme(scheme_name).build(spec, trace)
    offsets = trace.data["offset"]
    sizes = trace.data["size"]
    runs_by_file: dict[str, MergedRuns] = {}
    requests_by_file: dict[str, RequestColumns] = {}
    ssd_bytes = 0
    sserver_floor = spec.num_hservers
    for file, rows in trace.file_partition().items():
        file_offsets, file_sizes = offsets[rows], sizes[rows]
        runs = view.merged_runs(file, file_offsets, file_sizes)
        runs_by_file[file] = runs
        requests_by_file[file] = (file_offsets, file_sizes)
        for server, length in zip(runs.servers, runs.lengths):
            if server >= sserver_floor:
                ssd_bytes += length
    return runs_by_file, requests_by_file, ssd_bytes


@effects("READS_CONFIG", "IO")
def build_tenant(task: TenantBuildTask) -> TenantBuild:
    """One tenant's full shard pipeline (module-level: picklable)."""
    tenant = task.tenant
    arrived = open_arrivals(
        task.trace,
        tenant.rate,
        start=tenant.start,
        jitter=tenant.jitter,
        seed=task.arrival_seed,
        stream=tenant.tenant,
    )
    trace = namespace_trace(arrived, tenant.tenant, stride=task.rank_stride)
    runs, requests, ssd_bytes = _premap(task.spec, tenant.scheme, trace)
    total_bytes = trace.total_bytes()
    demoted = False
    if (
        tenant.sserver_quota is not None
        and task.spec.num_hservers > 0
        and task.spec.num_sservers > 0
        and total_bytes > 0
        and ssd_bytes > tenant.sserver_quota * total_bytes
    ):
        hdd_only = task.spec.with_ratio(task.spec.num_hservers, 0)
        runs, requests, ssd_bytes = _premap(hdd_only, tenant.scheme, trace)
        demoted = True
    return TenantBuild(
        tenant=tenant.tenant,
        klass=tenant.klass,
        trace=trace,
        runs_by_file=runs,
        requests_by_file=requests,
        total_bytes=total_bytes,
        ssd_bytes=ssd_bytes,
        demoted=demoted,
    )


def build_tenants(
    spec: ClusterSpec,
    tenants: tuple[TenantSpec, ...],
    *,
    n_jobs: int = 1,
    arrival_seed: int = DEFAULT_ARRIVAL_SEED,
    rank_stride: int = RANK_STRIDE,
) -> list[TenantBuild]:
    """Build every tenant, possibly across processes, in tenant order.

    Each tenant class in the fleet is generated once, here, as a
    time-sorted columnar trace.  ``n_jobs=1`` (the default) stays
    serial.  Results are identical at any job count.
    """
    validate_tenants(tenants)
    class_traces: dict[str, ColumnarTrace] = {}
    for tenant in tenants:
        if tenant.klass not in class_traces:
            local = tenant_workload(tenant).columnar(tenant_op(tenant))
            class_traces[tenant.klass] = local.sorted_by_time()
    tasks = [
        TenantBuildTask(
            spec=spec,
            tenant=tenant,
            trace=class_traces[tenant.klass],
            arrival_seed=arrival_seed,
            rank_stride=rank_stride,
        )
        for tenant in tenants
    ]
    return parallel_map(
        build_tenant,
        tasks,
        n_jobs=n_jobs,
        labels=[f"tenant{t.tenant:04d}" for t in tenants],
    )

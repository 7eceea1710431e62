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
deterministic and ``parallel_map`` preserves item order, the sharded
result is bit-identical to the serial one (property-tested in
``tests/tenancy/``), and each class's generator runs once per call at
any job count.

Tenants of one class differ only in their arrival clock and their
namespace, so most of them build the same layouts.  One
:class:`TenantLayouts` table per :func:`build_tenants` call lets every
distinct layout be built once: a tenant builds its scheme and premaps
its requests on its *tenant-local* trace (file names without the
tenant prefix), and only then moves the trace, the file keys and each
run's object into its namespace.  The table shares one scheme object
per scheme name (AAL keeps the stripe of every search on the
instance) and the premapped runs of every distinct ``(layout, offset
column, size column)``.  Every entry is keyed on the complete input of
the work it replaces, and that work is deterministic, so no result can
depend on what an earlier tenant left in the table: each build is
bit-identical to building the tenant from scratch on its namespaced
trace (``tests/tenancy/test_shard.py``).  With ``n_jobs > 1`` each
task is pickled with its own copy of the empty table, so tasks run by
workers share nothing and build every layout themselves; results are
the same at every job count.

The SServer quota is enforced here, at build time, the way a real
deployment would: if a tenant's premapped placement puts more than
``sserver_quota`` of its bytes on SServers, its scheme is rebuilt
against the HDD-only sub-cluster (HServers occupy cluster indices
``0..M-1``, so layouts built on ``spec.with_ratio(M, 0)`` are valid —
and all-HDD — in the full cluster) and the build is flagged
``demoted``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster import ClusterSpec
from ..config import DEFAULT_ARRIVAL_SEED
from ..core.parallel import parallel_map
from ..effects import effects
from ..layouts.base import Layout
from ..layouts.batch import MergedRuns
from ..schemes.base import LayoutView, Scheme
from ..schemes.registry import make_scheme
from ..tracing.columnar import ColumnarTrace
from ..workloads.arrivals import open_arrivals
from .namespace import RANK_STRIDE, namespace_trace, tenant_file
from .spec import TenantSpec, tenant_op, tenant_workload, validate_tenants
from .view import RequestColumns

__all__ = [
    "TenantBuild",
    "TenantBuildTask",
    "TenantLayouts",
    "build_tenant",
    "build_tenants",
]

#: one scheme build's premap: runs and request columns per file, and
#: the bytes the runs put on SServers
Premap = tuple[dict[str, MergedRuns], dict[str, RequestColumns], int]


class TenantLayouts:
    """What the tenant builds of one :func:`build_tenants` call share:
    one scheme object per scheme name, and the premapped runs of every
    distinct ``(layout, offsets, sizes)`` a static view maps.

    Layouts compare by value where they define it
    (:class:`~repro.layouts.fixed.FixedStripeLayout`); any other layout
    equals only itself, so its runs are never shared.  A view that is
    not a :class:`~repro.schemes.base.LayoutView` (MHA's redirector)
    premaps every build itself.  Callers must not change the runs they
    get: tenants share their column lists.
    """

    def __init__(self) -> None:
        self._schemes: dict[str, Scheme] = {}
        self._runs: dict[tuple[Layout, bytes, bytes], MergedRuns] = {}

    def premap(
        self, spec: ClusterSpec, scheme_name: str, trace: ColumnarTrace
    ) -> Premap:
        """Build the scheme, batch-map each file's requests, report SSD bytes."""
        scheme = self._schemes.get(scheme_name)
        if scheme is None:
            scheme = self._schemes[scheme_name] = make_scheme(scheme_name)
        view = scheme.build(spec, trace)
        offsets = trace.data["offset"]
        sizes = trace.data["size"]
        runs_by_file: dict[str, MergedRuns] = {}
        requests_by_file: dict[str, RequestColumns] = {}
        ssd_bytes = 0
        sserver_floor = spec.num_hservers
        for file, rows in trace.file_partition().items():
            file_offsets, file_sizes = offsets[rows], sizes[rows]
            if isinstance(view, LayoutView):
                key = (
                    view.layout_for(file),
                    file_offsets.tobytes(),
                    file_sizes.tobytes(),
                )
                runs = self._runs.get(key)
                if runs is None:
                    runs = view.merged_runs(file, file_offsets, file_sizes)
                    self._runs[key] = runs
            else:
                runs = view.merged_runs(file, file_offsets, file_sizes)
            runs_by_file[file] = runs
            requests_by_file[file] = (file_offsets, file_sizes)
            for server, length in zip(runs.servers, runs.lengths):
                if server >= sserver_floor:
                    ssd_bytes += length
        return runs_by_file, requests_by_file, ssd_bytes


@dataclass(frozen=True)
class TenantBuildTask:
    """The picklable unit of work one shard executes.

    ``trace`` is the tenant's class trace: tenant-local, time-sorted,
    shared by every task of the class.  ``layouts`` is the call's
    shared layout table; a task without one builds with a fresh table.
    """

    spec: ClusterSpec
    tenant: TenantSpec
    trace: ColumnarTrace
    arrival_seed: int = DEFAULT_ARRIVAL_SEED
    rank_stride: int = RANK_STRIDE
    layouts: TenantLayouts | None = None


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


def _namespaced(runs: MergedRuns, tenant: int) -> MergedRuns:
    """``runs`` with every object inside ``tenant``'s namespace; the
    other columns are shared, not copied."""
    names = {obj: tenant_file(tenant, obj) for obj in dict.fromkeys(runs.objs)}
    return replace(runs, objs=[names[obj] for obj in runs.objs])


@effects("READS_CONFIG", "IO")
def build_tenant(task: TenantBuildTask) -> TenantBuild:
    """One tenant's full shard pipeline (module-level: picklable).

    The scheme is built and the requests premapped on the re-stamped,
    tenant-local trace, through the task's layout table; the trace,
    the file keys and every run's object then move into the tenant's
    namespace.
    """
    tenant = task.tenant
    layouts = task.layouts if task.layouts is not None else TenantLayouts()
    local = open_arrivals(
        task.trace,
        tenant.rate,
        start=tenant.start,
        jitter=tenant.jitter,
        seed=task.arrival_seed,
        stream=tenant.tenant,
    )
    trace = namespace_trace(local, tenant.tenant, stride=task.rank_stride)
    runs, requests, ssd_bytes = layouts.premap(task.spec, tenant.scheme, local)
    total_bytes = local.total_bytes()
    demoted = False
    if (
        tenant.sserver_quota is not None
        and task.spec.num_hservers > 0
        and task.spec.num_sservers > 0
        and total_bytes > 0
        and ssd_bytes > tenant.sserver_quota * total_bytes
    ):
        hdd_only = task.spec.with_ratio(task.spec.num_hservers, 0)
        runs, requests, ssd_bytes = layouts.premap(hdd_only, tenant.scheme, local)
        demoted = True
    return TenantBuild(
        tenant=tenant.tenant,
        klass=tenant.klass,
        trace=trace,
        runs_by_file={
            tenant_file(tenant.tenant, file): _namespaced(file_runs, tenant.tenant)
            for file, file_runs in runs.items()
        },
        requests_by_file={
            tenant_file(tenant.tenant, file): columns
            for file, columns in requests.items()
        },
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
    time-sorted columnar trace, and every task shares one
    :class:`TenantLayouts` table.  ``n_jobs=1`` (the default) stays
    serial.  Results are identical at any job count.
    """
    validate_tenants(tenants)
    class_traces: dict[str, ColumnarTrace] = {}
    for tenant in tenants:
        if tenant.klass not in class_traces:
            local = tenant_workload(tenant).columnar(tenant_op(tenant))
            class_traces[tenant.klass] = local.sorted_by_time()
    layouts = TenantLayouts()
    tasks = [
        TenantBuildTask(
            spec=spec,
            tenant=tenant,
            trace=class_traces[tenant.klass],
            arrival_seed=arrival_seed,
            rank_stride=rank_stride,
            layouts=layouts,
        )
        for tenant in tenants
    ]
    return parallel_map(
        build_tenant,
        tasks,
        n_jobs=n_jobs,
        labels=[f"tenant{t.tenant:04d}" for t in tenants],
    )

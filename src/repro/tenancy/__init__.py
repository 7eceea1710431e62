"""Multi-tenant cluster service: admission, fairness/QoS, sharded replay.

The tenancy layer turns the single-application simulator into a
service: N tenants (each a :mod:`repro.workloads` instance on its own
seeded arrival process) share one hybrid PFS, with per-tenant file and
rank namespaces, admission control, token-bucket bandwidth shares,
SServer capacity quotas, and SCFQ weighted fair queueing in the
dispatch front end.  The fleet is built as one table
(:func:`~repro.tenancy.shard.build_tenants`): each tenant class is
generated, partitioned and premapped once per distinct layout, and
tenants are rows with their own arrival clocks, built serially or as
ranges of tenants across processes; the replay itself is one shared
deterministic pass.  Start at
:func:`~repro.tenancy.service.serve_scenario` or
``python -m repro.harness serve``.
"""

from .admission import admission_offsets
from .namespace import (
    RANK_STRIDE,
    rank_base,
    tenant_file,
    tenant_of_file,
    tenant_of_rank,
)
from .qos import nominal_bandwidth, token_bucket_release, wfq_emission
from .service import SERVE_QUANTILES, ServeReport, TenantMetrics, serve_scenario
from .shard import FleetTable, TenantClass, build_tenant, build_tenants
from .spec import (
    SERVE_SCHEMES,
    TENANT_CLASSES,
    TenantSpec,
    make_tenants,
    tenant_workload,
    validate_tenants,
)
from .view import TenantRoutingView

__all__ = [
    "RANK_STRIDE",
    "SERVE_QUANTILES",
    "SERVE_SCHEMES",
    "TENANT_CLASSES",
    "FleetTable",
    "ServeReport",
    "TenantClass",
    "TenantMetrics",
    "TenantRoutingView",
    "TenantSpec",
    "admission_offsets",
    "build_tenant",
    "build_tenants",
    "make_tenants",
    "nominal_bandwidth",
    "rank_base",
    "serve_scenario",
    "tenant_file",
    "tenant_of_file",
    "tenant_of_rank",
    "tenant_workload",
    "token_bucket_release",
    "validate_tenants",
    "wfq_emission",
]

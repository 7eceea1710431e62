"""Per-tenant namespaces: disjoint file names and rank ranges.

The shared replay couples tenants only where the paper says they
couple — in the server queues.  Everything *named* stays disjoint:
tenant ``k``'s files are prefixed ``t0042/`` and its ranks live in the
window ``[k * RANK_STRIDE, (k+1) * RANK_STRIDE)``.  Disjoint files
make per-tenant layout views composable into one routing view (a file
belongs to exactly one tenant, so premapped per-file request runs
remain valid after the global merge); disjoint ranks make per-tenant
latency attribution a single integer division over
``RunMetrics.latency_ranks``.  No trace is rewritten into a namespace:
the fleet table (:mod:`repro.tenancy.shard`) keeps tenant-local class
rows and a tenant-id column, and the merge shifts each gathered row's
rank and pid into its tenant's window and its file into the tenant's
:func:`tenant_file` names.
"""

from __future__ import annotations

__all__ = [
    "RANK_STRIDE",
    "rank_base",
    "tenant_file",
    "tenant_of_file",
    "tenant_of_rank",
]

#: global ranks per tenant window; generators use a handful of ranks,
#: so this bounds tenant process counts, not cluster size
RANK_STRIDE = 16


def tenant_file(tenant: int, file: str) -> str:
    """``file`` inside tenant ``tenant``'s namespace."""
    return f"t{tenant:04d}/{file}"


def tenant_of_file(file: str) -> int | None:
    """The owning tenant of a namespaced file, or ``None``."""
    head, sep, _ = file.partition("/")
    if not sep or len(head) < 2 or head[0] != "t" or not head[1:].isdigit():
        return None
    return int(head[1:])


def rank_base(tenant: int, stride: int = RANK_STRIDE) -> int:
    """First global rank of tenant ``tenant``'s window."""
    return tenant * stride


def tenant_of_rank(rank: int, stride: int = RANK_STRIDE) -> int:
    """The tenant owning global rank ``rank``."""
    return rank // stride

"""Tenant descriptions: who shares the cluster, and on what terms.

A :class:`TenantSpec` is the frozen, picklable unit of multi-tenant
configuration: which workload *class* the tenant runs, which layout
scheme serves it, and its QoS terms — a weighted-fair-queueing
``weight``, a shaped bandwidth ``share``, and an optional SServer
capacity ``sserver_quota``.  :func:`make_tenants` generates the
standard serve mix (Oe's K5 cloud study: mostly small hot working sets
plus long sequential tails) deterministically from a tenant count and
hot fraction — no RNG is involved in the mix itself, so two
invocations always describe the same fleet; per-tenant *traffic*
randomness comes later from the seeded arrival rewrite
(:mod:`repro.workloads.arrivals`), keyed by tenant index.

:class:`TenantSpec` checks its own fields on construction: weights and
rates finite and positive, start and jitter finite and non-negative,
shares in ``(0, 1]``, quotas in ``[0, 1]``, and schemes restricted to
those whose mapping is fixed before the replay (every tenant's
requests are premapped in its build shard; SAW's mapping depends on
the latency feedback it sees during the shared replay, so it cannot
be premapped per shard).
:func:`validate_tenants` is the config-time fleet gate: tenant ids
unique and dense, and shares **summing to at most 1** (the shaper
hands out fractions of one cluster).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..units import KiB, MiB
from ..workloads.base import Workload
from ..workloads.checkpoint import CheckpointWorkload
from ..workloads.ior import IORWorkload

__all__ = [
    "SERVE_SCHEMES",
    "TENANT_CLASSES",
    "TenantSpec",
    "make_tenants",
    "tenant_workload",
    "validate_tenants",
]

#: the workload classes :func:`tenant_workload` understands
TENANT_CLASSES: tuple[str, ...] = ("hot", "tail")

#: schemes a tenant may request: static views (or the MHA redirector),
#: whose mappings do not depend on the replay, so each build shard can
#: premap its tenant's requests
SERVE_SCHEMES: tuple[str, ...] = ("DEF", "AAL", "HARL", "MHA")

#: share sums within this of 1.0 still validate (float accumulation)
_SHARE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: workload class, layout scheme, and QoS terms.

    ``rate`` is the tenant's open-arrival rate (requests per simulated
    second); ``start``/``jitter`` place its first arrival.  ``share``
    is the fraction of the cluster's nominal bandwidth its token-bucket
    shaper releases; ``weight`` is its fair-queueing weight;
    ``sserver_quota`` caps the fraction of the tenant's bytes that may
    land on SServers (``None`` = unlimited, ``0`` = HDD only).
    """

    tenant: int
    klass: str = "hot"
    scheme: str = "DEF"
    weight: float = 1.0
    share: float = 1.0
    sserver_quota: float | None = None
    rate: float = 200.0
    start: float = 0.0
    jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.tenant < 0:
            raise ConfigurationError(f"tenant id must be >= 0, got {self.tenant}")
        if self.klass not in TENANT_CLASSES:
            raise ConfigurationError(
                f"unknown tenant class {self.klass!r}; choose from {TENANT_CLASSES}"
            )
        if self.scheme.upper() not in SERVE_SCHEMES:
            raise ConfigurationError(
                f"tenant scheme {self.scheme!r} not servable; "
                f"choose from {SERVE_SCHEMES}"
            )
        if not 0.0 < self.weight < math.inf:
            raise ConfigurationError(
                f"weight must be finite and > 0, got {self.weight}"
            )
        if not 0.0 < self.share <= 1.0:
            raise ConfigurationError(f"share must be in (0, 1], got {self.share}")
        if self.sserver_quota is not None and not 0.0 <= self.sserver_quota <= 1.0:
            raise ConfigurationError(
                f"sserver_quota must be in [0, 1], got {self.sserver_quota}"
            )
        if not 0.0 < self.rate < math.inf:
            raise ConfigurationError(f"rate must be finite and > 0, got {self.rate}")
        for name, value in (("start", self.start), ("jitter", self.jitter)):
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0, got {value}")


def validate_tenants(tenants: tuple[TenantSpec, ...] | list[TenantSpec]) -> None:
    """Config-time fleet validation (fails fast, before any build)."""
    if not tenants:
        raise ConfigurationError("need at least one tenant")
    ids = [t.tenant for t in tenants]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("tenant ids must be unique")
    if sorted(ids) != list(range(len(ids))):
        raise ConfigurationError(
            f"tenant ids must be dense 0..{len(ids) - 1} (they key the "
            "rank namespace and the arrival streams)"
        )
    total_share = math.fsum(t.share for t in tenants)
    if total_share > 1.0 + _SHARE_TOLERANCE:
        raise ConfigurationError(
            f"tenant shares sum to {total_share:.6f} > 1; the shaper "
            "hands out fractions of one cluster"
        )


def tenant_workload(spec: TenantSpec) -> Workload:
    """The (closed) workload generator behind one tenant.

    ``hot`` tenants model K5's dominant population: a couple of ranks
    re-reading a small randomly-addressed working set.  ``tail``
    tenants model the long sequential minority: checkpoint-style bulk
    writes with a restart read-back.  Both are deliberately tiny per
    tenant — the serve scenario multiplies them by thousands.
    """
    if spec.klass == "hot":
        return IORWorkload(
            num_processes=2,
            request_sizes=[16 * KiB, 64 * KiB],
            total_size=512 * KiB,
            randomize_offsets=True,
            file="hot.dat",
        )
    return CheckpointWorkload(
        num_processes=2,
        checkpoints=2,
        header_size=4 * KiB,
        payload_size=1 * MiB,
        restart=True,
        file="ckpt.dat",
    )


def tenant_op(spec: TenantSpec) -> str | None:
    """The op the tenant's generator is driven with.

    Hot tenants replay a pure read stream; tail tenants replay the
    full checkpoint mix (writes plus the restart read-back), so the
    shared SServers see both directions of traffic.
    """
    return "read" if spec.klass == "hot" else None


def make_tenants(
    count: int,
    *,
    hot_fraction: float = 0.8,
    hot_scheme: str = "DEF",
    tail_scheme: str = "AAL",
    tail_quota: float | None = 0.2,
    rate: float = 200.0,
    jitter: float = 2.0,
) -> tuple[TenantSpec, ...]:
    """The standard serve fleet: ``count`` tenants, mostly hot.

    Tenant ``k`` is hot iff ``(k * hot_fraction) % 1`` wraps — i.e.
    hot/tail tenants interleave at the requested ratio with no RNG.
    Hot tenants get weight 1 and unlimited SServer use (small working
    sets belong on SSD); tail tenants get weight 2 (they move more
    bytes per request) and ``tail_quota`` capping their SServer
    footprint.  Shares split the cluster evenly, summing to exactly
    ``count`` × ``1/count`` ≤ 1.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ConfigurationError(f"hot_fraction must be in [0, 1], got {hot_fraction}")
    share = 1.0 / count
    tenants: list[TenantSpec] = []
    acc = 0.0
    for k in range(count):
        acc += hot_fraction
        if acc >= 1.0 - _SHARE_TOLERANCE:
            acc -= 1.0
            klass, scheme, weight, quota = "hot", hot_scheme, 1.0, None
        else:
            klass, scheme, weight, quota = "tail", tail_scheme, 2.0, tail_quota
        tenants.append(
            TenantSpec(
                tenant=k,
                klass=klass,
                scheme=scheme,
                weight=weight,
                share=share,
                sserver_quota=quota,
                rate=rate,
                jitter=jitter,
            )
        )
    fleet = tuple(tenants)
    validate_tenants(fleet)
    return fleet

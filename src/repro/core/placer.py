"""The Placer — MHA's placement phase (§III-G).

Turns RST stripe decisions into concrete
:class:`~repro.layouts.varied.VariedStripeLayout` objects, one per
region, over the cluster's HServers/SServers.  Also exposes the data
*migration schedule*: which bytes must be copied from the original file
to each region file before the optimized layout serves traffic (the
"subsequent runs of the application" in the paper's workflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cluster import ClusterSpec
from ..layouts.base import Layout
from ..layouts.varied import VariedStripeLayout
from ..units import KiB
from .drt import DRT, DRTEntry
from .params import CostModelParams
from .rst import RST, StripePair

__all__ = ["build_region_layout", "place_regions", "MigrationStep", "migration_schedule"]


def build_region_layout(spec: ClusterSpec, pair: StripePair, obj: str) -> Layout:
    """A varied-stripe layout for one region under the cluster spec."""
    return VariedStripeLayout(
        hservers=spec.hserver_ids,
        sservers=spec.sserver_ids,
        h=pair.h,
        s=pair.s,
        obj=obj,
    )


def place_regions(spec: ClusterSpec, rst: RST) -> dict[str, Layout]:
    """Instantiate the layout of every region recorded in the RST."""
    return {
        region: build_region_layout(spec, pair, obj=region)
        for region, pair in rst
    }


@dataclass(frozen=True)
class MigrationStep:
    """One copy operation of the placement phase: original -> region."""

    entry: DRTEntry

    @property
    def bytes(self) -> int:
        return self.entry.length

    def __str__(self) -> str:
        e = self.entry
        return (
            f"copy {e.length}B {e.o_file}@{e.o_offset} -> "
            f"{e.r_file}@{e.r_offset}"
        )


def migration_schedule(drt: DRT) -> list[MigrationStep]:
    """The placement phase's copy list, in original-offset order.

    Copying in ascending original offset turns the read side of the
    migration into one sequential sweep of the original file — the
    cheapest order on HDD-resident data.
    """
    return [MigrationStep(entry) for entry in drt]


def estimate_migration_time(
    spec: ClusterSpec,
    drt: DRT | Sequence[DRTEntry],
    original_stripe: int = 64 * KiB,
) -> float:
    """Rough one-off cost of the placement phase's data movement.

    The paper runs migration off-line, once, between the profiled run
    and the production runs; this estimate quantifies "once".  Model:
    the sweep reads every migrated byte off the original layout's
    servers and writes it to the region servers; both sides move the
    same bytes, the copy pipeline is bound by the slower (read) side,
    and each DRT extent costs one average startup on each side.

    Deliberately coarse, and not an upper bound: it spreads the bytes
    evenly over every server, with no queueing and no write-side
    transfer time.  On 24 IOR plans (8 ranks, 16 MiB, seed 0, reads
    and writes, with size mixes (KiB) 16, 32, 64, 128, 256, 16+64,
    16+256, 32+128, 64+128, 64+512, 128+256 and 256+512) it came to
    0.14–0.32× the makespan of
    :class:`repro.online.migrator.LiveMigrationScheduler` copying the
    plan unthrottled on an idle cluster, which is how to simulate the
    copy.
    """
    params = CostModelParams.from_cluster(spec)
    total_bytes = sum(entry.length for entry in drt)
    extents = len(drt)
    if total_bytes == 0:
        return 0.0
    # read side: bytes come off the original striping, which spreads
    # them over every server; the HServers are the slow majority
    servers = max(spec.num_servers, 1)
    per_server = total_bytes / servers
    read_side = per_server * (params.t + params.beta_h) + (
        extents / servers
    ) * (params.alpha_h + params.net_latency)
    # write side: regions also span the cluster; SServer writes are
    # cheaper, so the read side dominates — add the write startups only
    write_side = (extents / servers) * (params.alpha_sw + params.net_latency)
    return read_side + write_side

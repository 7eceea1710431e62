"""Simulated execution of the placement phase's data migration.

:func:`repro.core.placer.estimate_migration_time` gives a closed-form
estimate; this module *measures* the one-off migration on the
discrete-event simulator instead: one migrator process per original
file sweeps its DRT extents in offset order, reading each extent
through the original layout and writing it through its region layout
(the write starts when the read completes; different files migrate in
parallel, exactly how an off-line copy tool would run).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..core.pipeline import MHAPlan
from .system import HybridPFS

__all__ = ["MigrationMetrics", "simulate_migration"]


@dataclass(frozen=True)
class MigrationMetrics:
    """Outcome of a simulated migration."""

    makespan: float
    bytes_moved: int
    extents: int

    @property
    def bandwidth(self) -> float:
        """Effective copy bandwidth in bytes/second."""
        if self.makespan <= 0:
            return 0.0
        return self.bytes_moved / self.makespan


def simulate_migration(spec: ClusterSpec, plan: MHAPlan) -> MigrationMetrics:
    """Run the plan's migration on a fresh simulator; returns metrics."""
    pfs = HybridPFS(spec)
    sim = pfs.sim
    by_file: dict[str, list] = {}
    for entry in plan.drt:
        by_file.setdefault(entry.o_file, []).append(entry)

    total = 0
    count = 0

    def migrator(entries):
        for entry in entries:
            source = plan.original_layouts[entry.o_file]
            target = plan.region_layouts[entry.r_file]
            read_frags = source.map_extent(entry.o_offset, entry.length)
            yield pfs.issue("read", read_frags)
            write_frags = target.map_extent(entry.r_offset, entry.length)
            yield pfs.issue("write", write_frags)

    for o_file, entries in sorted(by_file.items()):
        entries.sort(key=lambda e: e.o_offset)
        total += sum(e.length for e in entries)
        count += len(entries)
        sim.spawn(migrator(entries), name=f"migrate:{o_file}")
    sim.run()
    return MigrationMetrics(makespan=sim.now, bytes_moved=total, extents=count)

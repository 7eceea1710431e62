"""Live migration: background copy + epoch-based double-buffered swap.

The off-line workflow stops the world: migrate everything, then serve.
The online controller cannot — foreground traffic keeps arriving — so
an admitted relayout runs as background I/O on the same simulated
cluster, interleaved with the foreground replay, and the request path
flips from the old plan to the new one **per region**, atomically, the
instant that region's bytes finish copying:

* :class:`EpochRedirector` double-buffers two plans.  Requests are
  translated through the *new* plan's DRT; extents whose target region
  has already flipped are served from the new layout, every other byte
  range is delegated to the old plan's mapping (which may itself be a
  region of the previous epoch or an original-layout fall-through).
  Flipping a region is one set-insert at one simulated instant — the
  "epoch swap" — so no request ever sees a half-migrated region.
* :class:`LiveMigrationScheduler` spawns one migrator process per
  region on the shared simulator.  Each process sweeps the region's
  DRT extents in offset order, reading every extent through the old
  mapping (wherever the bytes currently live) and writing it through
  the new region layout, then flips the region.  A **bandwidth
  throttle** paces each migrator: after copying an extent of ``L``
  bytes, the next extent may not start before ``L / throttle``
  seconds after the previous one began, capping the background rate
  so foreground traffic keeps most of the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.pipeline import MHAPlan
from ..exceptions import ConfigurationError
from ..layouts.base import SubRequest
from ..pfs.system import HybridPFS

__all__ = ["EpochRedirector", "LiveMigrationScheduler", "MigrationReport"]


class EpochRedirector:
    """A double-buffered file view that flips to a new plan per region.

    Starts as a transparent proxy for ``plan``'s redirector.  A call to
    :meth:`begin_epoch` installs a candidate plan; regions then flip
    one by one via :meth:`flip` as their copies complete, and
    :meth:`commit` retires the epoch once every region has flipped.
    Old-plan mappings stay reachable after commit: bytes the new plan
    never reordered keep resolving through the previous epoch's chain
    (new DRT -> old plan -> original layout), so a partially re-planned
    namespace keeps working forever.
    """

    def __init__(self, plan: MHAPlan) -> None:
        self.active_plan = plan
        self._old_view = plan.redirector
        self.new_plan: MHAPlan | None = None
        self.flipped: set[str] = set()
        self.epochs = 0

    @property
    def migrating(self) -> bool:
        """Whether an epoch is currently in flight."""
        return self.new_plan is not None

    def begin_epoch(self, new_plan: MHAPlan) -> None:
        """Install a candidate plan; nothing serves from it until flips."""
        if self.new_plan is not None:
            raise ConfigurationError("an epoch is already in flight")
        self.new_plan = new_plan
        self.flipped = set()

    def flip(self, region: str) -> None:
        """Atomically route ``region``'s extents to the new layout."""
        if self.new_plan is None:
            raise ConfigurationError("no epoch in flight")
        if region not in self.new_plan.region_layouts:
            raise ConfigurationError(f"unknown region {region!r}")
        self.flipped.add(region)

    def commit(self) -> None:
        """Retire the in-flight epoch: the new plan becomes active.

        The old view is kept as the fall-through chain for extents the
        new DRT does not map.
        """
        if self.new_plan is None:
            raise ConfigurationError("no epoch in flight")
        self.flipped = set(self.new_plan.region_layouts)
        self._old_view = _ChainedView(self.new_plan, self.flipped, self._old_view)
        self.active_plan = self.new_plan
        self.new_plan = None
        self.epochs += 1

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Resolve a request through the current epoch state."""
        if self.new_plan is None:
            return self._old_view.map_request(file, offset, length)
        return _map_epoch(
            self.new_plan, self.flipped, self._old_view, file, offset, length
        )


class _ChainedView:
    """A committed epoch: a plan plus the previous epoch as fall-through."""

    def __init__(self, plan: MHAPlan, flipped: set[str], old_view) -> None:
        self._plan = plan
        self._flipped = flipped
        self._old_view = old_view

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        return _map_epoch(
            self._plan, self._flipped, self._old_view, file, offset, length
        )


def _map_epoch(
    new_plan: MHAPlan,
    flipped: set[str],
    old_view,
    file: str,
    offset: int,
    length: int,
) -> list[SubRequest]:
    """Translate via the new DRT; un-flipped or unmapped extents fall
    back to the old view for exactly their byte range."""
    fragments: list[SubRequest] = []
    for extent in new_plan.drt.translate(file, offset, length):
        if extent.mapped and extent.file in flipped:
            layout = new_plan.region_layouts[extent.file]
            base = extent.logical_offset - extent.offset
            for frag in layout.map_extent(extent.offset, extent.length):
                fragments.append(
                    SubRequest(
                        server=frag.server,
                        obj=frag.obj,
                        offset=frag.offset,
                        length=frag.length,
                        logical_offset=base + frag.logical_offset,
                    )
                )
        else:
            fragments.extend(
                old_view.map_request(file, extent.logical_offset, extent.length)
            )
    return fragments


@dataclass
class MigrationReport:
    """What one live migration did, as measured on the simulator."""

    bytes_moved: int = 0
    extents: int = 0
    regions: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    flip_times: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    @property
    def complete(self) -> bool:
        return self.regions > 0 and len(self.flip_times) == self.regions


class LiveMigrationScheduler:
    """Runs an admitted relayout as throttled background I/O.

    Parameters
    ----------
    pfs:
        The shared (already running) simulated file system.
    epoch:
        The :class:`EpochRedirector` serving foreground traffic; the
        scheduler flips its regions as they finish and commits the
        epoch when the last one does.
    throttle:
        Background bandwidth cap per migrator process, in bytes/second
        (``None`` = unthrottled).
    """

    def __init__(
        self,
        pfs: HybridPFS,
        epoch: EpochRedirector,
        throttle: float | None = None,
    ) -> None:
        if throttle is not None and throttle <= 0:
            raise ConfigurationError(f"throttle must be > 0, got {throttle}")
        self.pfs = pfs
        self.epoch = epoch
        self.throttle = throttle
        self.report = MigrationReport()
        self._pending_regions = 0
        self.on_commit = None

    def start(self, new_plan: MHAPlan, migration_entries: list) -> MigrationReport:
        """Begin the epoch and spawn one migrator process per region.

        ``migration_entries`` are the DRT entries to copy (the replan
        outcome's :attr:`~repro.online.replanner.ReplanOutcome.migration_entries`).
        Reads go through the epoch's *old* view — wherever each byte
        currently lives — and writes through the new region layout.
        Regions with nothing to copy flip immediately.
        """
        sim = self.pfs.sim
        old_view = self.epoch._old_view
        self.epoch.begin_epoch(new_plan)
        by_region: dict[str, list] = {}
        for entry in migration_entries:
            by_region.setdefault(entry.r_file, []).append(entry)

        report = self.report = MigrationReport(
            regions=len(by_region), started_at=sim.now
        )
        self._pending_regions = len(by_region)
        if not by_region:
            self._finish_all()
            return report

        for region, entries in sorted(by_region.items()):
            entries.sort(key=lambda e: e.o_offset)
            report.extents += len(entries)
            sim.spawn(
                self._migrate_region(region, entries, old_view, new_plan),
                name=f"relayout:{region}",
            )
        return report

    def _migrate_region(self, region, entries, old_view, new_plan):
        sim = self.pfs.sim
        layout = new_plan.region_layouts[region]
        for entry in entries:
            extent_start = sim.now
            read_frags = old_view.map_request(
                entry.o_file, entry.o_offset, entry.length
            )
            yield self.pfs.issue("read", read_frags)
            write_frags = layout.map_extent(entry.r_offset, entry.length)
            yield self.pfs.issue("write", write_frags)
            self.report.bytes_moved += entry.length
            if self.throttle is not None:
                pace = entry.length / self.throttle
                remaining = (extent_start + pace) - sim.now
                if remaining > 0:
                    yield remaining
        self.epoch.flip(region)
        self.report.flip_times[region] = sim.now
        self._pending_regions -= 1
        if self._pending_regions == 0:
            self._finish_all()

    def _finish_all(self) -> None:
        self.report.finished_at = self.pfs.sim.now
        self.epoch.commit()
        if self.on_commit is not None:
            self.on_commit(self.report)

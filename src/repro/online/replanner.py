"""Incremental re-planning: rebuild only the drifted files.

A drift report names files whose regions no longer serve the traffic
they were built for.  The re-planner runs the off-line machinery —
grouping, reordering, the grid RSSD search — over the *recent window*
of those files only, and carries every un-drifted file's DRT entries,
layouts and stripe decisions into the new plan verbatim.  The window is
converted to columnar once, and each drifted file goes through the same
:meth:`~repro.core.pipeline.MHAPipeline.plan_file_columnar` and
:meth:`~repro.core.pipeline.MHAPipeline.search` calls the off-line
plan makes, in the calling process.

One further saving: when a rebuilt region's centroid lands within
``reuse_tolerance`` (relative distance) of an **un-drifted** region of
the old plan, the old region's stripe decision is reused instead of
searching again — the pattern did not move, only the byte population
did.  Drifted regions never donate decisions; they are exactly the
ones whose pairs are suspect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.determinator import StripeDecision
from ..core.drt import DRT
from ..core.pipeline import MHAPipeline, MHAPlan
from ..core.placer import place_regions
from ..core.redirector import Redirector
from ..core.reorganizer import RegionPlan
from ..core.rst import RST
from ..exceptions import ConfigurationError
from ..layouts.base import Layout
from ..tracing.columnar import as_columnar_trace
from ..tracing.record import Trace
from .drift import DriftReport, plan_centroids, relative_distance

__all__ = ["ReplanOutcome", "IncrementalReplanner"]


@dataclass
class ReplanOutcome:
    """A candidate next plan plus what producing it cost."""

    plan: MHAPlan
    replanned_files: list[str]
    searched_regions: list[str] = field(default_factory=list)
    reused_regions: list[str] = field(default_factory=list)

    @property
    def migration_entries(self) -> list:
        """DRT entries the placement phase must copy — every extent of
        the rebuilt files (un-drifted files keep their bytes in place)."""
        entries = []
        for file in self.replanned_files:
            entries.extend(self.plan.drt.entries_for(file))
        return entries


def _check_reuse_tolerance(reuse_tolerance: float) -> None:
    """Raise :class:`ConfigurationError` unless ``reuse_tolerance`` is
    finite and >= 0 (0 disables reuse)."""
    if not 0 <= reuse_tolerance < math.inf:
        raise ConfigurationError(
            f"reuse_tolerance must be finite and >= 0, got {reuse_tolerance}"
        )


class IncrementalReplanner:
    """Builds candidate plans for the drifted subset of the namespace.

    Parameters
    ----------
    pipeline:
        The off-line pipeline whose parameters (grouping cap, RSSD
        step, bound policy, seed) the re-planner mirrors — a replan is
        the off-line optimization scoped down to the drifted files.
    reuse_tolerance:
        Centroid distance under which an un-drifted old region's
        decision is reused without a search; 0 disables reuse.
    """

    def __init__(self, pipeline: MHAPipeline, reuse_tolerance: float = 0.05) -> None:
        _check_reuse_tolerance(reuse_tolerance)
        self.pipeline = pipeline
        self.reuse_tolerance = reuse_tolerance

    def replan(
        self, window: Trace, old_plan: MHAPlan, report: DriftReport
    ) -> ReplanOutcome:
        """Rebuild the drifted files from the window trace.

        Files in ``report.drifted_files`` are re-grouped, re-reordered
        and re-searched from their window records; every other file of
        the old plan is carried over unchanged (same DRT entries, same
        layouts, same decisions), so the resulting plan can serve the
        whole namespace the old one did.
        """
        columns = as_columnar_trace(window)
        partition = columns.file_partition()
        drifted = [f for f in report.drifted_files if f in partition]
        drt = DRT()
        rst = RST()
        reorder_plans = dict(old_plan.reorder_plans)
        groupings = dict(old_plan.groupings)
        decisions: dict[str, StripeDecision] = {}
        original_layouts: dict[str, Layout] = dict(old_plan.original_layouts)

        # carry un-drifted files over verbatim
        carried_files = [f for f in old_plan.reorder_plans if f not in drifted]
        for file in carried_files:
            for entry in old_plan.drt.entries_for(file):
                drt.add(entry)
            for region in old_plan.reorder_plans[file].regions:
                if region.name in old_plan.rst:
                    rst.set(region.name, old_plan.rst.get(region.name))
                if region.name in old_plan.decisions:
                    decisions[region.name] = old_plan.decisions[region.name]

        # rebuild each drifted file from its window records
        old_centroids = plan_centroids(old_plan)
        undrifted_old = {
            name: center
            for name, center in old_centroids.items()
            if name not in report.drifted_regions
        }
        to_search: list[RegionPlan] = []
        reused: list[str] = []
        for file in drifted:
            sub = columns.take(partition[file]).sorted_by_offset()
            original_layouts.setdefault(
                file, self.pipeline._original_layout(file)
            )
            plan, grouping = self.pipeline.plan_file_columnar(file, sub, drt)
            reorder_plans[file] = plan
            groupings[file] = grouping
            for region in plan.regions:
                pair = self._reusable_pair(
                    old_plan, undrifted_old, grouping, region.group
                )
                if pair is not None:
                    rst.set(region.name, pair)
                    reused.append(region.name)
                else:
                    to_search.append(region)

        for region in to_search:
            decision = self.pipeline.search(region)
            decisions[region.name] = decision
            rst.set(region.name, decision.pair)

        region_layouts = place_regions(self.pipeline.spec, rst)
        redirector = Redirector(drt, region_layouts, original_layouts)
        plan = MHAPlan(
            drt=drt,
            rst=rst,
            region_layouts=region_layouts,
            original_layouts=original_layouts,
            redirector=redirector,
            reorder_plans=reorder_plans,
            groupings=groupings,
            decisions=decisions,
        )
        return ReplanOutcome(
            plan=plan,
            replanned_files=drifted,
            searched_regions=[region.name for region in to_search],
            reused_regions=reused,
        )

    def _reusable_pair(self, old_plan, undrifted_old, grouping, group):
        """An old decision to reuse for a new region, if its centroid
        matches an un-drifted old region's closely enough."""
        if self.reuse_tolerance <= 0 or not undrifted_old:
            return None
        center = grouping.centers[group]
        point = (float(center[0]), float(center[1]))
        best_name, best_distance = None, float("inf")
        for name, old_center in undrifted_old.items():
            distance = relative_distance(point, old_center)
            if distance < best_distance:
                best_name, best_distance = name, distance
        if best_name is not None and best_distance <= self.reuse_tolerance:
            if best_name in old_plan.rst:
                return old_plan.rst.get(best_name)
        return None

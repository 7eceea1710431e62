"""The five-phase MHA workflow (Fig. 6), end to end.

``trace -> [reordering] -> [determination] -> [placement] -> redirector``

:class:`MHAPipeline` is the off-line optimizer run between the
application's profiled first run and its subsequent runs: it consumes
the profiled trace and produces an :class:`MHAPlan` holding the DRT,
the RST, every region's layout and the runtime
:class:`~repro.core.redirector.Redirector`.

The whole workflow runs in the calling process.  A region's RSSD search
is too short to repay a worker process (on Fig. 7 and on a 12-region
plan, a pool per plan ran slower than the serial loop), so process
parallelism stays one level up: comparisons, the chaos experiment and
the tenancy service fan whole plans out through
:func:`repro.core.parallel.parallel_map`.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cluster import ClusterSpec
from ..config import DEFAULT_SAMPLE_SEED
from ..contracts import twin_of
from ..exceptions import ConfigurationError, KVStoreError
from ..layouts.base import Layout
from ..layouts.fixed import FixedStripeLayout
from ..numerics import unique_values
from ..tracing.analysis import burst_ids_of
from ..tracing.columnar import (
    ColumnarTrace,
    as_columnar_trace,
    burst_ids_columnar,
    collapse_by_last_group,
    identity_classes,
)
from ..tracing.record import Trace, TraceRecord
from ..units import KiB
from .determinator import (
    DEFAULT_STEP,
    StripeDecision,
    check_search_settings,
    determine_stripes,
)
from .drt import DRT, DRTEntry
from .features import extract_features, extract_features_columnar
from .grouping import DEFAULT_MAX_GROUPS, GroupingResult, group_requests, suggest_k
from .intervals import IntervalSet
from .params import CostModelParams
from .placer import place_regions
from .redirector import Redirector
from .reorganizer import RegionPlan, ReorderPlan, reorganize, reorganize_arrays
from .rst import RST

__all__ = [
    "MHAPlan",
    "MHAPipeline",
    "check_tables",
    "identity_redirector",
    "load_plan",
]

#: stripe size of the original (pre-optimization) file layout — the PFS
#: default the application was deployed with
DEFAULT_ORIGINAL_STRIPE = 64 * KiB


@dataclass
class MHAPlan:
    """Everything the off-line optimization produced."""

    drt: DRT
    rst: RST
    region_layouts: dict[str, Layout]
    original_layouts: dict[str, Layout]
    redirector: Redirector
    reorder_plans: dict[str, ReorderPlan] = field(default_factory=dict)
    groupings: dict[str, GroupingResult] = field(default_factory=dict)
    decisions: dict[str, StripeDecision] = field(default_factory=dict)

    @property
    def num_regions(self) -> int:
        return len(self.region_layouts)

    def migrated_bytes(self) -> int:
        """Bytes the placement phase copies into region files."""
        return sum(p.migrated_bytes for p in self.reorder_plans.values())

    def describe(self) -> str:
        """Human-readable plan summary (regions and stripe pairs)."""
        lines = [f"MHA plan: {self.num_regions} regions, {len(self.drt)} DRT entries"]
        for region, pair in self.rst:
            decision = self.decisions.get(region)
            cost = f", cost={decision.cost:.4f}s" if decision else ""
            lines.append(f"  {region}: stripes {pair}{cost}")
        return "\n".join(lines)


class MHAPipeline:
    """Off-line MHA optimizer for a cluster.

    Parameters
    ----------
    spec:
        The hybrid cluster being laid out.
    max_groups:
        §III-D cap on the number of groups per file (metadata bound).
    k:
        Explicit group count; by default inferred from the number of
        distinct feature patterns, clamped to ``max_groups``.
    step:
        RSSD stripe-search granularity (Algorithm 2; default 4 KB).
    gap:
        Phase-detection time gap for burst analysis (trace time
        units).
    bound_policy:
        ``"adaptive"`` (MHA) or ``"average"`` (HARL-style bounds, for
        ablation).
    original_stripe:
        Stripe size of the pre-existing file layout, used for unmapped
        fall-through extents.
    drt_path / rst_path:
        Optional persistence locations (Berkeley-DB stand-in files).
    max_eval_requests / seed:
        Cost-evaluation sampling bound and RNG seed (determinism).
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        max_groups: int = DEFAULT_MAX_GROUPS,
        k: int | None = None,
        step: int = DEFAULT_STEP,
        gap: float = 0.5,
        spatial: bool | int = True,
        bound_policy: str = "adaptive",
        original_stripe: int = DEFAULT_ORIGINAL_STRIPE,
        drt_path: str | Path | None = None,
        rst_path: str | Path | None = None,
        max_eval_requests: int = 4096,
        seed: int = DEFAULT_SAMPLE_SEED,
    ) -> None:
        if k is not None and k <= 0:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if max_groups < 1:
            raise ConfigurationError(f"max_groups must be >= 1, got {max_groups}")
        if not 0 < gap < math.inf:
            raise ConfigurationError(f"gap must be finite and > 0, got {gap}")
        if spatial < 0:
            raise ConfigurationError(f"spatial must be >= 0, got {spatial}")
        if original_stripe <= 0:
            raise ConfigurationError(
                f"original_stripe must be > 0, got {original_stripe}"
            )
        check_search_settings(
            step=step,
            bound_policy=bound_policy,
            max_eval_requests=max_eval_requests,
        )
        self.spec = spec
        self.params = CostModelParams.from_cluster(spec)
        self.max_groups = max_groups
        self.k = k
        self.step = step
        self.gap = gap
        self.spatial = spatial
        self.bound_policy = bound_policy
        self.original_stripe = original_stripe
        self.drt_path = drt_path
        self.rst_path = rst_path
        self.max_eval_requests = max_eval_requests
        self.seed = seed

    def _original_layout(self, file: str) -> Layout:
        return FixedStripeLayout(
            servers=self.spec.server_ids, stripe=self.original_stripe, obj=file
        )

    def search(self, region: RegionPlan) -> StripeDecision:
        """Algorithm 2 (RSSD) over one region's requests, with the
        pipeline's step, bound policy, sample bound and seed."""
        return determine_stripes(
            self.params,
            *region.request_arrays(),
            step=self.step,
            bound_policy=self.bound_policy,
            max_eval_requests=self.max_eval_requests,
            seed=self.seed,
        )

    def plan_file(
        self, file: str, sub: Trace, drt: DRT
    ) -> tuple[ReorderPlan, GroupingResult]:
        """Run grouping + reordering for one file (record reference).

        ``sub`` must be the offset-sorted single-file trace.  DRT
        entries for the file's regions are appended to ``drt``; each
        region of the returned plan is ready for :meth:`search`.
        Production runs the :meth:`plan_file_columnar` twin; this
        record-object version is its reference oracle.
        """
        features = extract_features(sub, gap=self.gap, spatial=self.spatial)
        distinct = unique_values(features.points, axis=0).shape[0] if len(sub) else 1
        k = self.k if self.k is not None else suggest_k(
            len(sub), distinct, self.max_groups
        )
        grouping = group_requests(features, k=k, seed=self.seed)
        # Per-group bursts: once migrated, a region only ever receives
        # its own group's requests, so the bursts that matter for its
        # stripe decision are the *same-group* requests issued
        # simultaneously.  (Schemes without grouping cannot make this
        # distinction — that sharper cost estimate is part of what
        # reordering buys.)
        bursts: dict[TraceRecord, int] = {}
        next_burst = 0
        for g in range(grouping.k):
            members = Trace(sub[int(i)] for i in grouping.members(g))
            ids = burst_ids_of(members, gap=self.gap, spatial=self.spatial)
            for record, local_id in ids.items():
                bursts[record] = next_burst + local_id
            next_burst += (max(ids.values()) + 1) if ids else 0
        plan = reorganize(sub, grouping, o_file=file, drt=drt, bursts=bursts)
        return plan, grouping

    @twin_of(
        "repro.core.pipeline:MHAPipeline.plan_file",
        kind="bit_identical",
        harness="plan_file_columnar",
    )
    def plan_file_columnar(
        self, file: str, sub: ColumnarTrace, drt: DRT
    ) -> tuple[ReorderPlan, GroupingResult]:
        """:meth:`plan_file` over a columnar trace — no record objects.

        Factored out of :meth:`plan` so the online re-planner
        (:mod:`repro.online.replanner`) can rebuild a single drifted
        file with exactly the off-line semantics.

        Identical outputs (plan and grouping): the feature
        matrix is the :func:`extract_features_columnar` twin's, the
        grouping runs the exact same array k-means, and the per-group
        burst assignment reproduces the reference's dict-update
        semantics — including the cross-group collapse a duplicate
        record triggers when later groups overwrite earlier ones
        (reachable in the ``n <= k`` one-request-per-group branch).
        """
        features = extract_features_columnar(sub, gap=self.gap, spatial=self.spatial)
        distinct = unique_values(features.points, axis=0).shape[0] if len(sub) else 1
        k = self.k if self.k is not None else suggest_k(
            len(sub), distinct, self.max_groups
        )
        grouping = group_requests(features, k=k, seed=self.seed)
        n = len(sub)
        burst_arr = np.full(n, -1, dtype=np.int64)
        next_burst = 0
        for g in range(grouping.k):
            member_indices = grouping.members(g)
            ids_g = burst_ids_columnar(
                sub.take(member_indices), gap=self.gap, spatial=self.spatial
            )
            burst_arr[member_indices] = next_burst + ids_g
            next_burst += int(ids_g.max()) + 1 if ids_g.size else 0
        inverse, n_classes = identity_classes(sub)
        if n_classes < n:
            # duplicate records spanning groups: the reference's dict
            # keeps the last group's value — collapse the same way
            burst_arr = collapse_by_last_group(
                burst_arr, grouping.labels, inverse, n_classes
            )
        plan = reorganize_arrays(sub, grouping, o_file=file, drt=drt, bursts=burst_arr)
        return plan, grouping

    def plan(self, trace: "Trace | ColumnarTrace") -> MHAPlan:
        """Run reordering + determination + placement over a trace.

        The trace is converted to columnar once and split by a
        single-pass file partition.  Every file is reorganized (which
        writes its DRT entries) before the first region is searched;
        the RST then receives each region's pair in file and region
        order.  After the last search, file-backed tables commit: the
        DRT, then the RST, each in one durable write stamped with the
        plan epoch, one past the newest epoch either file held.  When
        planning raises, both tables' files are closed.
        """
        with ExitStack() as opened:
            drt = opened.enter_context(DRT(self.drt_path) if self.drt_path else DRT())
            rst = opened.enter_context(RST(self.rst_path) if self.rst_path else RST())
            epoch = 1 + max(drt.epoch, rst.epoch)
            reorder_plans: dict[str, ReorderPlan] = {}
            groupings: dict[str, GroupingResult] = {}
            decisions: dict[str, StripeDecision] = {}
            original_layouts: dict[str, Layout] = {}

            columns = as_columnar_trace(trace)
            for file, indices in columns.file_partition().items():
                sub = columns.take(indices).sorted_by_offset()
                original_layouts[file] = self._original_layout(file)
                reorder_plans[file], groupings[file] = self.plan_file_columnar(
                    file, sub, drt
                )

            for reorder_plan in reorder_plans.values():
                for region in reorder_plan.regions:
                    decision = self.search(region)
                    decisions[region.name] = decision
                    rst.set(region.name, decision.pair)
            drt.commit(epoch)
            rst.commit(epoch)

            region_layouts = place_regions(self.spec, rst)
            redirector = Redirector(drt, region_layouts, original_layouts)
            opened.pop_all()
        return MHAPlan(
            drt=drt,
            rst=rst,
            region_layouts=region_layouts,
            original_layouts=original_layouts,
            redirector=redirector,
            reorder_plans=reorder_plans,
            groupings=groupings,
            decisions=decisions,
        )


def load_plan(
    spec: ClusterSpec,
    drt_path: str | Path,
    rst_path: str | Path,
    original_stripe: int = DEFAULT_ORIGINAL_STRIPE,
) -> MHAPlan:
    """Restore a runtime-ready plan from persisted metadata tables.

    This is the application's *subsequent run* in the paper's workflow:
    no trace, no optimization — just load the DRT and RST files the
    off-line pipeline wrote, rebuild each region's layout from its
    stripe pair, and hand back a working redirector.  The analysis
    artifacts (groupings, reorder plans, decisions) are not persisted
    and come back empty.

    Raises :class:`~repro.exceptions.KVStoreError` unless both files
    carry the same non-zero plan epoch (a file with no committed plan,
    a crash between the DRT's commit and the RST's, and tables stamped
    by two different plans fail this) and the tables pass
    :func:`check_tables`.
    """
    with ExitStack() as opened:
        drt = opened.enter_context(DRT(drt_path))
        rst = opened.enter_context(RST(rst_path))
        if drt.epoch == 0 or drt.epoch != rst.epoch:
            raise KVStoreError(
                f"no plan committed to both {drt_path} and {rst_path} "
                f"(DRT epoch {drt.epoch}, RST epoch {rst.epoch})"
            )
        check_tables(drt, rst)
        region_layouts = place_regions(spec, rst)
        original_layouts: dict[str, Layout] = {
            file: FixedStripeLayout(
                servers=spec.server_ids, stripe=original_stripe, obj=file
            )
            for file in drt.files()
        }
        redirector = Redirector(drt, region_layouts, original_layouts)
        opened.pop_all()
    return MHAPlan(
        drt=drt,
        rst=rst,
        region_layouts=region_layouts,
        original_layouts=original_layouts,
        redirector=redirector,
    )


def check_tables(drt: DRT, rst: RST) -> None:
    """Raise :class:`~repro.exceptions.KVStoreError` unless the tables
    hold one consistent plan: every region the DRT targets is packed
    (:meth:`DRT.packed_regions`), and the DRT targets exactly the
    regions the RST lists.  The DRT itself rejects overlapping entries.
    """
    targeted = drt.packed_regions()
    listed = {region for region, _ in rst}
    if targeted - listed:
        raise KVStoreError(
            f"regions {sorted(targeted - listed)} have DRT entries but no RST pair"
        )
    if listed - targeted:
        raise KVStoreError(
            f"RST lists regions {sorted(listed - targeted)} that no DRT entry targets"
        )


def identity_redirector(
    spec: ClusterSpec,
    trace: Trace,
    stripe: int = DEFAULT_ORIGINAL_STRIPE,
) -> Redirector:
    """A redirector whose DRT maps every accessed extent back to the
    original file at the same offset.

    This is the paper's Fig. 14 instrument: "We intentionally do not
    make data reordering so that I/O requests are redirected to the
    original I/O system" — the redirection machinery runs at full cost
    while the data placement is unchanged, isolating the lookup
    overhead.
    """
    drt = DRT()
    layouts: dict[str, Layout] = {}
    claimed: dict[str, IntervalSet] = {}
    for record in trace.sorted_by_offset():
        layouts.setdefault(
            record.file,
            FixedStripeLayout(spec.server_ids, stripe, obj=record.file),
        )
        spans = claimed.setdefault(record.file, IntervalSet())
        for start, end in spans.add(record.offset, record.end):
            drt.add(
                DRTEntry(
                    o_file=record.file,
                    o_offset=start,
                    length=end - start,
                    r_file=record.file,
                    r_offset=start,
                )
            )
    # region layouts == original layouts: data did not move
    return Redirector(drt, dict(layouts), dict(layouts))

"""The cost/benefit gate: is this relayout worth its migration?

Wan et al. (SC 2021) frame online reorganization as an admission
problem: a new layout only pays if the I/O time it saves over its
remaining lifetime exceeds the one-off cost of moving the bytes.  The
gate evaluates both sides with the machinery the optimizer itself
uses:

* **benefit** — the Eq. 2 cost model
  (:func:`repro.core.cost_model.request_costs`) prices every window
  request twice, once mapped through the old plan and once through the
  candidate plan; the difference is the modelled I/O time saved per
  window of traffic, extrapolated over a configurable ``horizon`` of
  future traffic (assuming the window's pattern persists — exactly the
  stationarity bet the off-line pipeline makes);
* **cost** — :func:`repro.core.placer.estimate_migration_time` gives a
  closed-form estimate (not a bound: it can fall well short of a
  simulated copy) of the background copy of every extent the replan
  wants to move.

A relayout is admitted when ``benefit(horizon) > safety ×
migration_time``.  Rejections are cheap by design: the drift detector
only sends a candidate here after re-planning, and a rejected
candidate leaves the active plan untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster import ClusterSpec
from ..core.cost_model import request_costs
from ..core.drt import DRTEntry
from ..core.params import CostModelParams
from ..core.pipeline import DEFAULT_ORIGINAL_STRIPE, MHAPlan
from ..core.placer import estimate_migration_time
from ..exceptions import ConfigurationError
from ..tracing.analysis import concurrency_of
from ..tracing.record import Trace

__all__ = ["GateDecision", "CostBenefitGate", "modelled_trace_cost"]


def modelled_trace_cost(
    params: CostModelParams,
    plan: MHAPlan,
    trace: Trace,
    *,
    gap: float = 0.5,
    spatial: bool | int = True,
    original_stripe: int = DEFAULT_ORIGINAL_STRIPE,
) -> float:
    """Eq. 2 cost of serving ``trace`` through ``plan``, in seconds.

    Each record is translated through the plan's DRT; every fragment is
    priced at its region's ``<h, s>`` pair (fall-through extents at the
    original uniform stripe, i.e. ``<orig, orig>``), with the record's
    burst concurrency.  Fragments are batched per stripe pair so the
    whole window costs a handful of vectorized evaluations.
    """
    conc = concurrency_of(trace, gap=gap, spatial=spatial)
    by_pair: dict[tuple[int, int], list[tuple[int, int, bool, int]]] = {}
    for record in trace:
        c = conc.get(record, 1)
        for extent in plan.drt.translate(record.file, record.offset, record.size):
            if extent.mapped:
                pair = plan.rst.get(extent.file)
                h, s = pair.h, pair.s
            else:
                h, s = original_stripe, original_stripe
            by_pair.setdefault((h, s), []).append(
                (extent.offset, extent.length, record.op == "read", c)
            )
    total = 0.0
    for (h, s), rows in by_pair.items():
        offsets = np.array([r[0] for r in rows], dtype=np.int64)
        lengths = np.array([r[1] for r in rows], dtype=np.int64)
        is_read = np.array([r[2] for r in rows], dtype=bool)
        concurrency = np.array([r[3] for r in rows], dtype=np.int64)
        total += float(
            request_costs(params, offsets, lengths, is_read, concurrency, h, s).sum()
        )
    return total


@dataclass(frozen=True)
class GateDecision:
    """One admission verdict, with the numbers behind it."""

    admitted: bool
    old_cost: float
    new_cost: float
    migration_time: float
    horizon: float
    window_span: float
    bytes_to_move: int

    @property
    def benefit_per_window(self) -> float:
        """Modelled seconds saved per window of traffic."""
        return self.old_cost - self.new_cost

    @property
    def projected_benefit(self) -> float:
        """Benefit extrapolated over the horizon."""
        if self.window_span <= 0:
            return self.benefit_per_window
        return self.benefit_per_window * (self.horizon / self.window_span)

    def __str__(self) -> str:
        verdict = "ADMIT" if self.admitted else "REJECT"
        return (
            f"{verdict}: saves {self.benefit_per_window:.4f}s/window "
            f"(projected {self.projected_benefit:.2f}s over {self.horizon:.0f}s) "
            f"vs migration {self.migration_time:.2f}s "
            f"for {self.bytes_to_move} bytes"
        )


def _check_gate_settings(horizon: float, safety: float) -> None:
    """Raise :class:`ConfigurationError` unless ``horizon`` and
    ``safety`` are finite and > 0."""
    for name, value in (("horizon", horizon), ("safety", safety)):
        if not 0 < value < math.inf:
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")


class CostBenefitGate:
    """Admits a candidate plan only when projected payback beats cost.

    Parameters
    ----------
    spec:
        The cluster (for cost-model parameters and migration estimate).
    horizon:
        Seconds of future traffic the benefit is credited over — the
        relayout's assumed remaining lifetime.
    safety:
        Multiplier on the migration estimate; >1 demands the payback
        clear the cost with margin.
    gap / spatial / original_stripe:
        Forwarded to :func:`modelled_trace_cost`; match the planning
        pipeline's settings.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        horizon: float = 600.0,
        safety: float = 1.0,
        *,
        gap: float = 0.5,
        spatial: bool | int = True,
        original_stripe: int = DEFAULT_ORIGINAL_STRIPE,
    ) -> None:
        _check_gate_settings(horizon, safety)
        self.spec = spec
        self.params = CostModelParams.from_cluster(spec)
        self.horizon = horizon
        self.safety = safety
        self.gap = gap
        self.spatial = spatial
        self.original_stripe = original_stripe

    def evaluate(
        self,
        old_plan: MHAPlan,
        new_plan: MHAPlan,
        window: Trace,
        migration_entries: Sequence[DRTEntry],
    ) -> GateDecision:
        """Price the candidate against the incumbent on the window."""
        old_cost = modelled_trace_cost(
            self.params,
            old_plan,
            window,
            gap=self.gap,
            spatial=self.spatial,
            original_stripe=self.original_stripe,
        )
        new_cost = modelled_trace_cost(
            self.params,
            new_plan,
            window,
            gap=self.gap,
            spatial=self.spatial,
            original_stripe=self.original_stripe,
        )
        migration_time = estimate_migration_time(self.spec, migration_entries)
        bytes_to_move = sum(entry.length for entry in migration_entries)

        span = _window_span(window)
        benefit = old_cost - new_cost
        projected = benefit * (self.horizon / span) if span > 0 else benefit
        admitted = benefit > 0 and projected > self.safety * migration_time
        return GateDecision(
            admitted=admitted,
            old_cost=old_cost,
            new_cost=new_cost,
            migration_time=migration_time,
            horizon=self.horizon,
            window_span=span,
            bytes_to_move=bytes_to_move,
        )


def _window_span(window: Trace) -> float:
    """Wall span of the window's timestamps (0 for < 2 records)."""
    if len(window) < 2:
        return 0.0
    times = [r.timestamp for r in window]
    return max(times) - min(times)

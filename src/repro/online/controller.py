"""The closed-loop relayout controller.

Ties the subsystem together into the control loop the paper's future
work sketches and Wan et al. (SC 2021) motivate::

        live records
             |
             v
    +-----------------+     drift      +---------------------+
    | StreamingSketch | -------------> |    DriftDetector    |
    +-----------------+                +----------+----------+
             ^                                    | drifted files
             | reset on commit                    v
             |                         +---------------------+
    +-----------------+    reject      | IncrementalReplanner|
    | active MHAPlan  | <-----------+  +----------+----------+
    +-----------------+             |             | candidate plan
             ^                      |             v
             | commit (epoch swap)  +--[ CostBenefitGate ]
             |                                    | admit
    +-----------------------+                     v
    | LiveMigrationScheduler| <-------------------+
    +-----------------------+

The controller itself is I/O-free: :meth:`observe` consumes records
and, when a relayout clears the gate, returns a :class:`RelayoutAction`
describing *what* to migrate.  Callers decide *how*: the live runner
(:func:`repro.online.experiment.run_online`) hands the action to a
:class:`~repro.online.migrator.LiveMigrationScheduler` on its
simulator; unit tests can call :meth:`commit` directly for an
instantaneous (stop-the-world) swap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.pipeline import MHAPipeline, MHAPlan
from ..exceptions import ConfigurationError
from ..tracing.record import Trace, TraceRecord
from .drift import DriftDetector, DriftReport, _check_detector_settings
from .gate import CostBenefitGate, GateDecision, _check_gate_settings
from .replanner import IncrementalReplanner, ReplanOutcome, _check_reuse_tolerance
from .sketch import StreamingSketch

__all__ = ["ControllerConfig", "RelayoutAction", "RelayoutController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the control loop."""

    #: sliding window of recent records re-planning draws from
    window: int = 1024
    #: run a drift check every this many observed records
    check_interval: int = 256
    #: relative feature distance flagging a region as drifted
    drift_threshold: float = 0.5
    #: minimum windowed samples before a region can be flagged
    min_samples: int = 8
    #: per-file unmapped byte fraction flagging the whole file
    unmapped_threshold: float = 0.25
    #: seconds of future traffic the gate credits a relayout with
    horizon: float = 600.0
    #: safety multiplier on the migration estimate
    safety: float = 1.0
    #: centroid distance under which an old decision is reused unsearched
    reuse_tolerance: float = 0.05
    #: observed records to skip after a commit before checking again
    cooldown: int = 0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if self.check_interval <= 0:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {self.check_interval}"
            )
        if self.cooldown < 0:
            raise ConfigurationError(f"cooldown must be >= 0, got {self.cooldown}")
        # the settings handed on, through the checks their users run
        _check_detector_settings(
            self.drift_threshold, self.min_samples, self.unmapped_threshold
        )
        _check_gate_settings(self.horizon, self.safety)
        _check_reuse_tolerance(self.reuse_tolerance)


@dataclass
class RelayoutAction:
    """An admitted relayout, ready for a migration scheduler."""

    outcome: ReplanOutcome
    decision: GateDecision
    drift: DriftReport

    @property
    def plan(self) -> MHAPlan:
        return self.outcome.plan

    @property
    def migration_entries(self) -> list:
        return self.outcome.migration_entries


class RelayoutController:
    """Drift-aware re-planning over a stream of live records.

    Parameters
    ----------
    pipeline:
        The off-line pipeline supplying parameters (and machinery) for
        re-planning.
    plan:
        The initially active plan (from the profiled first run).
    config:
        Control-loop knobs.
    """

    def __init__(
        self,
        pipeline: MHAPipeline,
        plan: MHAPlan,
        config: ControllerConfig | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.config = config or ControllerConfig()
        self.active_plan = plan
        cfg = self.config
        self.sketch = StreamingSketch(
            window=cfg.window, gap=pipeline.gap, spatial=pipeline.spatial
        )
        self.detector = DriftDetector(
            threshold=cfg.drift_threshold,
            min_samples=cfg.min_samples,
            unmapped_threshold=cfg.unmapped_threshold,
        )
        self.replanner = IncrementalReplanner(
            pipeline, reuse_tolerance=cfg.reuse_tolerance
        )
        self.gate = CostBenefitGate(
            pipeline.spec,
            horizon=cfg.horizon,
            safety=cfg.safety,
            gap=pipeline.gap,
            spatial=pipeline.spatial,
            original_stripe=pipeline.original_stripe,
        )
        self._window: deque[TraceRecord] = deque(maxlen=cfg.window)
        self._since_check = 0
        self._cooldown_left = 0
        #: a relayout currently executing (set by the caller via
        #: :meth:`observe`'s return / cleared in :meth:`commit`)
        self.in_flight: RelayoutAction | None = None
        # -- counters / logs
        self.drift_checks = 0
        self.replans_admitted = 0
        self.replans_rejected = 0
        self.decisions: list[GateDecision] = []
        self.reports: list[DriftReport] = []

    # -- the loop --------------------------------------------------------

    def observe(self, record: TraceRecord) -> RelayoutAction | None:
        """Feed one live record; returns an action when one is admitted.

        A returned action is marked in-flight: the caller either runs
        its migration and calls :meth:`commit` when the epoch swap
        completes, or calls :meth:`abort` to discard it.  No further
        relayout is considered while one is in flight.
        """
        self._window.append(record)
        self.sketch.observe(record, self.active_plan)
        self._since_check += 1
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return None
        if self.in_flight is not None:
            return None
        if self._since_check < self.config.check_interval:
            return None
        self._since_check = 0
        return self._check()

    def _check(self) -> RelayoutAction | None:
        self.drift_checks += 1
        # read a snapshot: a check mid-burst must not fragment the burst
        # it interrupts (partial bursts read as low concurrency)
        snapshot = self.sketch.snapshot(self.active_plan)
        report = self.detector.check(snapshot, self.active_plan)
        self.reports.append(report)
        if not report.drifted:
            return None
        window = Trace(self._window)
        outcome = self.replanner.replan(window, self.active_plan, report)
        decision = self.gate.evaluate(
            self.active_plan, outcome.plan, window, outcome.migration_entries
        )
        self.decisions.append(decision)
        if not decision.admitted:
            self.replans_rejected += 1
            return None
        self.replans_admitted += 1
        action = RelayoutAction(outcome=outcome, decision=decision, drift=report)
        self.in_flight = action
        return action

    # -- lifecycle -------------------------------------------------------

    def commit(self, action: RelayoutAction) -> None:
        """The action's migration completed: its plan is now active.

        Resets the sketch (the new regions must be judged on their own
        traffic) and starts the configured cooldown.
        """
        if action is not self.in_flight:
            raise ConfigurationError("commit of an action that is not in flight")
        self.active_plan = action.plan
        self.in_flight = None
        self.sketch.reset()
        self._cooldown_left = self.config.cooldown
        self._since_check = 0

    def abort(self, action: RelayoutAction) -> None:
        """Discard an in-flight action without activating its plan."""
        if action is not self.in_flight:
            raise ConfigurationError("abort of an action that is not in flight")
        self.in_flight = None

"""Online experiments: live replay with the controller in the loop.

:func:`run_online` replays a trace on the simulated cluster while the
relayout controller watches every record; admitted relayouts execute as
background migrations on the *same* simulator, so foreground requests
and migration I/O contend for the same servers — the measurement the
off-line experiments cannot make.

:func:`phase_shift_experiment` is the canonical scenario: an
application is profiled and laid out for a checkpoint pattern, then its
access pattern shifts to an IOR-style mixed-size pattern over the same
file.  The live stream replays the new pattern twice: the first pass
fills the controller's window and trips the drift detector, the second
pass is served *while* the admitted relayout migrates underneath it.
The report compares against two offline anchors — the same traffic with
no adaptation, and a stop-the-world re-migration — and checks that the
post-swap mapping is byte-identical to an off-line MHA plan built
directly on the second phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..cluster import ClusterSpec
from ..core.pipeline import MHAPipeline
from ..exceptions import ConfigurationError
from ..pfs.replay import RunMetrics, replay_trace
from ..pfs.system import HybridPFS
from ..tracing.record import Trace
from ..units import KiB, MiB
from ..workloads.base import PHASE_GAP
from ..workloads.checkpoint import CheckpointWorkload
from ..workloads.ior import IORWorkload
from .controller import ControllerConfig, RelayoutController
from .gate import GateDecision
from .migrator import EpochRedirector, LiveMigrationScheduler, MigrationReport

__all__ = ["OnlineRunReport", "run_online", "phase_shift_experiment"]


@dataclass
class OnlineRunReport:
    """Everything one online run measured."""

    foreground: RunMetrics
    total_makespan: float
    migrations: list[MigrationReport] = field(default_factory=list)
    drift_checks: int = 0
    replans_admitted: int = 0
    replans_rejected: int = 0
    decisions: list[GateDecision] = field(default_factory=list)
    #: foreground makespan of the same trace under the initial plan
    #: with no adaptation (0 when not measured)
    baseline_makespan: float = 0.0
    #: pause-the-application alternative: first-pass replay + exclusive
    #: migration + second-pass replay, end to end (0 when not measured)
    stop_the_world_makespan: float = 0.0
    #: fraction of checked records whose post-swap mapping matched the
    #: offline plan (1.0 == byte-identical; -1 when not checked)
    offline_match_fraction: float = -1.0

    @property
    def bytes_moved(self) -> int:
        return sum(m.bytes_moved for m in self.migrations)

    @property
    def foreground_slowdown(self) -> float:
        """Foreground makespan over the no-adaptation baseline."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.foreground.makespan / self.baseline_makespan

    def describe(self) -> str:
        lines = [
            "online relayout run:",
            f"  foreground makespan  {self.foreground.makespan:.4f}s"
            + (
                f"  ({self.foreground_slowdown:.2f}x of no-migration baseline)"
                if self.baseline_makespan > 0
                else ""
            ),
            f"  total makespan       {self.total_makespan:.4f}s",
            f"  drift checks         {self.drift_checks}",
            f"  replans              {self.replans_admitted} admitted, "
            f"{self.replans_rejected} rejected",
            f"  bytes moved          {self.bytes_moved}",
        ]
        if self.stop_the_world_makespan > 0:
            lines.append(
                f"  stop-the-world       {self.stop_the_world_makespan:.4f}s "
                f"(live is {self.total_makespan / self.stop_the_world_makespan:.2f}x)"
            )
        if self.offline_match_fraction >= 0:
            lines.append(
                f"  post-swap vs offline {self.offline_match_fraction:.0%} identical"
            )
        for decision in self.decisions:
            lines.append(f"  gate: {decision}")
        return "\n".join(lines)


def run_online(
    spec: ClusterSpec,
    controller: RelayoutController,
    trace: Trace,
    *,
    throttle: float | None = None,
    keep_latencies: bool = False,
    barrier_gap: float | None = None,
) -> tuple[OnlineRunReport, EpochRedirector]:
    """Replay ``trace`` live through the controller's epoch view.

    Foreground ranks replay on a fresh simulated cluster; every record
    passes through :meth:`RelayoutController.observe` at its issue
    time, and each admitted action immediately starts a throttled
    background migration on the same cluster.  The epoch view flips
    per region as copies complete and the controller commits when the
    epoch does.  Returns the report and the (post-run) epoch view.

    ``barrier_gap`` (see :func:`repro.pfs.replay.replay_trace`) makes
    the replay collective: ranks synchronize at trace phase
    boundaries, so the controller observes whole phases instead of a
    rank-skewed interleaving — required when a drift check's window
    must line up with a phase of the workload.
    """
    pfs = HybridPFS(spec)
    epoch = EpochRedirector(controller.active_plan)
    migrations: list[MigrationReport] = []

    def on_record(record) -> None:
        action = controller.observe(record)
        if action is None:
            return
        scheduler = LiveMigrationScheduler(pfs, epoch, throttle=throttle)

        def on_commit(report, action=action) -> None:
            controller.commit(action)
            migrations.append(report)

        scheduler.on_commit = on_commit
        scheduler.start(action.plan, action.migration_entries)

    metrics = replay_trace(
        pfs,
        epoch,
        trace,
        keep_latencies=keep_latencies,
        on_record=on_record,
        barrier_gap=barrier_gap,
    )
    report = OnlineRunReport(
        foreground=metrics,
        total_makespan=pfs.sim.now,
        migrations=migrations,
        drift_checks=controller.drift_checks,
        replans_admitted=controller.replans_admitted,
        replans_rejected=controller.replans_rejected,
        decisions=list(controller.decisions),
    )
    return report, epoch


def phase_shift_experiment(
    spec: ClusterSpec | None = None,
    *,
    file: str = "app.dat",
    checkpoint_processes: int = 4,
    checkpoints: int = 4,
    payload_size: int = 256 * KiB,
    ior_processes: int = 8,
    ior_sizes: tuple[int, ...] = (16 * KiB, 64 * KiB),
    ior_total: int = 4 * MiB,
    passes: int = 3,
    throttle: float | None = None,
    horizon: float = 3600.0,
    drift_threshold: float = 0.5,
    seed: int = 1,
) -> OnlineRunReport:
    """Checkpoint -> IOR phase change served by the online controller.

    The profile run is a checkpoint/restart pattern; the layout MHA
    builds for it then faces a mixed-size IOR pattern over the same
    byte range, replayed twice.  Reports foreground slowdown during
    migration, admitted/rejected replans, bytes moved, the
    stop-the-world comparison, and the byte-identity of the post-swap
    mapping against an off-line plan of the new phase.

    The default ``seed`` picks a phase-B slot shuffle whose drifted
    pattern genuinely profits from a relayout, so the canonical run
    demonstrates an admitted replan end to end (some shuffles of the
    same byte volume are already served well by the checkpoint layout,
    and the gate correctly rejects those — ``seed=0`` under the
    ``repro.determinism`` streams is one).
    """
    if passes < 2:
        raise ConfigurationError(f"passes must be >= 2, got {passes}")
    spec = spec or ClusterSpec()
    pipeline = MHAPipeline(spec, seed=seed)

    # Phase A: profile + initial layout (the paper's off-line workflow).
    phase_a = CheckpointWorkload(
        num_processes=checkpoint_processes,
        checkpoints=checkpoints,
        payload_size=payload_size,
        file=file,
    ).trace()
    initial_plan = pipeline.plan(phase_a)

    # Phase B: the shifted pattern, replayed ``passes`` times over the
    # same file (pass 1 trips the detector, the rest run over/after the
    # migration).
    phase_b = IORWorkload(
        num_processes=ior_processes,
        request_sizes=list(ior_sizes),
        total_size=ior_total,
        seed=seed,
        file=file,
    ).trace("write")
    span = max(r.timestamp for r in phase_b) + PHASE_GAP
    later_passes = Trace(
        replace(r, timestamp=r.timestamp + i * span)
        for i in range(1, passes)
        for r in phase_b
    )
    live = Trace(list(phase_b) + list(later_passes))

    config = ControllerConfig(
        window=len(phase_b),
        check_interval=len(phase_b),
        drift_threshold=drift_threshold,
        horizon=horizon,
        # exact re-searches so the post-swap mapping is bit-comparable
        # to the off-line plan of the same records
        reuse_tolerance=0.0,
    )
    controller = RelayoutController(pipeline, initial_plan, config)
    # Collective replay: ranks barrier at workload phase boundaries, so
    # the drift check at the end of pass 1 sees exactly pass 1.
    barrier_gap = PHASE_GAP / 2
    report, epoch = run_online(
        spec, controller, live, throttle=throttle, barrier_gap=barrier_gap
    )

    # Anchor 1: the same live stream under the initial plan, untouched.
    report.baseline_makespan = replay_trace(
        HybridPFS(spec), initial_plan.redirector, live, barrier_gap=barrier_gap
    ).makespan

    # Anchor 2: stop the world — serve pass 1 on the old plan, migrate
    # with the cluster otherwise idle, then serve pass 2 on the new plan.
    offline_plan = MHAPipeline(spec, seed=seed).plan(phase_b)
    stw = HybridPFS(spec)
    first = replay_trace(
        stw, initial_plan.redirector, phase_b, barrier_gap=barrier_gap
    )
    stw_epoch = EpochRedirector(initial_plan)
    migrator = LiveMigrationScheduler(stw, stw_epoch, throttle=throttle)
    entries = [
        e
        for f in offline_plan.reorder_plans
        for e in offline_plan.drt.entries_for(f)
    ]
    migrator.start(offline_plan, entries)
    stw.sim.run()
    migration_span = migrator.report.makespan
    second = replay_trace(
        stw, offline_plan.redirector, later_passes, barrier_gap=barrier_gap
    )
    report.stop_the_world_makespan = first.makespan + migration_span + second.makespan

    # Byte-identity: the committed mapping vs the off-line plan.
    if report.replans_admitted:
        matches = sum(
            epoch.map_request(r.file, r.offset, r.size)
            == offline_plan.redirector.map_request(r.file, r.offset, r.size)
            for r in phase_b
        )
        report.offline_match_fraction = matches / len(phase_b)
    return report

"""Chaos harness: seeded fault sweeps with tail-latency reporting.

The paper evaluates layouts on healthy clusters; the straggler
literature's obvious follow-up question is how each layout behaves when
servers degrade.  :func:`chaos_experiment` answers it systematically:
sweep a **fault intensity** knob across a set of seeded fault models
(:mod:`repro.faults`), replay the same workload under every scheme at
every intensity, and tabulate aggregate bandwidth plus the
p50/p95/p99/p999 request-latency tail — per scheme, per intensity, and
per server at the harshest intensity.

Everything is deterministic: the fault plan compiles from a named seed,
the replay engines are deterministic, and the report serializes floats
at full precision — so :meth:`ChaosReport.digest` is a stable hash of
the *entire* result surface.  CI's ``chaos-smoke`` job runs the sweep
twice and compares digests, which pins scheme behaviour under faults
exactly (any nondeterminism, engine divergence, or silent numeric drift
flips the hash).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Collection, Mapping

import numpy as np

from ..cluster import ClusterSpec
from ..config import DEFAULT_FAULT_SEED
from ..devices.base import READ, WRITE
from ..exceptions import ConfigurationError
from ..faults import (
    BackgroundScrub,
    FaultModel,
    FaultPlan,
    ServerOutage,
    TransientSlowdown,
    WriteCliff,
)
from ..tracing.columnar import OP_NAMES
from ..tracing.record import Trace
from ..units import KiB, MiB
from ..workloads.base import phase_trace
from .experiment import Comparison, compare_schemes
from .report import (
    TAIL_QUANTILES,
    FigureResult,
    bandwidth_mib,
    latency_ms,
    quantile_label,
    to_csv,
)

__all__ = [
    "CHAOS_MODEL_NAMES",
    "CHAOS_SCHEMES",
    "ChaosReport",
    "DEFAULT_CHAOS_INTENSITIES",
    "chaos_experiment",
    "chaos_fault_plan",
    "chaos_trace",
]

#: scheme line-up of the chaos sweep: the paper's bookends plus the
#: straggler-aware dispatcher alone and composed with MHA
CHAOS_SCHEMES: tuple[str, ...] = ("DEF", "MHA", "SAW", "MHA+SAW")

#: fault-model names :func:`chaos_fault_plan` understands
CHAOS_MODEL_NAMES: tuple[str, ...] = ("slowdown", "scrub", "outage", "write_cliff")

#: default sweep: healthy baseline, moderate, harsh
DEFAULT_CHAOS_INTENSITIES: tuple[float, ...] = (0.0, 0.5, 1.0)


def chaos_trace(
    processes: int = 8,
    request_size: int = 256 * KiB,
    phases: int = 12,
    file: str = "chaos.dat",
) -> Trace:
    """The chaos workload: write-then-re-read slabs of a shared file.

    Phase ``2k`` has every rank write one ``request_size`` slot of slab
    ``k``; phase ``2k+1`` reads the same slots back.  Re-reading what
    was just written is deliberate: a dispatcher that redirected writes
    away from a straggler also serves the subsequent reads from the
    healthy replica, so the pattern exercises both halves of the
    straggler-aware policy (pure-write or pure-read workloads each
    exercise only one).
    """
    if phases < 1:
        raise ConfigurationError(f"phases must be >= 1, got {phases}")
    ranks = np.tile(np.arange(processes), phases)
    phase = np.repeat(np.arange(phases), processes)
    offsets = ((phase // 2) * processes + ranks) * request_size
    ops = np.where(phase % 2 == 0, OP_NAMES.index(WRITE), OP_NAMES.index(READ))
    sizes = np.full(phase.size, request_size)
    return phase_trace(phase, ranks, offsets, sizes, ops, file).to_trace()


def chaos_fault_plan(
    spec: ClusterSpec,
    intensity: float,
    *,
    seed: int = DEFAULT_FAULT_SEED,
    models: tuple[str, ...] = ("slowdown", "scrub"),
    horizon: float = 30.0,
) -> FaultPlan:
    """Compile-ready fault plan for one intensity of the sweep.

    ``intensity`` in ``[0, 1]`` scales every model's severity (slowdown
    factors, scrub duty, outage/rebuild lengths, cliff capacity);
    ``0`` yields an empty plan — the healthy baseline row.  ``models``
    names which mechanisms to include (:data:`CHAOS_MODEL_NAMES`);
    device-dilation models land on successive HDD servers, the write
    cliff on successive SSD servers (where the mechanism physically
    lives).  The same ``(seed, models, intensity)`` triple always
    yields the same plan.
    """
    if not 0 <= intensity <= 1:
        raise ConfigurationError(f"intensity must be in [0, 1], got {intensity}")
    if intensity == 0:
        return FaultPlan(faults=(), seed=seed)
    hdd = list(spec.hserver_ids) or list(spec.server_ids)
    ssd = list(spec.sserver_ids) or hdd
    faults: list[FaultModel] = []
    hdd_cursor = 0
    ssd_cursor = 0
    for name in models:
        if name == "slowdown":
            faults.append(
                TransientSlowdown(
                    server=hdd[hdd_cursor % len(hdd)],
                    factor=1.0 + 4.0 * intensity,
                    windows=4,
                    mean_duration=0.5 + 2.5 * intensity,
                    horizon=horizon,
                )
            )
            hdd_cursor += 1
        elif name == "scrub":
            faults.append(
                BackgroundScrub(
                    server=hdd[hdd_cursor % len(hdd)],
                    period=8.0,
                    duty=min(6.0, 0.5 + 4.0 * intensity),
                    factor=1.0 + 2.0 * intensity,
                )
            )
            hdd_cursor += 1
        elif name == "outage":
            faults.append(
                ServerOutage(
                    server=hdd[hdd_cursor % len(hdd)],
                    at=0.25,
                    duration=0.5 + 1.5 * intensity,
                    rebuild_duration=1.0 + 3.0 * intensity,
                    rebuild_factor=1.0 + 2.0 * intensity,
                )
            )
            hdd_cursor += 1
        elif name == "write_cliff":
            faults.append(
                WriteCliff(
                    server=ssd[ssd_cursor % len(ssd)],
                    capacity_bytes=max(int((1.25 - intensity) * 8 * MiB), 64 * KiB),
                    factor=1.0 + 3.0 * intensity,
                    recovery_idle=0.5,
                )
            )
            ssd_cursor += 1
        else:
            raise ConfigurationError(
                f"unknown chaos model {name!r}; choose from {CHAOS_MODEL_NAMES}"
            )
    return FaultPlan(faults=tuple(faults), seed=seed)


@dataclass
class ChaosReport:
    """The full result surface of one chaos sweep."""

    label: str
    intensities: tuple[float, ...]
    schemes: tuple[str, ...]
    figures: list[FigureResult] = field(default_factory=list)
    #: intensity row label -> paired scheme results at that intensity
    comparisons: dict[str, Comparison] = field(default_factory=dict)

    def describe(self) -> str:
        return "\n\n".join(str(figure) for figure in self.figures)

    def digest(self) -> str:
        """SHA-256 over the full-precision CSV of every figure.

        Two runs of the same sweep must produce the same hex digest —
        the determinism contract CI's ``chaos-smoke`` job enforces.
        """
        hasher = hashlib.sha256()
        for figure in self.figures:
            hasher.update(f"{figure.figure}|{figure.title}|{figure.unit}\n".encode())
            hasher.update(to_csv(figure).encode())
        return hasher.hexdigest()


def chaos_experiment(
    spec: ClusterSpec | None = None,
    trace: Trace | None = None,
    *,
    intensities: tuple[float, ...] = DEFAULT_CHAOS_INTENSITIES,
    schemes: tuple[str, ...] = CHAOS_SCHEMES,
    models: tuple[str, ...] = ("slowdown", "scrub"),
    seed: int = DEFAULT_FAULT_SEED,
    horizon: float = 30.0,
    engine: str | None = None,
    n_jobs: int = 1,
    label: str = "chaos",
    rank_groups: Mapping[str, Collection[int]] | None = None,
) -> ChaosReport:
    """Sweep fault intensity × scheme; tabulate bandwidth and tails.

    Every scheme replays the same trace under the same compiled fault
    plan at each intensity (a paired comparison).  The report carries
    one bandwidth figure, one figure per tail quantile
    (:data:`~repro.harness.report.TAIL_QUANTILES`), and a per-server
    p99 breakdown at the harshest intensity of the sweep.

    ``rank_groups`` optionally names disjoint sets of trace ranks
    (e.g. per-tenant rank windows); when given, one extra figure
    reports each group's p50/p95/p99 at the harshest intensity via
    :meth:`~repro.pfs.replay.RunMetrics.group_latency_percentile`.
    Leaving it ``None`` keeps the figure set — and therefore every
    existing digest — unchanged.

    Each intensity's :func:`~repro.harness.experiment.compare_schemes`
    call converts ``trace`` to columnar once and replays every scheme
    from that one copy.
    """
    if not intensities:
        raise ConfigurationError("need at least one intensity")
    spec = spec if spec is not None else ClusterSpec()
    trace = trace if trace is not None else chaos_trace()
    report = ChaosReport(
        label=label, intensities=tuple(intensities), schemes=tuple(schemes)
    )
    bw = FigureResult(
        figure=f"{label}-bw",
        title="aggregate bandwidth vs fault intensity",
        unit="MiB/s",
    )
    tails = {
        q: FigureResult(
            figure=f"{label}-{quantile_label(q)}",
            title=f"{quantile_label(q)} request latency vs fault intensity",
            unit="ms",
        )
        for q in TAIL_QUANTILES
    }
    # build every plan first: a bad intensity fails before any replay
    plans = [
        chaos_fault_plan(spec, intensity, seed=seed, models=models, horizon=horizon)
        for intensity in intensities
    ]
    for intensity, plan in zip(intensities, plans):
        row = f"intensity={intensity:g}"
        comparison = compare_schemes(
            spec,
            trace,
            tuple(schemes),
            label=f"{label}@{intensity:g}",
            engine=engine,
            n_jobs=n_jobs,
            fault_plan=plan,
            keep_latencies=True,
        )
        report.comparisons[row] = comparison
        for scheme in schemes:
            metrics = comparison[scheme].metrics
            bw.add(row, scheme, bandwidth_mib(metrics.bandwidth))
            for q, figure in tails.items():
                figure.add(row, scheme, latency_ms(metrics.latency_percentile(q)))
    report.figures.append(bw)
    report.figures.extend(tails.values())
    harshest = f"intensity={max(intensities):g}"
    per_server = FigureResult(
        figure=f"{label}-p99-by-server",
        title=f"per-server p99 latency at {harshest}",
        unit="ms",
    )
    for scheme in schemes:
        metrics = report.comparisons[harshest][scheme].metrics
        for server in range(spec.num_servers):
            per_server.add(
                f"server{server}",
                scheme,
                latency_ms(metrics.server_latency_percentile(server, 99.0)),
            )
    report.figures.append(per_server)
    if rank_groups:
        group_tails = FigureResult(
            figure=f"{label}-group-tails",
            title=f"per-group latency tails at {harshest}",
            unit="ms",
        )
        for scheme in schemes:
            metrics = report.comparisons[harshest][scheme].metrics
            for group, ranks in rank_groups.items():
                for q in (50.0, 95.0, 99.0):
                    group_tails.add(
                        f"{group}/{quantile_label(q)}",
                        scheme,
                        latency_ms(metrics.group_latency_percentile(ranks, q)),
                    )
        report.figures.append(group_tails)
    return report

"""Experiment primitives: run (scheme × workload) and compare.

The paper's evaluation protocol, condensed: profile the application
once (the tracing phase is free here because the workload generators
*are* the traces), build each scheme's layout off-line from the
profile, then replay the application against each layout and report
aggregate bandwidth.  :func:`compare_schemes` does exactly that for a
list of schemes, sharing one trace so the comparison is paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster import ClusterSpec
from ..core.parallel import parallel_map
from ..effects import effects
from ..pfs.replay import RunMetrics, run_workload
from ..schemes.registry import make_scheme, scheme_names
from ..tracing.columnar import ColumnarTrace, as_columnar_trace
from ..tracing.record import Trace
from ..units import MiB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan

__all__ = ["SchemeRun", "Comparison", "run_scheme", "compare_schemes"]


@dataclass(frozen=True)
class SchemeRun:
    """One scheme's replay outcome."""

    scheme: str
    metrics: RunMetrics

    @property
    def bandwidth_mib(self) -> float:
        return self.metrics.bandwidth / MiB


@dataclass
class Comparison:
    """Paired scheme results on one workload configuration."""

    label: str
    runs: dict[str, SchemeRun] = field(default_factory=dict)

    def bandwidth(self, scheme: str) -> float:
        """Scheme bandwidth in bytes/s."""
        return self.runs[scheme].metrics.bandwidth

    def improvement(self, scheme: str, over: str) -> float:
        """Fractional bandwidth improvement of ``scheme`` over ``over``
        (e.g. 0.15 == +15 %), the paper's headline metric."""
        base = self.bandwidth(over)
        if base == 0:
            return 0.0
        return self.bandwidth(scheme) / base - 1.0

    def ranking(self) -> list[str]:
        """Schemes from fastest to slowest."""
        return sorted(self.runs, key=self.bandwidth, reverse=True)

    def __getitem__(self, scheme: str) -> SchemeRun:
        return self.runs[scheme]


def run_scheme(
    name: str,
    spec: ClusterSpec,
    profile_trace: "Trace | ColumnarTrace",
    replay_trace_: "Trace | ColumnarTrace | None" = None,
    *,
    scheme_kwargs: dict | None = None,
    engine: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    keep_latencies: bool = False,
) -> SchemeRun:
    """Build scheme ``name`` from ``profile_trace`` and replay.

    ``replay_trace_`` defaults to the profile trace (the paper's
    "subsequent runs" repeat the profiled pattern); pass a different
    trace to study mispredicted patterns.  ``engine`` picks the replay
    engine (see :func:`repro.pfs.replay.replay_trace`).  ``fault_plan``
    injects a seeded fault schedule into the replayed cluster (the
    chaos harness's knob); ``keep_latencies`` records per-request and
    per-server latency samples so tail percentiles can be reported.
    """
    scheme = make_scheme(name, **(scheme_kwargs or {}))
    view = scheme.build(spec, profile_trace)
    replay = replay_trace_ if replay_trace_ is not None else profile_trace
    metrics = run_workload(
        spec,
        view,
        replay,
        engine=engine,
        fault_plan=fault_plan,
        keep_latencies=keep_latencies,
    )
    return SchemeRun(scheme=name, metrics=metrics)


@effects("READS_CONFIG", "IO")
def _scheme_task(
    task: tuple[
        str,
        ClusterSpec,
        "Trace | ColumnarTrace",
        "Trace | ColumnarTrace | None",
        dict | None,
        str | None,
        "FaultPlan | None",
        bool,
    ],
) -> SchemeRun:
    """Module-level (picklable) task body for the scheme fan-out."""
    name, spec, trace, replay, kwargs, engine, fault_plan, keep_latencies = task
    return run_scheme(
        name,
        spec,
        trace,
        replay,
        scheme_kwargs=kwargs,
        engine=engine,
        fault_plan=fault_plan,
        keep_latencies=keep_latencies,
    )


def compare_schemes(
    spec: ClusterSpec,
    trace: "Trace | ColumnarTrace",
    schemes: tuple[str, ...] | None = None,
    *,
    label: str = "",
    scheme_kwargs: dict[str, dict] | None = None,
    engine: str | None = None,
    n_jobs: int = 1,
    fault_plan: "FaultPlan | None" = None,
    keep_latencies: bool = False,
) -> Comparison:
    """Run every scheme on one workload trace; returns paired results.

    Scheme runs are independent (each builds its own PFS), so
    ``n_jobs`` > 1 fans them out across processes via
    :func:`repro.core.parallel.parallel_map`; the default of 1 stays serial.
    ``fault_plan`` applies the same seeded fault schedule to every
    scheme's replay (plans are frozen dataclasses, so they pickle to
    worker processes and compile identically there); together with
    ``keep_latencies`` this is the chaos harness's paired-comparison
    primitive.  Each scheme builds its layout from ``trace`` as given;
    the replay input is converted to columnar once and shared by every
    scheme.
    """
    schemes = schemes if schemes is not None else scheme_names()
    scheme_kwargs = scheme_kwargs or {}
    replay = as_columnar_trace(trace)
    tasks = [
        (
            name,
            spec,
            trace,
            replay,
            scheme_kwargs.get(name),
            engine,
            fault_plan,
            keep_latencies,
        )
        for name in schemes
    ]
    runs = parallel_map(
        _scheme_task,
        tasks,
        n_jobs=n_jobs,
        labels=[f"{label or 'compare'}/{name}" for name in schemes],
    )
    comparison = Comparison(label=label)
    for name, run in zip(schemes, runs):
        comparison.runs[name] = run
    return comparison

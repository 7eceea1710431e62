"""Generic parameter sweeps over (cluster, workload, scheme) space.

The per-figure entry points in :mod:`repro.harness.figures` hard-code
the paper's sweeps; :func:`sweep` is the general tool behind them for
exploring beyond the paper — vary any workload constructor argument or
the cluster shape, get a :class:`~repro.harness.report.FigureResult`
back, and print or bar-chart it like any reproduced figure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..cluster import ClusterSpec
from ..core.parallel import parallel_map
from ..effects import effects
from ..schemes.registry import scheme_names
from ..tracing.record import Trace
from .experiment import SchemeRun, run_scheme
from .report import FigureResult, bandwidth_mib

__all__ = ["sweep", "SweepPoint"]


class SweepPoint:
    """One sweep coordinate: a label plus its cluster and trace."""

    __slots__ = ("label", "spec", "trace")

    def __init__(self, label: str, spec: ClusterSpec, trace: Trace) -> None:
        self.label = label
        self.spec = spec
        self.trace = trace


@effects("READS_CONFIG", "IO")
def _sweep_cell(
    task: tuple[str, ClusterSpec, Trace, str, dict | None, str | None],
) -> SchemeRun:
    """Module-level (picklable) task body for one point × scheme cell."""
    name, spec, trace, _label, kwargs, engine = task
    return run_scheme(name, spec, trace, scheme_kwargs=kwargs, engine=engine)


def sweep(
    points: Iterable[SweepPoint],
    schemes: Sequence[str] | None = None,
    *,
    title: str = "custom sweep",
    figure: str = "sweep",
    scheme_kwargs: dict[str, dict] | None = None,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """Run every scheme on every sweep point.

    Every (point, scheme) cell is independent, so the whole grid is
    flattened and fanned out across ``n_jobs`` processes (default 1 =
    serial).  ``engine`` picks the replay engine for every cell.

    Example — vary the request size::

        points = [
            SweepPoint(f"{k}KiB", spec,
                       IORWorkload(request_sizes=k * KiB,
                                   total_size=16 * MiB).trace("write"))
            for k in (16, 64, 256)
        ]
        print(sweep(points))
    """
    names = tuple(schemes) if schemes else scheme_names()
    kwargs = scheme_kwargs or {}
    point_list = list(points)
    tasks = [
        (name, point.spec, point.trace, point.label, kwargs.get(name), engine)
        for point in point_list
        for name in names
    ]
    runs = parallel_map(
        _sweep_cell,
        tasks,
        n_jobs=n_jobs,
        labels=[f"{task[3]}/{task[0]}" for task in tasks],
    )
    result = FigureResult(figure=figure, title=title)
    for task, run in zip(tasks, runs):
        result.add(task[3], task[0], bandwidth_mib(run.metrics.bandwidth))
    return result


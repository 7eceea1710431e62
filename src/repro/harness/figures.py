"""One entry point per figure of the paper's evaluation (§V).

Every function reproduces the corresponding experiment — same workload
structure, same sweep axis, same comparison set — at a volume scaled
down from the 16-node testbed so a full run takes seconds.  Absolute
bandwidths therefore differ from the paper; the *shapes* (scheme
ordering, improvement bands, trends along the sweep axis) are the
reproduction targets and are what ``benchmarks/`` asserts.

All functions accept ``total_mib`` (per-configuration data volume) and
a scheme list so tests can shrink them further.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..cluster import ClusterSpec
from ..core.pipeline import identity_redirector
from ..devices.base import READ, WRITE
from ..schemes.base import LayoutView
from ..schemes.registry import scheme_names
from ..tracing.columnar import ColumnarTrace
from ..tracing.record import Trace
from ..units import KiB, MiB
from ..workloads.btio import BTIOWorkload
from ..workloads.cholesky import CholeskyWorkload
from ..workloads.hpio import HPIOWorkload
from ..workloads.ior import IORMixedProcsWorkload, IORWorkload
from ..workloads.lanl import LANLWorkload
from ..workloads.lu import LUWorkload
from .experiment import compare_schemes
from .report import FigureResult, bandwidth_mib

__all__ = [
    "fig07_ior_mixed_sizes",
    "fig08_server_io_time",
    "fig09_ior_mixed_procs",
    "fig10_server_ratios",
    "fig11_hpio",
    "fig12a_btio",
    "fig12b_lanl",
    "fig13a_lu",
    "fig13b_cholesky",
    "fig14_redirection_overhead",
    "ALL_FIGURES",
]

#: the size mixes of Fig. 7, in KiB ("16" is the uniform control)
FIG7_SIZE_MIXES: tuple[tuple[int, ...], ...] = (
    (16,),
    (64, 128),
    (128, 256),
    (256, 512),
)
#: the process mixes of Fig. 9
FIG9_PROC_MIXES: tuple[tuple[int, ...], ...] = ((8,), (8, 32), (16, 64), (32, 128))
#: the server ratios of Fig. 10 (HServers, SServers)
FIG10_RATIOS: tuple[tuple[int, int], ...] = ((7, 1), (6, 2), (5, 3), (4, 4))


def _mix_label(mix: Sequence[int]) -> str:
    return "+".join(str(m) for m in mix)


def fig07_ior_mixed_sizes(
    spec: ClusterSpec | None = None,
    *,
    size_mixes: Sequence[Sequence[int]] = FIG7_SIZE_MIXES,
    num_processes: int = 32,
    total_mib: int = 32,
    schemes: Sequence[str] | None = None,
    seed: int = 0,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """IOR bandwidth with mixed request sizes (reads and writes)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    result = FigureResult(
        figure="Fig 7",
        title=f"IOR, mixed request sizes, {num_processes} procs",
    )
    for mix in size_mixes:
        workload = IORWorkload(
            num_processes=num_processes,
            request_sizes=[m * KiB for m in mix],
            total_size=total_mib * MiB,
            seed=seed,
        )
        for op in (READ, WRITE):
            trace = workload.columnar(op)
            comparison = compare_schemes(
                spec, trace, schemes, engine=engine, n_jobs=n_jobs
            )
            row = f"{_mix_label(mix)} {op}"
            for name in schemes:
                result.add(row, name, bandwidth_mib(comparison.bandwidth(name)))
    return result


def fig08_server_io_time(
    spec: ClusterSpec | None = None,
    *,
    size_mix: Sequence[int] = (128, 256),
    num_processes: int = 32,
    total_mib: int = 32,
    schemes: Sequence[str] | None = None,
    op: str = WRITE,
    seed: int = 0,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """Per-server I/O time under each scheme, normalized to the minimum
    server time under MHA (the paper's normalization)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    workload = IORWorkload(
        num_processes=num_processes,
        request_sizes=[m * KiB for m in size_mix],
        total_size=total_mib * MiB,
        seed=seed,
    )
    trace = workload.columnar(op)
    comparison = compare_schemes(
        spec, trace, schemes, engine=engine, n_jobs=n_jobs
    )
    result = FigureResult(
        figure="Fig 8",
        title=f"per-server I/O time, sizes {_mix_label(size_mix)}",
        unit="x min(MHA)",
    )
    norm_source = "MHA" if "MHA" in comparison.runs else schemes[0]
    baseline_busy = [
        t for t in comparison.runs[norm_source].metrics.per_server_busy if t > 0
    ]
    norm = min(baseline_busy) if baseline_busy else 1.0
    for idx in range(spec.num_servers):
        kind = "H" if spec.is_hserver(idx) else "S"
        row = f"S{idx}({kind})"
        for name in schemes:
            busy = comparison.runs[name].metrics.per_server_busy[idx]
            result.add(row, name, busy / norm if norm else 0.0)
    return result


def fig09_ior_mixed_procs(
    spec: ClusterSpec | None = None,
    *,
    proc_mixes: Sequence[Sequence[int]] = FIG9_PROC_MIXES,
    request_kib: int = 256,
    group_mib: int = 16,
    schemes: Sequence[str] | None = None,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """IOR bandwidth with mixed process numbers (reads and writes)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    result = FigureResult(
        figure="Fig 9",
        title=f"IOR, mixed process numbers, {request_kib}KiB requests",
    )
    for mix in proc_mixes:
        workload = IORMixedProcsWorkload(
            process_groups=tuple(mix),
            request_size=request_kib * KiB,
            bytes_per_group=group_mib * MiB,
        )
        for op in (READ, WRITE):
            trace = workload.columnar(op)
            comparison = compare_schemes(
                spec, trace, schemes, engine=engine, n_jobs=n_jobs
            )
            row = f"{_mix_label(mix)} {op}"
            for name in schemes:
                result.add(row, name, bandwidth_mib(comparison.bandwidth(name)))
    return result


def fig10_server_ratios(
    base_spec: ClusterSpec | None = None,
    *,
    ratios: Sequence[tuple[int, int]] = FIG10_RATIOS,
    size_mix: Sequence[int] = (128, 256),
    num_processes: int = 32,
    total_mib: int = 32,
    schemes: Sequence[str] | None = None,
    seed: int = 0,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """IOR bandwidth across HServer:SServer ratios."""
    base_spec = base_spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    result = FigureResult(
        figure="Fig 10",
        title=f"IOR, server ratios, sizes {_mix_label(size_mix)}",
    )
    workload = IORWorkload(
        num_processes=num_processes,
        request_sizes=[m * KiB for m in size_mix],
        total_size=total_mib * MiB,
        seed=seed,
    )
    for m, n in ratios:
        spec = base_spec.with_ratio(m, n)
        for op in (READ, WRITE):
            trace = workload.columnar(op)
            comparison = compare_schemes(
                spec, trace, schemes, engine=engine, n_jobs=n_jobs
            )
            row = f"{m}h:{n}s {op}"
            for name in schemes:
                result.add(row, name, bandwidth_mib(comparison.bandwidth(name)))
    return result


def fig11_hpio(
    spec: ClusterSpec | None = None,
    *,
    proc_counts: Sequence[int] = (16, 32, 64),
    region_count: int = 1024,
    region_kibs: Sequence[int] = (16, 32, 64),
    schemes: Sequence[str] | None = None,
    op: str = WRITE,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """HPIO bandwidth over process counts (mixed region sizes)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    result = FigureResult(
        figure="Fig 11",
        title=f"HPIO, region sizes {_mix_label(region_kibs)}KiB",
    )
    for procs in proc_counts:
        workload = HPIOWorkload(
            num_processes=procs,
            region_count=region_count,
            region_sizes=[k * KiB for k in region_kibs],
        )
        trace = workload.columnar(op)
        comparison = compare_schemes(
            spec, trace, schemes, engine=engine, n_jobs=n_jobs
        )
        row = f"{procs} procs"
        for name in schemes:
            result.add(row, name, bandwidth_mib(comparison.bandwidth(name)))
    return result


def fig12a_btio(
    spec: ClusterSpec | None = None,
    *,
    proc_counts: Sequence[int] = (9, 16, 25),
    steps: int = 20,
    scale: float = 1 / 64,
    schemes: Sequence[str] | None = None,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """BTIO aggregate bandwidth (class B + C sizes interleaved)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    result = FigureResult(figure="Fig 12a", title="BTIO, class B+C interleaved")
    for procs in proc_counts:
        workload = BTIOWorkload(num_processes=procs, steps=steps, scale=scale)
        trace = workload.columnar(WRITE)
        comparison = compare_schemes(
            spec, trace, schemes, engine=engine, n_jobs=n_jobs
        )
        row = f"{procs} procs"
        for name in schemes:
            result.add(row, name, bandwidth_mib(comparison.bandwidth(name)))
    return result


def _trace_figure(
    figure: str,
    title: str,
    trace: "Trace | ColumnarTrace",
    spec: ClusterSpec,
    schemes: Sequence[str],
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    result = FigureResult(figure=figure, title=title)
    comparison = compare_schemes(
        spec, trace, tuple(schemes), engine=engine, n_jobs=n_jobs
    )
    for name in schemes:
        result.add("bandwidth", name, bandwidth_mib(comparison.bandwidth(name)))
    return result


def fig12b_lanl(
    spec: ClusterSpec | None = None,
    *,
    num_processes: int = 8,
    loops: int = 48,
    schemes: Sequence[str] | None = None,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """LANL anonymous-application trace replay."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    trace = LANLWorkload(num_processes=num_processes, loops=loops).columnar(WRITE)
    return _trace_figure(
        "Fig 12b", "LANL trace replay", trace, spec, schemes, engine=engine, n_jobs=n_jobs
    )


def fig13a_lu(
    spec: ClusterSpec | None = None,
    *,
    num_processes: int = 8,
    slabs: int = 24,
    schemes: Sequence[str] | None = None,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """Out-of-core LU decomposition trace replay (8 per-process files)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    trace = LUWorkload(num_processes=num_processes, slabs=slabs).columnar()
    return _trace_figure(
        "Fig 13a", "LU trace replay", trace, spec, schemes, engine=engine, n_jobs=n_jobs
    )


def fig13b_cholesky(
    spec: ClusterSpec | None = None,
    *,
    num_processes: int = 8,
    panels: int = 20,
    schemes: Sequence[str] | None = None,
    seed: int = 7,
    engine: str | None = None,
    n_jobs: int = 1,
) -> FigureResult:
    """Sparse Cholesky trace replay (highly skewed request sizes)."""
    spec = spec or ClusterSpec()
    schemes = tuple(schemes or scheme_names())
    trace = CholeskyWorkload(
        num_processes=num_processes, panels=panels, seed=seed
    ).columnar()
    return _trace_figure(
        "Fig 13b", "Cholesky trace replay", trace, spec, schemes, engine=engine, n_jobs=n_jobs
    )


def fig14_redirection_overhead(
    spec: ClusterSpec | None = None,
    *,
    proc_counts: Sequence[int] = (8, 32, 128),
    size_mix_kib: Sequence[int] = (4, 64),
    total_mib: int = 8,
    repeats: int = 3,
) -> FigureResult:
    """Redirection overhead: request-mapping wall time with an identity
    DRT (redirect-to-original, no data movement) vs. the plain layout.

    The paper's Fig. 14 shows bandwidth with and without redirection;
    since redirection costs no *simulated* time here, the honest
    equivalent is the real wall-clock cost of the lookup path per
    request — reported as lookup time and overhead ratio, for the
    per-record ``map_request`` path and for the batch ``merged_runs``
    path the flat replay kernel premaps through.
    """
    spec = spec or ClusterSpec()
    result = FigureResult(
        figure="Fig 14",
        title=f"redirection overhead, sizes {_mix_label(size_mix_kib)}KiB",
        unit="us/request",
    )
    for procs in proc_counts:
        workload = IORWorkload(
            num_processes=procs,
            request_sizes=[k * KiB for k in size_mix_kib],
            total_size=total_mib * MiB,
        )
        trace = workload.trace(WRITE)
        file = trace.files()[0]
        redirector = identity_redirector(spec, trace)
        direct = LayoutView({file: redirector.layout_for(file)})
        columns = ColumnarTrace.from_trace(trace).data

        def time_view(view, batch: bool = False) -> float:
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                if batch:
                    view.merged_runs(file, columns["offset"], columns["size"])
                else:
                    for record in trace:
                        view.map_request(record.file, record.offset, record.size)
                best = min(best, time.perf_counter() - t0)
            return best / len(trace) * 1e6  # us per request

        row = f"{procs} procs"
        direct_us = time_view(direct)
        redirected_us = time_view(redirector)
        result.add(row, "direct", direct_us)
        result.add(row, "redirected", redirected_us)
        result.add(row, "overhead%", 100.0 * (redirected_us / direct_us - 1.0))
        result.add(row, "lru_hit%", 100.0 * redirector.drt.cache_hit_rate)
        # a redirector of its own, so lru_hit% counts the per-record loop
        fresh = identity_redirector(spec, trace)
        result.add(row, "dir_batch", time_view(direct, batch=True))
        result.add(row, "redir_batch", time_view(fresh, batch=True))
    result.note(
        "overhead% is the added mapping cost of the DRT lookup path; "
        "lru_hit% is the share of lookups served by the hot-entry probe "
        "in the per-record loop; dir_batch and redir_batch time "
        "merged_runs, the batch path the flat replay kernel premaps through"
    )
    return result


#: figure id -> callable, for the CLI and the benchmark harness
ALL_FIGURES = {
    "fig07": fig07_ior_mixed_sizes,
    "fig08": fig08_server_io_time,
    "fig09": fig09_ior_mixed_procs,
    "fig10": fig10_server_ratios,
    "fig11": fig11_hpio,
    "fig12a": fig12a_btio,
    "fig12b": fig12b_lanl,
    "fig13a": fig13a_lu,
    "fig13b": fig13b_cholesky,
    "fig14": fig14_redirection_overhead,
}

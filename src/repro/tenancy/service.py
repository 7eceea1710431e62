"""The multi-tenant cluster service: build shards, merge, replay once.

:func:`serve_scenario` is the top of the tenancy stack — the
``python -m repro.harness serve`` entry point.  The pipeline:

1. **Fleet** — :func:`~repro.tenancy.spec.make_tenants` (or an
   explicit tuple of :class:`~repro.tenancy.spec.TenantSpec`),
   validated at config time (shares sum ≤ 1, dense ids).
2. **Sharded builds** — :func:`~repro.tenancy.shard.build_tenants`
   generates one time-sorted columnar trace per tenant class, then
   fans one pure task per tenant across processes: seeded Poisson
   re-stamp of the timestamp column, namespacing of the rank, pid and
   file-name columns, scheme build, per-file columnar premapping,
   SServer-quota enforcement.  The tenant's
   :class:`~repro.tracing.columnar.ColumnarTrace`, its ``MergedRuns``
   and its file view are the exchange format back to the coordinator.
3. **Deterministic merge** — admission control
   (:func:`~repro.tenancy.admission.admission_offsets`), per-tenant
   token-bucket shaping at ``share × nominal`` rate, and SCFQ weighted
   fair queueing (:func:`~repro.tenancy.qos.wfq_emission`) assign
   every row a strictly increasing emission timestamp, and one gather
   of every build's rows in that order makes the fleet trace.  Each
   stage preserves within-tenant order, so the shards' premapped
   per-file runs stay valid.
4. **One coupled replay** — a single :class:`~repro.pfs.system.HybridPFS`
   replays the merged columnar trace open-loop; cross-tenant
   interference happens where it physically lives, in the shared server
   queues.
5. **Attribution** — ``RunMetrics.latency_ranks`` plus the disjoint
   rank windows turn the shared latency stream back into per-tenant
   p50/p95/p99 tails.

Every stage is deterministic, so :meth:`ServeReport.digest` is a
stable SHA-256 over the full result surface — CI's ``serve-smoke``
job replays the scenario twice and diffs the digests, and the
sharded-vs-serial equivalence is property-tested in
``tests/tenancy/``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..cluster import ClusterSpec
from ..config import DEFAULT_ARRIVAL_SEED
from ..exceptions import ConfigurationError
from ..harness.report import (
    FigureResult,
    bandwidth_mib,
    latency_ms,
    quantile_label,
    to_csv,
)
from ..layouts.batch import MergedRuns
from ..pfs.replay import RunMetrics, replay_trace
from ..pfs.system import HybridPFS
from ..tracing.columnar import ColumnarTrace
from ..units import MiB
from .admission import admission_offsets
from .namespace import RANK_STRIDE, tenant_of_rank
from .qos import nominal_bandwidth, token_bucket_release, wfq_emission
from .shard import TenantBuild, build_tenants
from .spec import TenantSpec, make_tenants, validate_tenants
from .view import RequestColumns, TenantRoutingView

__all__ = ["SERVE_QUANTILES", "ServeReport", "TenantMetrics", "serve_scenario"]

#: per-tenant tail quantiles the serve report tabulates
SERVE_QUANTILES: tuple[float, ...] = (50.0, 95.0, 99.0)


def _percentile(ordered: list[float], q: float) -> float:
    """Rank-rounding percentile over pre-sorted samples (0.0 if empty)."""
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


@dataclass(frozen=True)
class TenantMetrics:
    """One tenant's slice of the shared replay."""

    tenant: int
    klass: str
    requests: int
    completed: int
    bytes: int
    demoted: bool
    admission_delay: float
    p50: float
    p95: float
    p99: float


@dataclass
class ServeReport:
    """The full result surface of one serve scenario."""

    label: str
    num_tenants: int
    max_active: int
    makespan: float
    total_requests: int
    total_bytes: int
    figures: list[FigureResult] = field(default_factory=list)
    tenants: list[TenantMetrics] = field(default_factory=list)
    metrics: RunMetrics | None = None

    def describe(self) -> str:
        head = (
            f"{self.label}: {self.num_tenants} tenants, "
            f"{self.total_requests} requests, "
            f"{self.total_bytes / MiB:.1f} MiB in {self.makespan:.2f}s"
        )
        return "\n\n".join([head] + [str(figure) for figure in self.figures])

    def digest(self) -> str:
        """SHA-256 over the full-precision CSV of every figure plus the
        per-tenant tail table — two runs must match byte for byte."""
        hasher = hashlib.sha256()
        for figure in self.figures:
            hasher.update(f"{figure.figure}|{figure.title}|{figure.unit}\n".encode())
            hasher.update(to_csv(figure).encode())
        for t in self.tenants:
            hasher.update(
                f"{t.tenant},{t.klass},{t.requests},{t.completed},{t.bytes},"
                f"{int(t.demoted)},{t.admission_delay!r},"
                f"{t.p50!r},{t.p95!r},{t.p99!r}\n".encode()
            )
        return hasher.hexdigest()


def _merge_emission(
    builds: list[TenantBuild],
    tenants: tuple[TenantSpec, ...],
    capacity: float,
    max_active: int,
) -> tuple[ColumnarTrace, list[float]]:
    """Admission + shaping + WFQ: the merged, re-stamped trace.

    The fleet trace is one gather of every build's rows in emission
    order; each build's file codes are shifted past the names of the
    builds before it, so the merged name table is their concatenation.
    """
    arrivals = [b.trace.data["timestamp"].tolist() for b in builds]
    sizes = [b.trace.data["size"].tolist() for b in builds]
    offsets = admission_offsets(
        [a[0] if a else 0.0 for a in arrivals],
        [a[-1] if a else 0.0 for a in arrivals],
        [b.total_bytes for b in builds],
        capacity,
        max_active,
    )
    releases: list[list[float]] = []
    for spec_t, stream, size_row, offset in zip(tenants, arrivals, sizes, offsets):
        shifted = [t + offset for t in stream]
        burst = 2.0 * max(size_row) if size_row else 0.0
        releases.append(
            token_bucket_release(
                shifted, size_row, spec_t.share * capacity, burst
            )
        )
    order = wfq_emission(
        releases, sizes, [t.weight for t in tenants], capacity
    )
    rows = np.array([len(b.trace) for b in builds], dtype=np.int64)
    first_row = np.cumsum(rows) - rows
    names: list[str] = []
    file_base = np.empty(len(builds), dtype=np.int32)
    for i, build in enumerate(builds):
        file_base[i] = len(names)
        names.extend(build.trace.interned_files)
    data = np.concatenate([b.trace.data for b in builds])
    data["file"] += np.repeat(file_base, rows)
    emitted = np.array(order, dtype=np.float64).reshape(-1, 3)
    tenant_of = emitted[:, 0].astype(np.int64)
    merged = data[first_row[tenant_of] + emitted[:, 1].astype(np.int64)]
    merged["timestamp"] = emitted[:, 2]
    return ColumnarTrace(merged, tuple(names), validate=False), offsets


def serve_scenario(
    spec: ClusterSpec | None = None,
    tenants: int | tuple[TenantSpec, ...] = 1000,
    *,
    hot_fraction: float = 0.8,
    max_active: int = 64,
    n_jobs: int = 1,
    engine: str | None = None,
    arrival_seed: int = DEFAULT_ARRIVAL_SEED,
    rank_stride: int = RANK_STRIDE,
    label: str = "serve",
) -> ServeReport:
    """Serve a tenant fleet on one shared hybrid PFS; tabulate fairness.

    ``tenants`` is a fleet size (expanded by
    :func:`~repro.tenancy.spec.make_tenants` with ``hot_fraction``) or
    an explicit tuple of specs.  ``max_active`` bounds concurrently
    admitted tenants; ``n_jobs`` shards the build phase across
    processes (results are bit-identical at any job count).  The
    merged fleet trace goes to :func:`~repro.pfs.replay.replay_trace`
    as a :class:`~repro.tracing.columnar.ColumnarTrace`, so the serve
    path builds no trace record.
    ``rank_stride`` is the width of each tenant's rank window; the
    per-tenant and per-class latency tables both group by it.
    """
    spec = spec if spec is not None else ClusterSpec()
    if isinstance(tenants, int):
        fleet = make_tenants(tenants, hot_fraction=hot_fraction)
    else:
        fleet = tuple(tenants)
        validate_tenants(fleet)
    builds = build_tenants(
        spec, fleet, n_jobs=n_jobs, arrival_seed=arrival_seed, rank_stride=rank_stride
    )
    capacity = nominal_bandwidth(spec)
    merged, offsets = _merge_emission(builds, fleet, capacity, max_active)

    runs_by_file: dict[str, MergedRuns] = {}
    requests_by_file: dict[str, RequestColumns] = {}
    for build in builds:
        for file, runs in build.runs_by_file.items():
            if file in runs_by_file:
                raise ConfigurationError(
                    f"file {file!r} premapped by two tenants — namespace leak"
                )
            runs_by_file[file] = runs
            requests_by_file[file] = build.requests_by_file[file]
    view = TenantRoutingView(
        runs_by_file, requests_by_file, {build.tenant: build.view for build in builds}
    )

    pfs = HybridPFS(spec)
    metrics = replay_trace(
        pfs,
        view,
        merged,
        keep_latencies=True,
        open_arrivals=True,
        engine=engine,
    )

    per_tenant: dict[int, list[float]] = {}
    for latency, rank in zip(metrics.latencies, metrics.latency_ranks):
        per_tenant.setdefault(tenant_of_rank(rank, rank_stride), []).append(latency)

    report = ServeReport(
        label=label,
        num_tenants=len(fleet),
        max_active=max_active,
        makespan=metrics.makespan,
        total_requests=sum(b.requests for b in builds),
        total_bytes=sum(b.total_bytes for b in builds),
        metrics=metrics,
    )
    for build, tenant_spec, offset in zip(builds, fleet, offsets):
        ordered = sorted(per_tenant.get(build.tenant, []))
        report.tenants.append(
            TenantMetrics(
                tenant=build.tenant,
                klass=build.klass,
                requests=build.requests,
                completed=len(ordered),
                bytes=build.total_bytes,
                demoted=build.demoted,
                admission_delay=offset,
                p50=_percentile(ordered, 50.0),
                p95=_percentile(ordered, 95.0),
                p99=_percentile(ordered, 99.0),
            )
        )
    report.figures.extend(_figures(report, fleet, label, rank_stride))
    return report


def _figures(
    report: ServeReport,
    fleet: tuple[TenantSpec, ...],
    label: str,
    rank_stride: int,
) -> list[FigureResult]:
    """Per-class bandwidth, tails, fairness, and tenant-tail spread."""
    classes = ("hot", "tail")
    by_class: dict[str, list[TenantMetrics]] = {c: [] for c in classes}
    for t in report.tenants:
        by_class[t.klass].append(t)

    bw = FigureResult(
        figure=f"{label}-bw",
        title="delivered bandwidth by tenant class",
        unit="MiB/s",
    )
    span = report.makespan
    for klass in classes:
        delivered = sum(t.bytes for t in by_class[klass])
        bw.add(klass, "delivered", bandwidth_mib(delivered / span if span > 0 else 0.0))
    total = report.total_bytes / span if span > 0 else 0.0
    bw.add("all", "delivered", bandwidth_mib(total))

    tails = FigureResult(
        figure=f"{label}-tails",
        title="request latency tails by tenant class",
        unit="ms",
    )
    all_latencies = (
        sorted(report.metrics.latencies) if report.metrics is not None else []
    )
    pooled: dict[str, list[float]] = {c: [] for c in classes}
    if report.metrics is not None:
        klass_of = {t.tenant: t.klass for t in report.tenants}
        for latency, rank in zip(
            report.metrics.latencies, report.metrics.latency_ranks
        ):
            tenant = tenant_of_rank(rank, rank_stride)
            pooled[klass_of[tenant]].append(latency)
    for klass in classes:
        ordered = sorted(pooled[klass])
        for q in SERVE_QUANTILES:
            tails.add(klass, quantile_label(q), latency_ms(_percentile(ordered, q)))
    for q in SERVE_QUANTILES:
        tails.add("all", quantile_label(q), latency_ms(_percentile(all_latencies, q)))

    fairness = FigureResult(
        figure=f"{label}-fairness",
        title="delivered-bytes share vs configured weight share",
        unit="share",
    )
    total_weight = sum(t.weight for t in fleet)
    weight_by_class: dict[str, float] = {c: 0.0 for c in classes}
    for t in fleet:
        weight_by_class[t.klass] += t.weight
    for klass in classes:
        delivered = sum(t.bytes for t in by_class[klass])
        fairness.add(
            klass,
            "bytes",
            delivered / report.total_bytes if report.total_bytes else 0.0,
        )
        fairness.add(klass, "weight", weight_by_class[klass] / total_weight)

    spread = FigureResult(
        figure=f"{label}-tenants",
        title="spread of per-tenant p99 latency",
        unit="ms",
    )
    for klass in classes:
        p99s = sorted(t.p99 for t in by_class[klass])
        if not p99s:
            continue
        spread.add("min", klass, latency_ms(p99s[0]))
        spread.add("p50", klass, latency_ms(_percentile(p99s, 50.0)))
        spread.add("p90", klass, latency_ms(_percentile(p99s, 90.0)))
        spread.add("max", klass, latency_ms(p99s[-1]))

    admission = FigureResult(
        figure=f"{label}-admission",
        title="admission queueing delay by tenant class",
        unit="s",
    )
    for klass in classes:
        delays = [t.admission_delay for t in by_class[klass]]
        if not delays:
            continue
        admission.add(klass, "mean", sum(delays) / len(delays))
        admission.add(klass, "max", max(delays))

    return [bw, tails, fairness, spread, admission]

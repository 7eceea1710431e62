"""Seeded open-arrival rewrites: Poisson traffic from closed generators.

Every generator in this package emits bulk-synchronous *phase* time
(:data:`~repro.workloads.base.PHASE_GAP` between phases, ranks a hair
apart within one).  A multi-tenant service instead sees an **open**
request stream per tenant: requests arrive on their own clock whether
or not earlier ones finished.  :func:`open_arrivals` bridges the two
without touching any generator: it copies a time-ordered columnar
trace and overwrites its timestamp column with a seeded Poisson
arrival process (exponential inter-arrival gaps at a target ``rate``,
plus an optional uniformly jittered start offset so tenants launched
together do not phase-lock).  :class:`OpenArrivalWorkload` wraps a
workload in that rewrite; the tenant builds of :mod:`repro.tenancy`
write each tenant's :func:`poisson_arrival_times` into one arrival
column of the fleet table, beside one shared trace per tenant class.

Determinism contract: tenant ``k`` passes ``stream=k`` and the rewrite
draws from ``derive_rng(SeedDomain.ARRIVALS, stream, base=seed)`` (the
central lineage registry of :mod:`repro.determinism`), so each
tenant's arrival stream is independent of every other's — and of every
fault/sampling stream — yet byte-reproducible on any worker process.
Row *order* is preserved — arrival times are a strictly increasing
rewrite of the ``sorted_by_time`` order — which is what lets premapped
per-file request runs survive the rewrite.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_ARRIVAL_SEED
from ..determinism import SeedDomain, derive_rng
from ..devices.base import OpType
from ..exceptions import TraceError
from ..tracing.columnar import ColumnarTrace
from ..tracing.record import Trace
from .base import Workload

__all__ = ["OpenArrivalWorkload", "open_arrivals", "poisson_arrival_times"]


def poisson_arrival_times(
    n: int,
    rate: float,
    *,
    start: float = 0.0,
    jitter: float = 0.0,
    seed: int = DEFAULT_ARRIVAL_SEED,
    stream: int = 0,
) -> np.ndarray:
    """``n`` strictly increasing Poisson arrival times, as a float64
    array.

    Exponential inter-arrival gaps with mean ``1 / rate``, beginning at
    ``start`` plus a ``U[0, jitter)`` launch offset.  The generator is
    derived from ``(SeedDomain.ARRIVALS, stream)`` under the ``seed``
    root, so distinct streams are independent and each is reproducible
    in isolation.
    """
    if rate <= 0.0:
        raise TraceError(f"arrival rate must be > 0, got {rate}")
    if jitter < 0.0:
        raise TraceError(f"jitter must be >= 0, got {jitter}")
    rng = derive_rng(SeedDomain.ARRIVALS, stream, base=seed)
    offset = start + (float(rng.uniform(0.0, jitter)) if jitter > 0.0 else 0.0)
    return offset + np.cumsum(rng.exponential(1.0 / rate, n))


def open_arrivals(
    ordered: ColumnarTrace,
    rate: float,
    *,
    start: float = 0.0,
    jitter: float = 0.0,
    seed: int = DEFAULT_ARRIVAL_SEED,
    stream: int = 0,
) -> ColumnarTrace:
    """A copy of the time-ordered ``ordered`` on a Poisson clock.

    Row ``k`` keeps every column but its timestamp, which becomes the
    ``k``-th of :func:`poisson_arrival_times` (same arguments), so the
    row order, and with it every within-rank order, is unchanged.
    """
    data = ordered.data.copy()
    data["timestamp"] = poisson_arrival_times(
        len(ordered), rate, start=start, jitter=jitter, seed=seed, stream=stream
    )
    return ColumnarTrace(data, ordered.interned_files, validate=False)


class OpenArrivalWorkload(Workload):
    """Wrap a workload, replaying its requests on a Poisson clock.

    ``rate`` is the mean arrival rate (requests per simulated second);
    ``start``/``jitter`` place the tenant's first request at
    ``start + U[0, jitter)`` plus the first exponential gap.  The
    wrapped trace is taken in ``sorted_by_time`` order and re-stamped
    by :func:`open_arrivals`, so every within-rank (and within-tenant)
    ordering is preserved — only the pacing changes.  Combine with
    ``replay_trace(..., open_arrivals=True)`` to honour the new clock.
    """

    def __init__(
        self,
        inner: Workload,
        rate: float,
        *,
        start: float = 0.0,
        jitter: float = 0.0,
        seed: int = DEFAULT_ARRIVAL_SEED,
        stream: int = 0,
    ) -> None:
        if rate <= 0.0:
            raise TraceError(f"arrival rate must be > 0, got {rate}")
        if jitter < 0.0:
            raise TraceError(f"jitter must be >= 0, got {jitter}")
        self.inner = inner
        self.rate = rate
        self.start = start
        self.jitter = jitter
        self.seed = seed
        self.stream = stream

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"open({self.inner.name})"

    def columnar(self, *args: OpType | None) -> ColumnarTrace:
        """The re-stamped trace on the columnar spine; ``args`` is the
        optional ``op``, passed on to the wrapped workload (so no op
        means that workload's own default)."""
        return open_arrivals(
            self.inner.columnar(*args).sorted_by_time(),
            self.rate,
            start=self.start,
            jitter=self.jitter,
            seed=self.seed,
            stream=self.stream,
        )

    # benchmarks/e2e/tracer.py rebinds ``trace`` from this class's own
    # namespace, so the inherited one-liner is repeated here
    def trace(self, *args: OpType | None) -> Trace:
        return self.columnar(*args).to_trace()

    def __repr__(self) -> str:
        return (
            f"OpenArrivalWorkload({self.inner!r}, rate={self.rate}, "
            f"stream={self.stream})"
        )

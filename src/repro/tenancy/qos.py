"""Fairness/QoS arithmetic: capacity, shaping, and fair queueing.

Three pure, deterministic kernels the admission front end composes:

* :func:`nominal_bandwidth` — the cluster's aggregate service capacity
  estimate (per-server device rate capped by the server's link), the
  denominator every share is a fraction of;
* :func:`token_bucket_release` — per-tenant traffic shaping: a bucket
  filling at ``rate`` bytes/s (capped at ``burst``) releases each
  request when it can pay its size, FIFO per tenant, so a tenant's
  dispatch rate never exceeds its share no matter how bursty its
  arrival process is;
* :func:`wfq_emission` — self-clocked fair queueing (SCFQ, Golestani)
  across tenants: request ``k`` of tenant ``i`` gets finish tag
  ``F = max(F_prev(i), V) + size / weight(i)`` when it becomes
  eligible, the dispatcher always emits the smallest tag, and the
  virtual clock ``V`` tracks the tag in service.  Emission is
  serialized at the cluster capacity, which makes emission start times
  **strictly increasing** — the property that lets the merged trace be
  time-sorted without disturbing any tenant's internal order.

Everything here is plain float arithmetic over sorted lists — no RNG,
no simulator — so shaping and scheduling decisions are identical on
every run and on every worker process.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Sequence

from ..cluster import ClusterSpec
from ..exceptions import ConfigurationError
from ..units import MiB

__all__ = ["nominal_bandwidth", "token_bucket_release", "wfq_emission"]


def nominal_bandwidth(spec: ClusterSpec, op: str = "write") -> float:
    """Aggregate service capacity estimate in bytes/second.

    Each server contributes the smaller of its device's streaming rate
    (probed with a 1 MiB transfer, so device startup costs are
    excluded) and its network link's rate.  An estimate, not a bound —
    shares shape *dispatch*, the replay still decides actual service.
    """
    total = 0.0
    for server in spec.server_ids:
        device_rate = MiB / spec.device_for(server).transfer_time(op, MiB)
        total += min(device_rate, spec.link.bandwidth)
    return total


def token_bucket_release(
    arrivals: Sequence[float],
    sizes: Sequence[int],
    rate: float,
    burst: float,
) -> list[float]:
    """Release times of a FIFO stream through a token bucket.

    The bucket starts full at ``burst`` tokens (bytes) and refills at
    ``rate`` bytes/s.  Request ``k`` releases at the first instant at
    or after ``max(arrival[k], release[k-1])`` when the bucket holds
    its size — going into deficit for requests larger than ``burst``
    (they wait for the full refill rather than being rejected).
    Release times are non-decreasing and never precede arrivals.
    """
    if not 0.0 < rate < math.inf:
        raise ConfigurationError(f"shaping rate must be finite and > 0, got {rate}")
    if not 0.0 <= burst < math.inf:
        raise ConfigurationError(f"burst must be finite and >= 0, got {burst}")
    if len(arrivals) != len(sizes):
        raise ConfigurationError("arrivals and sizes must have equal length")
    release: list[float] = []
    tokens = burst
    clock = 0.0
    prev = 0.0
    for arrival, size in zip(arrivals, sizes):
        eligible = arrival if arrival > prev else prev
        tokens = min(burst, tokens + (eligible - clock) * rate)
        if tokens >= size:
            out = eligible
            tokens -= size
        else:
            out = eligible + (size - tokens) / rate
            tokens = 0.0
        release.append(out)
        clock = out
        prev = out
    return release


def wfq_emission(
    releases: Sequence[Sequence[float]],
    sizes: Sequence[Sequence[int]],
    weights: Sequence[float],
    capacity: float,
) -> list[tuple[int, int, float]]:
    """SCFQ dispatch order and emission start times across tenants.

    ``releases[i]``/``sizes[i]`` are tenant ``i``'s shaped stream (both
    non-decreasing in time, FIFO per tenant).  Returns one
    ``(tenant, k, emit_start)`` triple per request in emission order;
    start times are strictly increasing (each emission occupies
    ``size / capacity`` seconds of the dispatcher), and each tenant's
    own requests stay in order.  Ties in finish tags break by
    ``(tenant, k)`` — fully deterministic.
    """
    if not 0.0 < capacity < math.inf:
        raise ConfigurationError(f"capacity must be finite and > 0, got {capacity}")
    if not len(releases) == len(sizes) == len(weights):
        raise ConfigurationError("per-tenant inputs must have equal length")
    for weight in weights:
        if not 0.0 < weight < math.inf:
            raise ConfigurationError(f"weight must be finite and > 0, got {weight}")
    events: list[tuple[float, int, int]] = []
    for i, stream in enumerate(releases):
        if len(stream) != len(sizes[i]):
            raise ConfigurationError(
                f"tenant {i}: releases and sizes must have equal length"
            )
        for k, when in enumerate(stream):
            events.append((when, i, k))
    events.sort()
    total = len(events)
    out: list[tuple[int, int, float]] = []
    ready: list[tuple[float, int, int, float]] = []  # (tag, tenant, k, release)
    finish = [0.0] * len(releases)
    virtual = 0.0
    free = 0.0
    cursor = 0
    while len(out) < total:
        if ready:
            threshold = free
        else:
            # dispatcher idle: jump to the next release
            threshold = max(free, events[cursor][0])
        while cursor < total and events[cursor][0] <= threshold:
            when, i, k = events[cursor]
            cursor += 1
            base = finish[i] if finish[i] > virtual else virtual
            tag = base + sizes[i][k] / weights[i]
            finish[i] = tag
            heappush(ready, (tag, i, k, when))
        tag, i, k, when = heappop(ready)
        virtual = tag
        start = free if free > when else when
        out.append((i, k, start))
        free = start + sizes[i][k] / capacity
    return out

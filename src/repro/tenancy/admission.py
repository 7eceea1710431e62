"""Admission control: at most ``max_active`` tenants in flight.

A thousand tenants arriving in one burst would melt any real cluster's
metadata path before a single byte moved; admission control is what a
service front end does about it.  This one is the classic k-slot
queue, made deterministic: tenants are considered in id order, each
occupies a slot from its (possibly delayed) admission until its
*estimated* completion — native span plus demand over the cluster's
nominal capacity — and a tenant whose slots are all busy is shifted,
whole, to the earliest slot release.  The shift is a uniform
translation of the tenant's arrival stream, so its internal order and
pacing are untouched (which keeps premapped per-file request runs
valid downstream).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Sequence

from ..exceptions import ConfigurationError

__all__ = ["admission_offsets"]


def admission_offsets(
    first_arrivals: Sequence[float],
    last_arrivals: Sequence[float],
    demands: Sequence[int],
    capacity: float,
    max_active: int,
) -> list[float]:
    """Per-tenant start delays under a ``max_active``-slot front end.

    ``first_arrivals``/``last_arrivals`` bound tenant ``i``'s native
    stream; ``demands[i]`` is its total bytes.  Returns one
    non-negative offset per tenant: add it to every arrival of that
    tenant.  ``max_active`` of at least the tenant count admits
    everyone immediately (all offsets zero).
    """
    if max_active < 1:
        raise ConfigurationError(f"max_active must be >= 1, got {max_active}")
    if not 0.0 < capacity < math.inf:
        raise ConfigurationError(f"capacity must be finite and > 0, got {capacity}")
    n = len(first_arrivals)
    if not n == len(last_arrivals) == len(demands):
        raise ConfigurationError("per-tenant inputs must have equal length")
    slots: list[float] = []  # estimated release times of busy slots
    offsets: list[float] = []
    for i in range(n):
        if len(slots) < max_active:
            free = 0.0
        else:
            free = heappop(slots)
        admit = first_arrivals[i] if first_arrivals[i] > free else free
        offset = admit - first_arrivals[i]
        span = last_arrivals[i] - first_arrivals[i]
        heappush(slots, admit + span + demands[i] / capacity)
        offsets.append(offset)
    return offsets

"""The end-to-end benchmark's workloads: seeded inputs, timed call, checks.

Each workload is the module of this package named after it (``-``
becomes ``_``), so a sample process imports only the program modules
its own workload uses, and ``setup_s`` follows them.  A workload module
defines:

* ``JOBS``: the ``REPRO_JOBS`` it pins (the sample caps it at ``nproc``);
* ``prepare(spec, seed, workdir)``: builds the seeded inputs (not timed);
  ``workdir`` is an empty directory the sample owns;
* ``run(spec, inputs)``: the timed call into the program's public entry
  points;
* ``check(inputs, result)``: verifies the output (not timed) and returns
  an :class:`Outcome`: the requests the call pushed through the program,
  counted from the benchmark's own inputs, a digest of the full result
  surface, and the simulated bandwidth (the paper's metric, reported
  beside host time and never mixed with it).

A check that fails raises :class:`CheckError`, which fails the sample.
Seed ``S`` reaches every generator: the IOR seed is ``S``, the fault-plan
seed ``DEFAULT_FAULT_SEED + S`` and the arrival seed
``DEFAULT_ARRIVAL_SEED + S``, so ``S = 0`` gives each CLI's defaults.

This module imports nothing from the program.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from types import ModuleType
from typing import Any

import numpy as np

__all__ = ["CheckError", "Outcome", "load", "require", "check_replay", "hash_metrics"]


class CheckError(AssertionError):
    """A workload's output failed verification."""


@dataclass(frozen=True)
class Outcome:
    """What one sample's result verified to."""

    requests: int
    digest: str
    sim_bw_mib_s: float


def load(name: str) -> ModuleType:
    """Import the module of workload ``name`` and the program modules it uses."""
    return importlib.import_module(f"{__name__}.{name.replace('-', '_')}")


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def hash_metrics(hasher: Any, m: Any) -> None:
    """Feed every field of one ``RunMetrics`` into ``hasher``."""
    hasher.update(
        f"{m.makespan!r}|{m.total_bytes}|{m.requests}|{m.read_bytes}|"
        f"{m.write_bytes}|{[repr(b) for b in m.per_server_busy]}|"
        f"{m.per_server_bytes}\n".encode()
    )
    hasher.update(np.asarray(m.latencies, dtype=np.float64).tobytes())
    hasher.update(np.asarray(m.latency_ranks, dtype=np.int64).tobytes())


def check_replay(m: Any, trace: Any, what: str) -> None:
    """Every request of ``trace`` replayed, bytes conserved, sane makespan."""
    require(m.requests == len(trace), f"{what}: replayed {m.requests} of {len(trace)}")
    require(m.total_bytes == trace.total_bytes(), f"{what}: byte count differs")
    require(sum(m.per_server_bytes) >= m.total_bytes, f"{what}: bytes lost")
    require(math.isfinite(m.makespan) and m.makespan > 0, f"{what}: bad makespan")

"""``replay-long``: subsequent runs of a profiled application, under faults.

The profile (IOR, 32 ranks, 16+64 KiB, 32 MiB) is tiled into a long
replay, passes alternating write and read, and replayed by DEF and MHA
(flat engine) and MHA+SAW (event engine) under slowdown and scrub
faults.  Planning is a few percent; the replay engines do the work, and
the repeated extents keep the DRT hot-entry LRU warm.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster import ClusterSpec
from repro.config import DEFAULT_FAULT_SEED
from repro.harness.chaos import chaos_fault_plan
from repro.harness.experiment import run_scheme
from repro.tracing.columnar import OP_NAMES, ColumnarTrace
from repro.units import KiB, MiB
from repro.workloads.base import PHASE_GAP
from repro.workloads.ior import IORWorkload

from . import Outcome, check_replay, hash_metrics, require

JOBS = 1
RANKS = 32
SIZES_KIB = (16, 64)
TOTAL_MIB = 32
#: how many times the replay tiles the profile
PASSES = 20
SCHEMES = ("DEF", "MHA", "MHA+SAW")
FAULT_INTENSITY = 0.5


def tile_passes(profile: ColumnarTrace, passes: int) -> ColumnarTrace:
    """The profile repeated ``passes`` times, alternating write and read
    passes, each pass shifted past the previous one in time."""
    base = profile.data
    period = float(base["timestamp"].max()) + PHASE_GAP
    tiles = []
    for p in range(passes):
        tile = base.copy()
        tile["op"] = OP_NAMES.index("write" if p % 2 == 0 else "read")
        tile["timestamp"] += p * period
        tiles.append(tile)
    return ColumnarTrace(np.concatenate(tiles), profile.interned_files)


def prepare(spec: ClusterSpec, seed: int, workdir: Path) -> dict:
    profile = IORWorkload(
        num_processes=RANKS,
        request_sizes=[k * KiB for k in SIZES_KIB],
        total_size=TOTAL_MIB * MiB,
        seed=seed,
    ).columnar("write")
    return {
        "profile": profile,
        "replay": tile_passes(profile, PASSES),
        "fault_plan": chaos_fault_plan(
            spec, FAULT_INTENSITY, seed=DEFAULT_FAULT_SEED + seed
        ),
    }


def run(spec: ClusterSpec, inputs: dict) -> Any:
    return [
        run_scheme(
            name,
            spec,
            inputs["profile"],
            inputs["replay"],
            fault_plan=inputs["fault_plan"],
            keep_latencies=True,
        )
        for name in SCHEMES
    ]


def check(inputs: dict, result: Any) -> Outcome:
    replay = inputs["replay"]
    hasher = hashlib.sha256()
    for run in result:
        check_replay(run.metrics, replay, f"replay-long/{run.scheme}")
        require(
            len(run.metrics.latencies) == len(replay),
            f"replay-long/{run.scheme}: latencies not kept",
        )
        hasher.update(run.scheme.encode())
        hash_metrics(hasher, run.metrics)
    return Outcome(
        requests=len(replay) * len(result),
        digest=hasher.hexdigest(),
        sim_bw_mib_s=result[-1].bandwidth_mib,
    )

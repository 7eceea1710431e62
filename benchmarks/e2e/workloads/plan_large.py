"""``plan-large``: the off-line MHA optimizer at scale, with durable metadata.

IOR over one shared file (64 ranks, 16/64/256 KiB), planned by
``MHAPipeline`` into on-disk DRT/RST files, reloaded with ``load_plan``
and replayed once through the reloaded redirector.  The flush policy is
the one every caller uses: HashDB ``sync=True``, one fsync per DRT entry.
RSSD search and the kvstore writes do the work; the replay is cold.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

from repro.cluster import ClusterSpec
from repro.core.pipeline import MHAPipeline, load_plan
from repro.pfs.replay import run_workload
from repro.units import KiB, MiB
from repro.workloads.ior import IORWorkload

from . import Outcome, check_replay, hash_metrics, require

JOBS = 1
RANKS = 64
SIZES_KIB = (16, 64, 256)
TOTAL_MIB = 512


def prepare(spec: ClusterSpec, seed: int, workdir: Path) -> dict:
    trace = IORWorkload(
        num_processes=RANKS,
        request_sizes=[k * KiB for k in SIZES_KIB],
        total_size=TOTAL_MIB * MiB,
        seed=seed,
    ).columnar("write")
    return {"trace": trace, "drt": workdir / "drt.db", "rst": workdir / "rst.db"}


def run(spec: ClusterSpec, inputs: dict) -> Any:
    trace = inputs["trace"]
    plan = MHAPipeline(spec, drt_path=inputs["drt"], rst_path=inputs["rst"]).plan(
        trace
    )
    plan.drt.close()
    plan.rst.close()
    loaded = load_plan(spec, inputs["drt"], inputs["rst"])
    try:
        metrics = run_workload(spec, loaded.redirector, trace)
    finally:
        loaded.drt.close()
        loaded.rst.close()
    return plan, loaded, metrics


def check(inputs: dict, result: Any) -> Outcome:
    plan, loaded, metrics = result
    trace = inputs["trace"]
    require(len(plan.drt) > 0, "plan-large: empty DRT")
    require(list(loaded.drt) == list(plan.drt), "plan-large: DRT did not reload")
    require(list(loaded.rst) == list(plan.rst), "plan-large: RST did not reload")
    check_replay(metrics, trace, "plan-large")
    hasher = hashlib.sha256()
    for e in plan.drt:
        hasher.update(
            f"{e.o_file},{e.o_offset},{e.length},{e.r_file},{e.r_offset}\n".encode()
        )
    for region, pair in plan.rst:
        hasher.update(f"{region},{pair.h},{pair.s}\n".encode())
    hash_metrics(hasher, metrics)
    return Outcome(
        requests=len(trace),
        digest=hasher.hexdigest(),
        sim_bw_mib_s=metrics.bandwidth / MiB,
    )

#!/usr/bin/env python
"""Operating MHA on a degraded cluster (beyond the paper).

Storage clusters develop stragglers.  This example shows the whole
operational loop the library supports:

1. measure the healthy baseline;
2. inject a 4x slowdown into one HServer and watch every layout suffer;
3. *re-profile* — a calibration pass on the degraded cluster measures
   the slower HServer class — and re-plan MHA with the degraded
   parameters, shifting load off the sick class;
4. compare against simply re-running the stale (healthy-cluster) plan.

Run::

    python examples/degraded_cluster.py
"""

import math
from dataclasses import replace

from repro import ClusterSpec
from repro.core import MHAPipeline
from repro.faults import ServerFaultState, Window
from repro.pfs import HybridPFS, replay_trace
from repro.units import KiB, MiB, format_bandwidth
from repro.workloads import IORWorkload

SLOWDOWN = 4.0
SICK_SERVER = 0


def run(spec, view, trace, slow_server=None):
    pfs = HybridPFS(spec)
    if slow_server is not None:
        pfs.servers[slow_server].faults = ServerFaultState(
            windows=[Window(0.0, math.inf, SLOWDOWN)]
        )
    return replay_trace(pfs, view, trace)


def main() -> None:
    spec = ClusterSpec()
    trace = IORWorkload(
        num_processes=16,
        request_sizes=[128 * KiB, 256 * KiB],
        total_size=32 * MiB,
        seed=11,
    ).trace("write")

    # 1. healthy baseline
    healthy_pipeline = MHAPipeline(spec, seed=0)
    healthy_plan = healthy_pipeline.plan(trace)
    healthy = run(spec, healthy_plan.redirector, trace)
    print(f"healthy cluster, MHA plan:      {format_bandwidth(healthy.bandwidth)}")

    # 2. degrade one HServer; stale plan keeps striping onto it
    stale = run(spec, healthy_plan.redirector, trace, slow_server=SICK_SERVER)
    print(f"h{SICK_SERVER} {SLOWDOWN:.0f}x slower, stale plan:  "
          f"{format_bandwidth(stale.bandwidth)} "
          f"({stale.bandwidth / healthy.bandwidth - 1:+.0%})")

    # 3. re-profile and re-plan: the calibration pass now measures the
    #    HServer class as slower on average
    degraded_params = replace(
        healthy_pipeline.params,
        alpha_h=healthy_pipeline.params.alpha_h * SLOWDOWN,
        beta_h=healthy_pipeline.params.beta_h * SLOWDOWN,
    )
    replan_pipeline = MHAPipeline(spec, seed=0)
    replan_pipeline.params = degraded_params
    replan = replan_pipeline.plan(trace)
    adapted = run(spec, replan.redirector, trace, slow_server=SICK_SERVER)
    print(f"h{SICK_SERVER} {SLOWDOWN:.0f}x slower, re-planned:  "
          f"{format_bandwidth(adapted.bandwidth)} "
          f"({adapted.bandwidth / stale.bandwidth - 1:+.0%} vs stale)")

    print("\nstripe pairs (healthy -> re-planned):")
    healthy_pairs = dict(healthy_plan.rst)
    for region, new_pair in replan.rst:
        old = healthy_pairs.get(region)
        print(f"  {region}: {old} -> {new_pair}")


if __name__ == "__main__":
    main()

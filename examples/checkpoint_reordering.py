#!/usr/bin/env python
"""The full five-phase MHA workflow on a checkpointing application.

This example follows the paper's deployment story end to end:

1. **tracing** — the application's first run, on the default layout,
   is profiled into a trace;
2. **reordering + determination + placement** — the off-line pipeline
   groups the requests, migrates each group into a region, and picks
   per-region stripe pairs with the cost model;
3. **redirection** — the application's next run issues the same
   requests unchanged; the redirector sends them through the DRT to
   the optimized regions.

The application is LANL-like: every loop of every rank writes a tiny
header (16 B), a large payload (128 KiB - 16 B), and a checkpoint block
(128 KiB).  ``LANLWorkload`` generates that profile; both runs replay
it, each through its file view, the interception point the paper hooks
into MPI-IO's ADIO layer (§IV-B).

Run::

    python examples/checkpoint_reordering.py
"""

from repro import ClusterSpec, MHAPipeline
from repro.pfs import run_workload
from repro.schemes import DEFScheme
from repro.units import MiB, format_bandwidth
from repro.workloads import LANLWorkload

RANKS = 8
LOOPS = 32


def main() -> None:
    spec = ClusterSpec()

    # ---- first run: default layout, profiled (tracing phase)
    trace = LANLWorkload(num_processes=RANKS, loops=LOOPS, file="checkpoint.dat").trace(
        "write"
    )
    first = run_workload(spec, DEFScheme().build(spec, trace), trace)
    print(f"profiled run (DEF layout): {format_bandwidth(first.bandwidth)}"
          f" over {len(trace)} requests")

    # ---- off-line optimization (reordering/determination/placement)
    plan = MHAPipeline(spec, seed=0).plan(trace)
    print(f"\n{plan.describe()}")
    print(f"data migrated into regions: {plan.migrated_bytes() // MiB} MiB")

    # ---- subsequent run: same requests, redirected transparently
    second = run_workload(spec, plan.redirector, trace)
    print(f"\noptimized run (MHA layout): {format_bandwidth(second.bandwidth)}")
    print(f"speedup: {first.makespan / second.makespan:.2f}x, with "
          f"{plan.redirector.stats.requests} requests redirected through the DRT")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: compare MHA against DEF/AAL/HARL on a mixed workload.

The three steps of using this library:

1. describe the hybrid cluster (``ClusterSpec``);
2. obtain an application's I/O trace (here: a generated IOR-like
   workload, standing in for a profiled first run; see
   ``checkpoint_reordering.py`` for the whole workflow);
3. build each layout scheme from the trace and replay against the
   simulated PFS.

Run::

    python examples/quickstart.py
"""

from repro import ClusterSpec, compare_schemes
from repro.units import KiB, MiB, format_bandwidth
from repro.workloads import IORWorkload

def main() -> None:
    # the paper's testbed: six HDD servers, two SSD servers, GigE
    spec = ClusterSpec(num_hservers=6, num_sservers=2)

    # a heterogeneous access pattern: 32 processes issuing mixed
    # 128 KiB and 256 KiB requests at shuffled locations of one file
    workload = IORWorkload(
        num_processes=32,
        request_sizes=[128 * KiB, 256 * KiB],
        total_size=64 * MiB,
        seed=7,
    )
    trace = workload.trace("write")
    print(f"workload: IOR {workload.label()}KiB, {len(trace)} requests, "
          f"{trace.total_bytes() // MiB} MiB")

    comparison = compare_schemes(spec, trace)
    print(f"\n{'scheme':<8}{'bandwidth':>16}{'vs DEF':>10}")
    for name in ("DEF", "AAL", "HARL", "MHA"):
        bw = comparison.bandwidth(name)
        gain = comparison.improvement(name, over="DEF")
        print(f"{name:<8}{format_bandwidth(bw):>16}{gain:>+9.1%}")

    best = comparison.ranking()[0]
    print(f"\nbest scheme: {best} "
          f"(+{comparison.improvement(best, over='DEF'):.0%} over the default layout)")


if __name__ == "__main__":
    main()

"""Ablation — Algorithm 2's h = 0 extreme (SServer-only placement).

For small-request regions the optimal placement concentrates on the
SServers.  Verify MHA actually exercises the extreme on a small-request
workload, and that it pays off against the best no-extreme decision.
"""

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, determine_stripes
from repro.harness.experiment import run_scheme
from repro.schemes import MHAScheme
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def test_h_zero_ablation(once):
    spec = ClusterSpec()
    small = IORWorkload(
        num_processes=16, request_sizes=16 * KiB, total_size=8 * MiB
    ).trace("write")

    def run():
        measured = run_scheme("MHA", spec, small, scheme_kwargs={"seed": 0})
        scheme = MHAScheme(seed=0)
        scheme.build(spec, small)
        pairs = [pair for _, pair in scheme.plan.rst]
        return measured, pairs

    measured, pairs = once(run)
    print()
    print(f"MHA on 16KiB requests: {measured.bandwidth_mib:8.2f} MiB/s")
    print("chosen pairs:", [str(p) for p in pairs])
    # the SServer-only extreme is used for small requests
    assert any(p.h == 0 for p in pairs)

    # and the cost model agrees the extreme beats any h > 0 candidate
    params = CostModelParams.from_cluster(spec)
    count = 32
    offsets = np.arange(count, dtype=np.int64) * 16 * KiB
    lengths = np.full(count, 16 * KiB, dtype=np.int64)
    is_read = np.zeros(count, dtype=bool)
    bursts = np.repeat(np.arange(2), 16)
    free = determine_stripes(params, offsets, lengths, is_read, bursts)
    forced = determine_stripes(
        params, offsets, lengths, is_read, bursts, allow_h_zero=False
    )
    print(f"free search: {free.pair} cost {free.cost * 1e3:.3f}ms")
    print(f"h>0 forced:  {forced.pair} cost {forced.cost * 1e3:.3f}ms")
    assert free.pair.h == 0
    assert free.cost <= forced.cost

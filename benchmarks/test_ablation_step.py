"""Ablation — RSSD step granularity (§III-F).

"Generally finer 'step' values result in more precise stripe pairs,
but with increased calculation overhead."  Verify both halves: a finer
step never yields a worse modelled cost, and evaluates more candidates.
"""

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, determine_stripes
from repro.units import KiB


def test_step_ablation(once):
    params = CostModelParams.from_cluster(ClusterSpec())
    count = 16
    offsets = np.arange(count, dtype=np.int64) * 96 * KiB
    lengths = np.full(count, 96 * KiB, dtype=np.int64)
    is_read = np.zeros(count, dtype=bool)
    bursts = np.repeat(np.arange(2), 8)

    def sweep():
        return {
            step: determine_stripes(
                params, offsets, lengths, is_read, bursts, step=step
            )
            for step in (4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB)
        }

    decisions = once(sweep)
    print()
    for step, d in decisions.items():
        print(
            f"step {step // KiB:>3}KiB: pair {d.pair}, cost {d.cost * 1e3:8.3f}ms, "
            f"{d.candidates} candidates"
        )
    steps = sorted(decisions)
    for fine, coarse in zip(steps, steps[1:]):
        assert decisions[fine].cost <= decisions[coarse].cost + 1e-12
        assert decisions[fine].candidates >= decisions[coarse].candidates

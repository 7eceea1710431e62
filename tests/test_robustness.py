"""Robustness properties: MHA on randomized workloads.

The figure benchmarks check the paper's specific workloads; these
property tests check that MHA's machinery never *breaks down* on
workloads nobody hand-picked: random size mixes, random concurrency,
random op mixes.  Two invariants:

* the plan is always structurally consistent (it passes the trace
  audit) and every request remains resolvable;
* MHA never loses catastrophically to the default layout — the paper's
  "effective tool for I/O performance optimization" framing implies it
  is safe to turn on.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.harness import compare_schemes
from repro.tracing import Trace, TraceRecord
from repro.units import KiB
from tests.plan_checks import audit_plan


def phased_trace(ops, sizes, procs):
    """Phases of one request per rank over one shared file.

    Phase ``p`` requests ``sizes[p % len(sizes)]`` KiB per rank at
    time ``p * 10 + rank * 1e-4``; ``ops`` gives every request's op in
    issue order, and offsets run back to back.
    """
    records = []
    offset = 0
    for i, op in enumerate(ops):
        phase, rank = divmod(i, procs)
        size = sizes[phase % len(sizes)] * KiB
        records.append(
            TraceRecord(
                offset=offset,
                timestamp=phase * 10.0 + rank * 1e-4,
                rank=rank,
                size=size,
                op=op,
                file="rand.dat",
            )
        )
        offset += size
    return Trace(records)


@st.composite
def random_workloads(draw):
    """A random phase-structured workload over one shared file."""
    rng_seed = draw(st.integers(min_value=0, max_value=999))
    rng = np.random.default_rng(rng_seed)
    n_sizes = draw(st.integers(min_value=1, max_value=3))
    sizes = [
        int(s) for s in rng.choice([4, 16, 64, 128, 256], size=n_sizes, replace=False)
    ]
    procs = draw(st.sampled_from([1, 2, 4, 8]))
    phases = draw(st.integers(min_value=2, max_value=8))
    write_fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    ops = [
        "write" if rng.random() < write_fraction else "read"
        for _ in range(phases * procs)
    ]
    return phased_trace(ops, sizes, procs)


#: Four ranks read alternating 64 KiB and 4 KiB phases.  Under fault
#: seed 0 the scrub on server 2 slows some reads, which reorders the
#: arrivals at the other servers' FIFO queues: the faulted replay ends
#: at 0.025609 s, before the healthy one at 0.026192 s.
FASTER_UNDER_FAULTS = phased_trace(["read"] * 16, [64, 4], procs=4)


class TestRandomWorkloads:
    @given(trace=random_workloads())
    @settings(max_examples=15, deadline=None)
    def test_plan_always_consistent(self, trace):
        spec = ClusterSpec()
        plan = MHAPipeline(spec, seed=0).plan(trace)
        audit_plan(plan, trace)
        assert sum(e.length for e in plan.drt) == plan.migrated_bytes()

    @given(trace=random_workloads())
    @settings(max_examples=8, deadline=None)
    def test_mha_never_catastrophic_vs_def(self, trace):
        spec = ClusterSpec()
        cmp = compare_schemes(spec, trace, ("DEF", "MHA"))
        # MHA may lose slightly on adversarial shapes, never badly
        assert cmp.bandwidth("MHA") >= 0.7 * cmp.bandwidth("DEF")

    def test_single_request_trace(self):
        spec = ClusterSpec()
        trace = Trace(
            [TraceRecord(offset=0, timestamp=0.0, rank=0, size=4096, op="read")]
        )
        audit_plan(MHAPipeline(spec, seed=0).plan(trace), trace)

    def test_huge_single_request(self):
        spec = ClusterSpec()
        trace = Trace(
            [
                TraceRecord(
                    offset=0, timestamp=0.0, rank=0, size=64 * 1024 * KiB, op="write"
                )
            ]
        )
        audit_plan(MHAPipeline(spec, seed=0).plan(trace), trace)


class TestFaultConservation:
    """Faults defer and dilate service but never change what is served.

    The conservation contract of :mod:`repro.faults`: with and without
    an attached plan, a replay moves exactly the same bytes to exactly
    the same servers — only the timing differs.
    """

    @staticmethod
    def _plan(seed):
        from repro.faults import (
            BackgroundScrub,
            FaultPlan,
            ServerOutage,
            TransientSlowdown,
            WriteCliff,
        )

        return FaultPlan(
            faults=(
                TransientSlowdown(
                    server=0, factor=4.0, windows=4, mean_duration=0.5, horizon=5.0
                ),
                ServerOutage(
                    server=1, at=0.01, duration=0.5, rebuild_duration=1.0,
                    rebuild_factor=2.0,
                ),
                BackgroundScrub(server=2, period=0.5, duty=0.2, factor=2.0),
                WriteCliff(
                    server=6, capacity_bytes=256 * KiB, factor=3.0, recovery_idle=0.1
                ),
            ),
            seed=seed,
        )

    @given(trace=random_workloads(), seed=st.integers(min_value=0, max_value=5))
    @example(trace=FASTER_UNDER_FAULTS, seed=0)
    @settings(max_examples=10, deadline=None)
    def test_faults_conserve_bytes(self, trace, seed):
        from repro.pfs import run_workload
        from repro.schemes import build_view

        spec = ClusterSpec()
        view = build_view("DEF", spec, trace)
        healthy = run_workload(spec, view, trace)
        faulted = run_workload(spec, view, trace, fault_plan=self._plan(seed))
        assert faulted.total_bytes == healthy.total_bytes
        assert faulted.read_bytes == healthy.read_bytes
        assert faulted.write_bytes == healthy.write_bytes
        assert faulted.per_server_bytes == healthy.per_server_bytes
        assert faulted.requests == healthy.requests
        if len(trace.ranks()) == 1:
            # one rank issues each request after the previous one
            # completed, so every queue is empty at issue and a fault
            # can only delay.  With more ranks, a slowed server
            # reorders arrivals at the other queues, and the run may
            # end sooner (FASTER_UNDER_FAULTS).
            assert faulted.makespan >= healthy.makespan

    @given(trace=random_workloads())
    @settings(max_examples=6, deadline=None)
    def test_faulted_comparison_conserves_per_scheme(self, trace):
        spec = ClusterSpec()
        healthy = compare_schemes(spec, trace, ("DEF", "MHA"))
        faulted = compare_schemes(
            spec, trace, ("DEF", "MHA"), fault_plan=self._plan(0)
        )
        for name in ("DEF", "MHA"):
            h, f = healthy[name].metrics, faulted[name].metrics
            assert f.per_server_bytes == h.per_server_bytes
            assert f.total_bytes == h.total_bytes

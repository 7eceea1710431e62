"""Tests for the trace replay engine."""

import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.layouts import FixedStripeLayout
from repro.pfs import HybridPFS, replay_trace, run_workload
from repro.schemes.base import LayoutView
from repro.tracing import Trace, TraceRecord
from repro.units import KiB, MiB


def rec(offset, size, ts, rank=0, op="write", file="f"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op, file=file)


def simple_view(spec, stripe=64 * KiB):
    return LayoutView({}, default=FixedStripeLayout(spec.server_ids, stripe, obj="f"))


@pytest.fixture
def spec():
    return ClusterSpec(num_hservers=2, num_sservers=2)


class TestReplay:
    def test_metrics_accounting(self, spec):
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(4)])
        metrics = run_workload(spec, simple_view(spec), trace)
        assert metrics.total_bytes == 4 * 64 * KiB
        assert metrics.requests == 4
        assert metrics.makespan > 0
        assert metrics.bandwidth > 0
        assert metrics.read_bytes == 0
        assert metrics.write_bytes == 4 * 64 * KiB

    def test_ranks_run_concurrently(self, spec):
        # two ranks, same work: makespan should be well below 2x serial
        one = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(8)])
        both = Trace(
            [rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(8)]
            + [rec((8 + i) * 64 * KiB, 64 * KiB, float(i), rank=1) for i in range(8)]
        )
        m1 = run_workload(spec, simple_view(spec), one)
        m2 = run_workload(spec, simple_view(spec), both)
        assert m2.makespan < 1.8 * m1.makespan

    def test_rank_requests_serialized(self, spec):
        # one rank's requests never overlap: makespan == sum of latencies
        trace = Trace([rec(i * MiB, 64 * KiB, float(i)) for i in range(4)])
        metrics = run_workload(spec, simple_view(spec), trace, keep_latencies=True)
        assert len(metrics.latencies) == 4
        assert metrics.makespan == pytest.approx(sum(metrics.latencies))

    def test_determinism(self, spec):
        trace = Trace(
            [rec(i * 64 * KiB, 64 * KiB, float(i % 3), rank=i % 3) for i in range(12)]
        )
        a = run_workload(spec, simple_view(spec), trace)
        b = run_workload(spec, simple_view(spec), trace)
        assert a.makespan == b.makespan
        assert a.per_server_busy == b.per_server_busy

    def test_empty_trace(self, spec):
        metrics = run_workload(spec, simple_view(spec), Trace([]))
        assert metrics.makespan == 0.0
        assert metrics.bandwidth == 0.0

    def test_load_imbalance_metric(self, spec):
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(16)])
        metrics = run_workload(spec, simple_view(spec), trace)
        assert metrics.load_imbalance() >= 1.0

    def test_shared_pfs_sequential_replays(self, spec):
        trace = Trace([rec(0, 64 * KiB, 0.0)])
        pfs = HybridPFS(spec)
        m1 = replay_trace(pfs, simple_view(spec), trace)
        m2 = replay_trace(pfs, simple_view(spec), trace)
        assert m1.total_bytes == m2.total_bytes
        assert m2.makespan > 0


class TestEngineNeedsBatchView:
    def test_view_without_merged_runs_replays_only_on_event_engine(self, spec):
        """The flat kernel premaps through ``merged_runs``: a view with
        only ``map_request`` is refused there, before any state moves,
        and replays on the event engine."""

        class PerRecordView:
            def __init__(self, inner):
                self.map_request = inner.map_request

        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(4)])
        pfs = HybridPFS(spec)
        with pytest.raises(ConfigurationError, match="merged_runs"):
            replay_trace(pfs, PerRecordView(simple_view(spec)), trace)
        assert pfs.sim.now == 0.0
        metrics = replay_trace(
            pfs, PerRecordView(simple_view(spec)), trace, engine="event"
        )
        assert metrics == run_workload(spec, simple_view(spec), trace)
        assert metrics.engine == "event"


class TestOnRecordHook:
    def test_hook_sees_every_record_at_issue_time(self, spec):
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(5)])
        seen = []
        pfs = HybridPFS(spec)
        replay_trace(pfs, simple_view(spec), trace, on_record=seen.append)
        assert seen == list(trace.sorted_by_time())

    def test_hook_spawned_background_work_excluded_from_makespan(self, spec):
        """A hook that spawns extra simulator work must not inflate the
        foreground makespan (but does extend the simulator clock)."""
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(3)])
        pfs = HybridPFS(spec)

        def lingering():
            yield 100.0

        fired = []

        def hook(record):
            if not fired:
                fired.append(record)
                pfs.sim.spawn(lingering(), name="background")

        metrics = replay_trace(pfs, simple_view(spec), trace, on_record=hook)
        assert metrics.makespan < 100.0
        assert pfs.sim.now >= 100.0


class TestBarrierGap:
    def two_phase_trace(self):
        """Two ranks, two phases 10s apart; rank 1's phase-1 work is
        8x larger, so without barriers rank 0 races deep into phase 2."""
        records = []
        for rank in (0, 1):
            size = 64 * KiB if rank == 0 else 512 * KiB
            records.append(rec(rank * 4 * MiB, size, 0.0 + rank * 1e-4, rank=rank))
            records.append(
                rec(2 * MiB + rank * 4 * MiB, 64 * KiB, 10.0 + rank * 1e-4, rank=rank)
            )
        return Trace(records)

    def test_phases_issue_in_order(self, spec):
        trace = self.two_phase_trace()
        order = []
        pfs = HybridPFS(spec)
        replay_trace(
            pfs,
            simple_view(spec),
            trace,
            on_record=lambda r: order.append(r.timestamp),
            barrier_gap=5.0,
        )
        # all phase-1 records (t < 5) issue before any phase-2 record
        first_phase2 = next(i for i, t in enumerate(order) if t >= 5.0)
        assert all(t >= 5.0 for t in order[first_phase2:])
        assert all(t < 5.0 for t in order[:first_phase2])

    def test_no_barrier_keeps_ranks_independent(self, spec):
        trace = self.two_phase_trace()
        order = []
        replay_trace(
            HybridPFS(spec),
            simple_view(spec),
            trace,
            on_record=lambda r: order.append((r.rank, r.timestamp)),
        )
        # rank 0 issues its phase-2 record while rank 1 is still in phase 1
        assert order.index((0, 10.0)) < order.index((1, 10.0001))

    def test_barrier_metrics_consistent(self, spec):
        trace = self.two_phase_trace()
        free = run_workload(spec, simple_view(spec), trace)
        pfs = HybridPFS(spec)
        gated = replay_trace(pfs, simple_view(spec), trace, barrier_gap=5.0)
        assert gated.total_bytes == free.total_bytes
        # synchronization can only slow the replay down
        assert gated.makespan >= free.makespan

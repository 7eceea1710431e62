"""Tests for the simulator extensions: latency percentiles, client
NICs, and straggler injection."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.faults import ServerFaultState, TransientSlowdown, Window
from repro.layouts import FixedStripeLayout
from repro.pfs import HybridPFS, replay_trace, run_workload
from repro.schemes.base import LayoutView
from repro.tracing import Trace, TraceRecord
from repro.units import KiB, MiB


def rec(offset, size, ts, rank=0, op="write"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op, file="f")


def view_for(spec):
    return LayoutView({}, default=FixedStripeLayout(spec.server_ids, 64 * KiB, obj="f"))


def slowed(factor):
    """A fault timeline that runs a server ``factor`` times slower
    for the whole replay."""
    return ServerFaultState(windows=[Window(0.0, math.inf, factor)])


class TestLatencyPercentiles:
    def test_percentiles_ordered(self):
        spec = ClusterSpec()
        trace = Trace(
            [rec(i * 256 * KiB, 64 * KiB * (1 + i % 4), float(i % 4), rank=i % 4)
             for i in range(24)]
        )
        metrics = run_workload(spec, view_for(spec), trace, keep_latencies=True)
        assert 0 < metrics.p50_latency <= metrics.p99_latency
        assert metrics.latency_percentile(0) <= metrics.p50_latency
        assert metrics.p99_latency <= metrics.latency_percentile(100)

    def test_zero_without_keep(self):
        spec = ClusterSpec()
        trace = Trace([rec(0, 64 * KiB, 0.0)])
        metrics = run_workload(spec, view_for(spec), trace)
        assert metrics.p50_latency == 0.0

    def test_bad_quantile(self):
        spec = ClusterSpec()
        metrics = run_workload(spec, view_for(spec), Trace([rec(0, 64 * KiB, 0.0)]))
        with pytest.raises(ValueError):
            metrics.latency_percentile(101)


class TestClientNICs:
    def _trace(self, ranks):
        return Trace(
            [rec(r * 4 * MiB + i * 256 * KiB, 256 * KiB, float(i), rank=r)
             for r in range(ranks) for i in range(8)]
        )

    def test_disabled_by_default(self):
        spec = ClusterSpec()
        pfs = HybridPFS(spec)
        assert pfs.client_links is None

    def test_client_contention_slows_colocated_ranks(self):
        # 16 ranks on 2 client nodes vs 16 ranks on 16 nodes
        trace = self._trace(16)
        crowded = ClusterSpec(num_clients=2, model_client_nics=True)
        roomy = ClusterSpec(num_clients=16, model_client_nics=True)
        m_crowded = run_workload(crowded, view_for(crowded), trace)
        m_roomy = run_workload(roomy, view_for(roomy), trace)
        assert m_crowded.makespan > m_roomy.makespan

    def test_modeling_off_equals_many_clients_upper_bound(self):
        trace = self._trace(8)
        off = ClusterSpec(model_client_nics=False)
        on = ClusterSpec(num_clients=8, model_client_nics=True)
        m_off = run_workload(off, view_for(off), trace)
        m_on = run_workload(on, view_for(on), trace)
        # the client stage can only add time
        assert m_on.makespan >= m_off.makespan

    def test_ratio_copy_preserves_flag(self):
        spec = ClusterSpec(model_client_nics=True).with_ratio(4, 4)
        assert spec.model_client_nics is True


class TestStragglerInjection:
    def test_slow_server_stretches_makespan(self):
        spec = ClusterSpec()
        trace = Trace([rec(i * 512 * KiB, 512 * KiB, float(i)) for i in range(8)])
        healthy = run_workload(spec, view_for(spec), trace)

        pfs = HybridPFS(spec)
        pfs.servers[0].faults = slowed(4.0)
        degraded = replay_trace(pfs, view_for(spec), trace)
        assert degraded.makespan > healthy.makespan

    def test_slowdown_scales_busy_time(self):
        spec = ClusterSpec(num_hservers=1, num_sservers=0)
        trace = Trace([rec(0, 64 * KiB, 0.0)])
        pfs = HybridPFS(spec)
        base = replay_trace(pfs, view_for(spec), trace).per_server_busy[0]
        pfs2 = HybridPFS(spec)
        pfs2.servers[0].faults = slowed(2.0)
        doubled = replay_trace(pfs2, view_for(spec), trace).per_server_busy[0]
        assert doubled == pytest.approx(2 * base)

    def test_invalid_slowdown(self):
        with pytest.raises(ConfigurationError, match="slowdown factor"):
            TransientSlowdown(server=0, factor=0.0)

    def test_mha_replan_routes_around_straggler(self):
        """Robustness extension: re-profiling on a degraded cluster and
        re-planning with degraded parameters shifts load away from the
        slow server class."""
        from repro.core import CostModelParams, determine_stripes
        import numpy as np

        spec = ClusterSpec()
        params = CostModelParams.from_cluster(spec)
        offsets = np.arange(8, dtype=np.int64) * 256 * KiB
        lengths = np.full(8, 256 * KiB, dtype=np.int64)
        is_read = np.zeros(8, dtype=bool)
        bursts = np.zeros(8, dtype=np.int64)  # one burst of 8
        healthy = determine_stripes(params, offsets, lengths, is_read, bursts)
        # HServers measured 4x slower during re-profiling
        from dataclasses import replace

        degraded_params = replace(
            params, alpha_h=4 * params.alpha_h, beta_h=4 * params.beta_h
        )
        degraded = determine_stripes(
            degraded_params, offsets, lengths, is_read, bursts
        )
        assert degraded.h <= healthy.h  # load shifts off the slow class

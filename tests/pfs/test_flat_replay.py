"""Flat replay kernel: bit-identity with the event engine + fallbacks.

The flat kernel (:mod:`repro.pfs.flat`) is the default replay engine
and must be *float-bit-identical* to the event engine on everything a
replay measures — so every equality here is exact, never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pfs.replay as replay_mod
from repro.cluster import ClusterSpec
from repro.core import DRT
from repro.layouts import FixedStripeLayout
from repro.pfs import HybridPFS, replay_trace, run_workload
from repro.schemes import build_view, scheme_names
from repro.schemes.base import LayoutView
from repro.tracing import Trace, TraceRecord, as_columnar_trace
from repro.tracing.columnar import OP_NAMES, ColumnarTrace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from repro.workloads.base import PHASE_GAP


def rec(offset, size, ts, rank=0, op="write", file="f"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op, file=file)


def simple_view(spec, stripe=64 * KiB):
    return LayoutView({}, default=FixedStripeLayout(spec.server_ids, stripe, obj="f"))


def run_both(spec, view_of, trace, **kwargs):
    """Replay the same trace through both engines on fresh PFS twins."""
    results = []
    for engine in ("event", "flat"):
        pfs = HybridPFS(spec)
        metrics = replay_trace(pfs, view_of(), trace, engine=engine, **kwargs)
        results.append((metrics, pfs))
    return results


def assert_identical(event, flat):
    """Exact equality on every replayed observable."""
    (em, epfs), (fm, fpfs) = event, flat
    assert fm.makespan == em.makespan
    assert fm.latencies == em.latencies
    assert fm.per_server_busy == em.per_server_busy
    assert fm.per_server_bytes == em.per_server_bytes
    assert fm.total_bytes == em.total_bytes
    assert fm.requests == em.requests
    for fsrv, esrv in zip(fpfs.servers, epfs.servers):
        assert fsrv.stats == esrv.stats
    assert fpfs.sim.now == epfs.sim.now


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", scheme_names())
    @pytest.mark.parametrize("nics", [False, True])
    def test_every_scheme_matches_event_engine(self, scheme, nics):
        spec = ClusterSpec(model_client_nics=nics)
        trace = IORWorkload(
            num_processes=4,
            request_sizes=[16 * KiB, 64 * KiB],
            total_size=4 * MiB,
            seed=3,
            file="f",
        ).trace("write")
        event, flat = run_both(
            spec,
            lambda: build_view(scheme, spec, trace),
            trace,
            keep_latencies=True,
        )
        assert event[0].makespan > 0
        assert_identical(event, flat)

    @pytest.mark.parametrize("scheme", ["DEF", "MHA"])
    def test_barrier_gap_matches_event_engine(self, scheme):
        spec = ClusterSpec(model_client_nics=True)
        trace = IORWorkload(
            num_processes=4,
            request_sizes=[16 * KiB, 64 * KiB],
            total_size=4 * MiB,
            seed=5,
            file="f",
        ).trace("write")
        event, flat = run_both(
            spec,
            lambda: build_view(scheme, spec, trace),
            trace,
            keep_latencies=True,
            barrier_gap=PHASE_GAP / 2,
        )
        assert_identical(event, flat)

    def test_read_op_and_mixed_ranks(self):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        trace = Trace(
            [rec(i * 48 * KiB, 48 * KiB, float(i % 3), rank=i % 3, op="read") for i in range(12)]
        )
        event, flat = run_both(spec, lambda: simple_view(spec), trace, keep_latencies=True)
        assert_identical(event, flat)

    def test_empty_trace(self):
        spec = ClusterSpec()
        metrics = run_workload(spec, simple_view(spec), Trace([]), engine="flat")
        assert metrics.makespan == 0.0

    def test_duplicated_records_with_barriers(self):
        """Identical records (same rank/offset/size/timestamp) are legal
        in a trace; the barrier index is keyed by position, so each copy
        occupies its own phase slot in both engines."""
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        dup = rec(0, 64 * KiB, 0.0)
        records = [dup, dup, rec(0, 64 * KiB, 0.0, rank=1)]
        # second phase duplicates a first-phase record's value too
        records += [rec(0, 64 * KiB, 20.0), rec(0, 64 * KiB, 20.0, rank=1)]
        trace = Trace(records)
        event, flat = run_both(
            spec, lambda: simple_view(spec), trace, keep_latencies=True, barrier_gap=5.0
        )
        assert len(event[0].latencies) == len(records)
        assert_identical(event, flat)

    def test_phase_index_keys_by_position(self):
        dup = rec(0, 64 * KiB, 0.0)
        phase_of, sizes = replay_mod._phase_index(
            as_columnar_trace(Trace([dup, dup, dup])), barrier_gap=5.0
        )
        assert phase_of == [0, 0, 0]
        assert sizes == [3]
        later = rec(0, 64 * KiB, 10.0)
        phase_of, sizes = replay_mod._phase_index(
            as_columnar_trace(Trace([dup, dup, later, later])), 5.0
        )
        assert phase_of == [0, 0, 1, 1]
        assert sizes == [2, 2]

    def test_shared_pfs_sequential_replays_match(self):
        """Back-to-back replays on one PFS leave the clock where the
        event engine would, so later replays stay identical too."""
        spec = ClusterSpec()
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(4)])
        event_pfs, flat_pfs = HybridPFS(spec), HybridPFS(spec)
        for _ in range(2):
            em = replay_trace(event_pfs, simple_view(spec), trace, engine="event")
            fm = replay_trace(flat_pfs, simple_view(spec), trace, engine="flat")
            assert fm.makespan == em.makespan
            assert flat_pfs.sim.now == event_pfs.sim.now


traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64),  # offset in 16 KiB units
        st.integers(min_value=1, max_value=12),  # size in 16 KiB units
        st.integers(min_value=0, max_value=3),  # phase index
        st.integers(min_value=0, max_value=4),  # rank
        st.sampled_from(["read", "write"]),
    ),
    min_size=1,
    max_size=24,
)


class TestPropertyEquivalence:
    @given(raw=traces, nics=st.booleans(), gap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_flat_equals_event_on_random_traces(self, raw, nics, gap):
        spec = ClusterSpec(num_hservers=2, num_sservers=2, model_client_nics=nics)
        trace = Trace(
            [
                rec(off * 16 * KiB, size * 16 * KiB, phase * 10.0, rank=rank, op=op)
                for off, size, phase, rank, op in raw
            ]
        )
        event, flat = run_both(
            spec,
            lambda: simple_view(spec, stripe=32 * KiB),
            trace,
            keep_latencies=True,
            barrier_gap=5.0 if gap else None,
        )
        assert_identical(event, flat)


class TestOpenArrivalEquivalence:
    """Open-loop replay must stay bit-identical across engines."""

    @given(raw=traces, nics=st.booleans(), gap=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_open_arrivals_flat_equals_event(self, raw, nics, gap):
        spec = ClusterSpec(num_hservers=2, num_sservers=2, model_client_nics=nics)
        trace = Trace(
            [
                rec(off * 16 * KiB, size * 16 * KiB, phase * 10.0, rank=rank, op=op)
                for off, size, phase, rank, op in raw
            ]
        )
        event, flat = run_both(
            spec,
            lambda: simple_view(spec, stripe=32 * KiB),
            trace,
            keep_latencies=True,
            barrier_gap=5.0 if gap else None,
            open_arrivals=True,
        )
        assert_identical(event, flat)
        assert flat[0].latency_ranks == event[0].latency_ranks

    def test_open_arrivals_defer_issue_to_timestamps(self):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        trace = Trace([rec(0, 16 * KiB, 0.0), rec(64 * KiB, 16 * KiB, 50.0)])
        closed = run_workload(spec, simple_view(spec), trace)
        opened = run_workload(
            spec, simple_view(spec), trace, open_arrivals=True
        )
        assert opened.makespan > closed.makespan
        assert opened.makespan >= 50.0
        assert opened.total_bytes == closed.total_bytes

    def test_latency_ranks_label_every_latency(self):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        trace = Trace(
            [rec(i * 64 * KiB, 16 * KiB, 0.0, rank=i % 3) for i in range(9)]
        )
        metrics = run_workload(
            spec, simple_view(spec), trace, keep_latencies=True
        )
        assert len(metrics.latency_ranks) == len(metrics.latencies)
        assert sorted(metrics.latency_ranks) == sorted(r.rank for r in trace)
        for rank in (0, 1, 2):
            group = metrics.group_latencies([rank])
            assert len(group) == 3
            assert metrics.group_latency_percentile([rank], 100.0) == max(group)
        assert metrics.group_latencies([99]) == []
        assert metrics.group_latency_percentile([99], 99.0) == 0.0
        with pytest.raises(ValueError):
            metrics.group_latency_percentile([0], 101.0)


class TestFaultEquivalence:
    """Fault injection must preserve engine bit-identity."""

    @staticmethod
    def plan(seed):
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
                    server=0, factor=3.0, windows=3, mean_duration=1.0, horizon=8.0
                ),
                ServerOutage(
                    server=1, at=0.5, duration=1.0, rebuild_duration=2.0,
                    rebuild_factor=2.0,
                ),
                BackgroundScrub(server=2, period=2.0, duty=0.5, factor=1.5),
                WriteCliff(server=3, capacity_bytes=64 * KiB, factor=2.0,
                           recovery_idle=0.5),
            ),
            seed=seed,
        )

    @given(raw=traces, nics=st.booleans(), gap=st.booleans(), seed=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_faulted_flat_equals_event(self, raw, nics, gap, seed):
        spec = ClusterSpec(num_hservers=2, num_sservers=2, model_client_nics=nics)
        trace = Trace(
            [
                rec(off * 16 * KiB, size * 16 * KiB, phase * 10.0, rank=rank, op=op)
                for off, size, phase, rank, op in raw
            ]
        )
        event, flat = run_both(
            spec,
            lambda: simple_view(spec, stripe=32 * KiB),
            trace,
            keep_latencies=True,
            barrier_gap=5.0 if gap else None,
            fault_plan=self.plan(seed),
        )
        assert_identical(event, flat)
        assert flat[0].per_server_latencies == event[0].per_server_latencies

    @pytest.mark.parametrize("scheme", ["SAW", "MHA+SAW"])
    @pytest.mark.parametrize("nics", [False, True])
    def test_feedback_schemes_match_event_engine(self, scheme, nics):
        """Straggler-aware dispatch redirects writes and steers the
        re-reads; both engines must agree on every redirect."""
        from repro.harness.chaos import chaos_fault_plan, chaos_trace

        spec = ClusterSpec(model_client_nics=nics)
        trace = chaos_trace(processes=8, phases=12)
        views = []

        def view_of():
            views.append(build_view(scheme, spec, trace, min_samples=2))
            return views[-1]

        event, flat = run_both(
            spec,
            view_of,
            trace,
            keep_latencies=True,
            fault_plan=chaos_fault_plan(spec, 1.0),
        )
        assert_identical(event, flat)
        assert flat[0].per_server_latencies == event[0].per_server_latencies
        event_view, flat_view = views
        assert flat_view.redirected_fragments == event_view.redirected_fragments > 0
        assert flat_view.replicated_bytes == event_view.replicated_bytes

    def test_faults_slow_the_replay_down(self):
        from repro.faults import FaultPlan, ServerOutage

        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, 0.0, rank=i) for i in range(6)])
        healthy = run_workload(spec, simple_view(spec), trace)
        plan = FaultPlan((ServerOutage(server=0, at=0.0, duration=1.0),))
        faulted = run_workload(spec, simple_view(spec), trace, fault_plan=plan)
        assert faulted.makespan > healthy.makespan
        assert faulted.makespan >= 1.0  # deferred past the outage
        assert faulted.total_bytes == healthy.total_bytes


class TestRepeatedExtents:
    """An application's subsequent runs revisit the extents its profiled
    run touched: the premap maps each distinct extent once."""

    PASSES = 20

    def tiled(self, processes=4, total=2 * MiB, passes=PASSES, seed=5):
        """A small IOR profile and the profile tiled ``passes`` times,
        alternating write and read passes."""
        profile = IORWorkload(
            num_processes=processes,
            request_sizes=[16 * KiB, 64 * KiB],
            total_size=total,
            seed=seed,
            file="f",
        ).columnar("write")
        base = profile.data
        period = float(base["timestamp"].max()) + PHASE_GAP
        tiles = []
        for p in range(passes):
            tile = base.copy()
            tile["op"] = OP_NAMES.index("write" if p % 2 == 0 else "read")
            tile["timestamp"] += p * period
            tiles.append(tile)
        return profile, ColumnarTrace(np.concatenate(tiles), profile.interned_files)

    @pytest.mark.parametrize("scheme", ["MHA", "MHA+SAW"])
    def test_premap_translates_each_distinct_extent_once(self, scheme, monkeypatch):
        spec = ClusterSpec()
        profile, replay = self.tiled()
        view = build_view(scheme, spec, profile)
        batches = []
        translate_many = DRT.translate_many

        def spy(drt, o_file, offsets, lengths):
            pairs = zip(np.asarray(offsets).tolist(), np.asarray(lengths).tolist())
            batches.append(list(pairs))
            return translate_many(drt, o_file, offsets, lengths)

        monkeypatch.setattr(DRT, "translate_many", spy)
        metrics = run_workload(spec, view, replay)
        assert metrics.engine == "flat"
        distinct = set(
            zip(profile.data["offset"].tolist(), profile.data["size"].tolist())
        )
        assert len(distinct) * self.PASSES == len(replay)
        (premapped,) = batches
        assert len(premapped) == len(set(premapped)) == len(distinct)
        assert set(premapped) == distinct

    def test_saw_replay_matches_event_engine(self):
        from repro.faults import BackgroundScrub, FaultPlan

        spec = ClusterSpec()
        slow = spec.sserver_ids[0]
        profile, replay = self.tiled()
        views = []

        def view_of():
            views.append(build_view("MHA+SAW", spec, profile, min_samples=2))
            return views[-1]

        event, flat = run_both(
            spec,
            view_of,
            replay,
            keep_latencies=True,
            # one SServer scrubs throughout, so SAW redirects writes off it
            fault_plan=FaultPlan(
                (BackgroundScrub(server=slow, period=1.0, duty=1.0, factor=4.0),)
            ),
        )
        assert_identical(event, flat)
        event_view, flat_view = views
        assert flat_view.redirected_fragments == event_view.redirected_fragments > 0

    def test_saw_covered_extents_match_event_engine_under_faults(self):
        """MHA+SAW under the chaos plan's slowdowns and scrubs: the
        straggler set moves, so later write passes add redirects to
        extents the flat kernel already served from its memo of covered
        extents, which must then be rebuilt."""
        from repro.harness.chaos import chaos_fault_plan

        spec = ClusterSpec()
        profile, replay = self.tiled(processes=16, total=8 * MiB, passes=12, seed=0)
        assert len(replay) == 2460
        views = []

        def view_of():
            views.append(build_view("MHA+SAW", spec, profile))
            return views[-1]

        event, flat = run_both(
            spec,
            view_of,
            replay,
            keep_latencies=True,
            fault_plan=chaos_fault_plan(spec, 0.5),
        )
        assert flat[0].engine == "flat"
        assert_identical(event, flat)
        event_view, flat_view = views
        assert flat_view.redirected_fragments == event_view.redirected_fragments > 0
        assert flat_view.replicated_bytes == event_view.replicated_bytes


class TestMemory:
    @pytest.mark.parametrize("scheme", ["DEF", "SAW"])
    def test_flat_replay_leaves_no_cyclic_garbage(self, scheme):
        """The premap and per-rank rows free when the kernel returns,
        not at the next cyclic collection: a long run keeps its earlier
        replays' results, and this garbage would sit on top of them."""
        import gc

        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i), rank=i % 3) for i in range(12)])
        view = build_view(scheme, spec, trace)
        pfs = HybridPFS(spec)
        gc.collect()
        gc.disable()
        try:
            metrics = replay_trace(pfs, view, trace, engine="flat")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert metrics.engine == "flat"


class TestEngineSelection:
    def make(self):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        trace = Trace([rec(i * 64 * KiB, 64 * KiB, float(i)) for i in range(3)])
        return spec, trace

    def test_unknown_engine_rejected(self):
        spec, trace = self.make()
        with pytest.raises(ValueError):
            replay_trace(HybridPFS(spec), simple_view(spec), trace, engine="warp")

    def test_explicit_event_engine_skips_flat(self, monkeypatch):
        spec, trace = self.make()
        monkeypatch.setattr(replay_mod, "replay_flat", self.boom)
        metrics = replay_trace(HybridPFS(spec), simple_view(spec), trace, engine="event")
        assert metrics.requests == 3
        assert metrics.engine == "event"

    @staticmethod
    def boom(*args, **kwargs):
        raise AssertionError("flat kernel must not be used here")

    def test_on_record_hook_falls_back_to_event(self, monkeypatch):
        spec, trace = self.make()
        monkeypatch.setattr(replay_mod, "replay_flat", self.boom)
        seen = []
        metrics = replay_trace(
            HybridPFS(spec), simple_view(spec), trace, engine="flat", on_record=seen.append
        )
        assert len(seen) == 3
        assert metrics.requests == 3
        assert metrics.engine == "event"

    def test_pending_events_fall_back_to_event(self, monkeypatch):
        spec, trace = self.make()
        pfs = HybridPFS(spec)

        def background():
            yield 1000.0

        pfs.sim.spawn(background(), name="bg")
        assert pfs.sim.pending() > 0
        monkeypatch.setattr(replay_mod, "replay_flat", self.boom)
        metrics = replay_trace(pfs, simple_view(spec), trace, engine="flat")
        assert metrics.requests == 3
        assert metrics.engine == "event"

    def test_feedback_view_takes_flat_kernel(self, monkeypatch):
        """The straggler-aware view replays on the flat kernel and equals
        the event engine (redirects under faults are compared by
        ``TestFaultEquivalence.test_feedback_schemes_match_event_engine``)."""
        from repro.schemes import make_scheme

        spec, trace = self.make()
        calls = []
        real = replay_mod.replay_flat

        def spy(*args, **kwargs):
            calls.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(replay_mod, "replay_flat", spy)
        event, flat = run_both(
            spec, lambda: make_scheme("SAW").build(spec, trace), trace, keep_latencies=True
        )
        assert calls == [True]
        assert (event[0].engine, flat[0].engine) == ("event", "flat")
        assert_identical(event, flat)

    def test_flat_is_the_default_engine(self, monkeypatch):
        from repro.config import DEFAULT_REPLAY_ENGINE

        assert DEFAULT_REPLAY_ENGINE == "flat"
        spec, trace = self.make()
        called = {}
        real = replay_mod.replay_flat

        def spy(*args, **kwargs):
            called["flat"] = True
            return real(*args, **kwargs)

        monkeypatch.setattr(replay_mod, "replay_flat", spy)
        metrics = replay_trace(HybridPFS(spec), simple_view(spec), trace)
        assert called.get("flat")
        assert metrics.engine == "flat"


class TestLatencyPercentileCache:
    def metrics(self, latencies):
        return replay_mod.RunMetrics(
            makespan=1.0,
            total_bytes=0,
            requests=len(latencies),
            per_server_busy=[],
            per_server_bytes=[],
            read_bytes=0,
            write_bytes=0,
            latencies=list(latencies),
        )

    def test_sorted_view_cached_and_reused(self):
        m = self.metrics([3.0, 1.0, 2.0])
        assert m.latency_percentile(0) == 1.0
        first = m._sorted_latencies
        assert first == [1.0, 2.0, 3.0]
        assert m.latency_percentile(100) == 3.0
        assert m._sorted_latencies is first

    def test_length_change_rebuilds(self):
        m = self.metrics([2.0, 1.0])
        assert m.latency_percentile(100) == 2.0
        m.latencies.append(0.5)
        assert m.latency_percentile(0) == 0.5

    def test_invalidate_after_in_place_mutation(self):
        m = self.metrics([1.0, 2.0, 3.0])
        assert m.latency_percentile(100) == 3.0
        m.latencies[0] = 9.0  # same length: cache would go stale
        m.invalidate_latency_cache()
        assert m.latency_percentile(100) == 9.0

    def test_percentile_validation_and_empty(self):
        m = self.metrics([])
        assert m.p99_latency == 0.0
        with pytest.raises(ValueError):
            m.latency_percentile(101)

    def test_server_percentiles(self):
        m = self.metrics([1.0, 2.0])
        m.per_server_latencies = [[3.0, 1.0, 2.0], []]
        assert m.server_latency_percentile(0, 0) == 1.0
        assert m.server_latency_percentile(0, 100) == 3.0
        assert m.server_latency_percentile(1, 99) == 0.0
        with pytest.raises(IndexError):
            m.server_latency_percentile(2, 50)
        with pytest.raises(ValueError):
            m.server_latency_percentile(0, -1)

    def test_server_percentile_cache_invalidation(self):
        m = self.metrics([1.0])
        m.per_server_latencies = [[2.0, 1.0]]
        assert m.server_latency_percentile(0, 100) == 2.0
        m.per_server_latencies[0][0] = 9.0
        m.invalidate_latency_cache()
        assert m.server_latency_percentile(0, 100) == 9.0

    def test_no_server_latencies_returns_zero(self):
        m = self.metrics([1.0])
        assert m.server_latency_percentile(0, 99) == 0.0

    def test_tail_properties(self):
        m = self.metrics([float(i) for i in range(1, 1001)])
        assert m.p95_latency == m.latency_percentile(95)
        assert m.p999_latency == m.latency_percentile(99.9)

"""Unit tests for the straggler-aware scheme (repro.schemes.straggler)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core.drt import DRTEntry
from repro.exceptions import ConfigurationError, LayoutError
from repro.harness.chaos import chaos_fault_plan
from repro.layouts import FixedStripeLayout
from repro.layouts.base import SubRequest
from repro.layouts.batch import merge_fragments
from repro.pfs.replay import run_workload
from repro.schemes.base import LayoutView
from repro.schemes.registry import make_scheme
from repro.schemes.straggler import (
    LatencyEWMA,
    StragglerAwareScheme,
    StragglerAwareView,
)
from repro.tracing import Trace, TraceRecord
from repro.tracing.columnar import OP_NAMES, ColumnarTrace
from repro.units import KiB, MiB
from repro.workloads.base import PHASE_GAP
from repro.workloads.ior import IORWorkload


def _records(n=4, size=64 * KiB):
    return [
        TraceRecord(
            offset=i * size, timestamp=float(i), rank=0, size=size, op="write", file="f"
        )
        for i in range(n)
    ]


def _view(num_servers=4, budget=1 << 30, **kwargs):
    spec = ClusterSpec(num_hservers=num_servers, num_sservers=0)
    inner = LayoutView(
        {}, default=FixedStripeLayout(spec.server_ids, 16 * KiB, obj="f")
    )
    return StragglerAwareView(
        inner, num_servers, replication_budget=budget, **kwargs
    )


class TestLatencyEWMA:
    def test_first_sample_initializes_mean(self):
        ewma = LatencyEWMA(2, alpha=0.5)
        ewma.observe(0, 4.0, 1.0)
        assert ewma.estimate(0, 1.0) == 4.0

    def test_update_moves_toward_sample(self):
        ewma = LatencyEWMA(1, alpha=0.5)
        ewma.observe(0, 4.0, 1.0)
        ewma.observe(0, 8.0, 2.0)
        assert ewma.estimate(0, 2.0) == 6.0
        ewma.observe(0, 6.0, 3.0)
        assert ewma.estimate(0, 3.0) == 6.0

    def test_counts_per_server(self):
        ewma = LatencyEWMA(2)
        ewma.observe(1, 1.0, 0.5)
        ewma.observe(1, 1.0, 0.6)
        assert ewma.count(0) == 0
        assert ewma.count(1) == 2

    def test_no_decay_without_half_life(self):
        ewma = LatencyEWMA(1)
        ewma.observe(0, 4.0, 0.0)
        assert ewma.estimate(0, 1e6) == 4.0

    def test_decay_halves_per_half_life(self):
        ewma = LatencyEWMA(1, half_life=2.0)
        ewma.observe(0, 8.0, 10.0)
        assert ewma.estimate(0, 10.0) == 8.0
        assert ewma.estimate(0, 12.0) == 4.0
        assert ewma.estimate(0, 14.0) == 2.0

    def test_estimates_vector(self):
        ewma = LatencyEWMA(3)
        ewma.observe(2, 5.0, 0.0)
        assert ewma.estimates(0.0) == [0.0, 0.0, 5.0]

    def test_sampled_servers_in_index_order(self):
        ewma = LatencyEWMA(4, min_samples=2)
        for server in (3, 1, 3, 0, 1, 3):
            ewma.observe(server, 1.0, 0.0)
        assert ewma.sampled() == [1, 3]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_servers=0),
            dict(num_servers=1, alpha=0.0),
            dict(num_servers=1, alpha=1.5),
            dict(num_servers=1, half_life=0.0),
            dict(num_servers=1, half_life=math.nan),
            dict(num_servers=1, half_life=math.inf),
            dict(num_servers=1, min_samples=0),
            dict(num_servers=1, min_samples=True),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LatencyEWMA(**kwargs)


class TestStragglerClassification:
    def _feed(self, view, latencies, samples=4):
        for _ in range(samples):
            for server, latency in enumerate(latencies):
                view.observe_latency(server, latency, 1.0)

    def test_no_classification_before_min_samples(self):
        view = _view(min_samples=4)
        for server in range(4):
            view.observe_latency(server, 9.0 if server == 0 else 1.0, 1.0)
        assert view.stragglers() == set()

    def test_outlier_flagged(self):
        view = _view(min_samples=2, threshold=1.5)
        self._feed(view, [10.0, 1.0, 1.0, 1.0])
        assert view.stragglers() == {0}

    def test_uniform_cluster_has_no_stragglers(self):
        view = _view(min_samples=2)
        self._feed(view, [1.0, 1.0, 1.0, 1.0])
        assert view.stragglers() == set()

    def test_single_sampled_server_never_straggler(self):
        view = _view(min_samples=1)
        view.observe_latency(0, 99.0, 1.0)
        assert view.stragglers() == set()

    def test_pick_target_prefers_fastest_healthy(self):
        view = _view(min_samples=1)
        self._feed(view, [10.0, 3.0, 2.0, 10.0], samples=2)
        stragglers = view.stragglers()
        assert stragglers == {0, 3}
        assert view._pick_target(stragglers) == 2

    def test_all_straggling_no_target(self):
        view = _view()
        assert view._pick_target({0, 1, 2, 3}) is None

    def test_direct_ewma_observations_classify(self):
        """The sampled servers live in the EWMA, so observations that
        bypass ``observe_latency`` count too."""
        view = _view(min_samples=2, threshold=1.5)
        for _ in range(2):
            for server, latency in enumerate([10.0, 1.0, 1.0, 1.0]):
                view.ewma.observe(server, latency, 1.0)
        assert view.stragglers() == {0}

    @given(
        seen=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 40), st.integers(0, 30)),
            max_size=40,
        ),
        min_samples=st.integers(1, 3),
        half_life=st.sampled_from([None, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stragglers_match_a_full_scan(self, seen, min_samples, half_life):
        """``stragglers()`` equals the classifier's definition evaluated
        over every server after each observation."""
        view = _view(num_servers=6, min_samples=min_samples, half_life=half_life)
        for server, latency, finish in seen:
            view.observe_latency(server, float(latency), float(finish))
            sampled = [s for s in range(6) if view.ewma.count(s) >= min_samples]
            estimates = [view.ewma.estimate(s, view.ewma.now) for s in sampled]
            want = set()
            if len(sampled) >= 2:
                median = sorted(estimates)[(len(sampled) - 1) // 2]
                if median > 0:
                    want = {
                        s
                        for s, e in zip(sampled, estimates)
                        if e > view.threshold * median
                    }
            assert view.stragglers() == want


class TestRedirection:
    def _hot(self, view):
        # server 0 slow, everyone sampled
        for _ in range(4):
            for server in range(4):
                view.observe_latency(server, 8.0 if server == 0 else 1.0, 1.0)

    def test_writes_redirected_away_from_straggler(self):
        view = _view()
        self._hot(view)
        runs = view.dispatch_request("write", "f", 0, 64 * KiB)
        assert all(f.server != 0 for f in runs)
        assert view.redirected_fragments == 1
        assert view.replicated_bytes == 16 * KiB

    def test_reads_follow_redirects(self):
        view = _view()
        self._hot(view)
        view.dispatch_request("write", "f", 0, 64 * KiB)
        reads = view.dispatch_request("read", "f", 0, 64 * KiB)
        assert sorted(f.logical_offset for f in reads) == [
            0, 16 * KiB, 32 * KiB, 48 * KiB
        ]
        assert all(f.server != 0 for f in reads)
        assert sum(f.length for f in reads) == 64 * KiB

    def test_reads_never_create_redirects(self):
        view = _view()
        self._hot(view)
        view.dispatch_request("read", "f", 0, 64 * KiB)
        assert view.redirected_fragments == 0

    def test_budget_bounds_replication(self):
        view = _view(budget=16 * KiB)
        self._hot(view)
        view.dispatch_request("write", "f", 0, 256 * KiB)
        assert view.replicated_bytes <= 16 * KiB
        # further writes to the straggler stay in place once exhausted
        runs = view.dispatch_request("write", "f", 256 * KiB, 256 * KiB)
        assert any(f.server == 0 for f in runs)

    def test_zero_budget_never_redirects(self):
        view = _view(budget=0)
        self._hot(view)
        runs = view.dispatch_request("write", "f", 0, 256 * KiB)
        assert any(f.server == 0 for f in runs)
        assert view.replicated_bytes == 0

    def test_healthy_cluster_maps_like_inner(self):
        view = _view()
        got = view.dispatch_request("write", "f", 0, 64 * KiB)
        want = view.inner.map_request("f", 0, 64 * KiB)
        assert sorted(got, key=lambda f: f.logical_offset) == want

    def test_dispatch_orders_slowest_first(self):
        view = _view(min_samples=1, threshold=100.0)  # classify nothing
        for server, latency in enumerate([1.0, 4.0, 2.0, 3.0]):
            view.observe_latency(server, latency, 1.0)
        runs = view.dispatch_request("read", "f", 0, 64 * KiB)
        assert [f.server for f in runs] == [1, 3, 2, 0]


class TestDispatchRuns:
    """The flat kernel's form of ``dispatch_request``: premapped runs
    in, columns out, no ``SubRequest`` object on any path."""

    def test_flat_replay_builds_no_fragment_or_entry_objects(self, monkeypatch):
        """An MHA+SAW replay of a tiled IOR profile under faults, with
        redirects, covered extents and rewrites, works on columns."""
        made = []
        for cls in (SubRequest, DRTEntry):
            check = cls.__post_init__

            def counted(self, check=check):
                made.append(self)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        spec = ClusterSpec()
        profile = IORWorkload(
            num_processes=16,
            request_sizes=[16 * KiB, 64 * KiB],
            total_size=8 * MiB,
            seed=0,
        ).columnar("write")
        period = float(profile.data["timestamp"].max()) + PHASE_GAP
        tiles = []
        for p in range(6):
            tile = profile.data.copy()
            tile["op"] = OP_NAMES.index("write" if p % 2 == 0 else "read")
            tile["timestamp"] += p * period
            tiles.append(tile)
        replay = ColumnarTrace(np.concatenate(tiles), profile.interned_files)
        view = make_scheme("MHA+SAW").build(spec, profile)
        made.clear()  # the build's own objects do not count
        metrics = run_workload(
            spec, view, replay, fault_plan=chaos_fault_plan(spec, 0.5)
        )
        assert metrics.engine == "flat"
        assert view.redirected_fragments > 0 and view._covered
        assert made == []

    def _premapped(self, view, requests):
        return view.merged_runs(
            "f", [o for o, _ in requests], [l for _, l in requests]
        )

    def test_premapped_runs_dispatched_slowest_first(self, monkeypatch):
        view = _view(min_samples=1, threshold=100.0)  # classify nothing
        for server, latency in enumerate([1.0, 4.0, 2.0, 3.0]):
            view.observe_latency(server, latency, 1.0)
        premap = self._premapped(view, [(0, 16 * KiB), (0, 64 * KiB)])

        def fallback(*args):
            raise AssertionError("premapped runs should have been kept")

        monkeypatch.setattr(view, "dispatch_request", fallback)
        servers, lengths = view.dispatch_runs("write", "f", 0, 64 * KiB, premap, 1)
        assert servers == [1, 3, 2, 0]
        assert lengths == [16 * KiB] * 4
        assert view.dispatch_runs("read", "f", 0, 16 * KiB, premap, 0) == (
            [0],
            [16 * KiB],
        )

    def test_mismatched_columns_rejected(self):
        view = _view()
        with pytest.raises(LayoutError, match="must match"):
            view.merged_runs("f", [0, 16 * KiB, 32 * KiB], [1, 2])

    def test_write_on_straggler_falls_back(self):
        view = _view()
        TestRedirection()._hot(view)
        premap = self._premapped(view, [(0, 64 * KiB)])
        servers, lengths = view.dispatch_runs("write", "f", 0, 64 * KiB, premap, 0)
        assert 0 not in servers
        assert sum(lengths) == 64 * KiB
        assert view.redirected_fragments == 1


_extent = st.tuples(
    st.integers(min_value=0, max_value=256 * KiB),
    st.integers(min_value=1, max_value=96 * KiB),
)


@st.composite
def _dispatch_steps(draw):
    """Steps of ``(op, (offset, length), observation)``; extents repeat
    from a small pool, so writes redirect extents dispatched before."""
    pool = draw(st.lists(_extent, min_size=1, max_size=4))
    seen = st.none() | st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=40),  # latency * 4
    )
    step = st.tuples(
        st.sampled_from(["read", "write"]), st.sampled_from(pool) | _extent, seen
    )
    return draw(st.lists(step, min_size=1, max_size=16))


class TestDispatchShortcuts:
    """``dispatch_runs``' shortcuts against the definitions they stand
    for, after every step of a random dispatch sequence driven as the
    flat kernel drives it (one premap, then one dispatch per request),
    and after a second premap over the redirects the steps left."""

    @given(
        steps=_dispatch_steps(),
        slow=st.integers(min_value=0, max_value=3),
        budget=st.sampled_from([0, 48 * KiB, 1 << 30]),
        min_samples=st.integers(min_value=1, max_value=2),
        again=st.lists(_extent, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_shortcuts_match_their_definitions(
        self, steps, slow, budget, min_samples, again
    ):
        view = _view(budget=budget, min_samples=min_samples)
        for server in range(4):
            view.observe_latency(server, 4.0 if server == slow else 1.0, 1.0)
        extents = [extent for _, extent, _ in steps]
        premap = view.merged_runs(
            "f", [o for o, _ in extents], [l for _, l in extents]
        )
        for k, (op, (o, l), seen) in enumerate(steps):
            if seen is not None:
                server, lat4 = seen
                view.observe_latency(server, lat4 / 4.0, 2.0 + k)
            view.dispatch_runs(op, "f", o, l, premap, k)
            self._check_counts(view)
            self._check_memo(view)
            self._check_straggler_test(view, premap)
            self._check_order(view, premap, extents)
        # counts seeded again, from the redirects the steps left
        extents += again
        premap = view.merged_runs(
            "f", [o for o, _ in extents], [l for _, l in extents]
        )
        self._check_counts(view)
        self._check_memo(view)
        self._check_order(view, premap, extents)

    def test_counts_with_one_long_extent(self):
        """A whole-file extent among short ones keeps its own length
        class, so the short ones' class, which a redirect walks, stays
        as short as they are; every count stays exact."""
        view = _view(min_samples=1)
        for server in range(4):
            view.observe_latency(server, 4.0 if server == 0 else 1.0, 1.0)
        extents = [(k * 16 * KiB, 16 * KiB) for k in range(16)] + [(0, 256 * KiB)]
        premap = view.merged_runs(
            "f", [o for o, _ in extents], [l for _, l in extents]
        )
        for k, (o, l) in enumerate(extents[:16]):
            view.dispatch_runs("write", "f", o, l, premap, k)
        assert view.redirected_fragments == 4  # the writes on server 0
        self._check_counts(view)
        assert view._counts["f", 0, 256 * KiB] == 4
        short, whole = (16 * KiB).bit_length(), (256 * KiB).bit_length()
        assert sorted(view._premapped["f"]) == [short, whole]
        assert view._premapped["f"][short].longest == 16 * KiB

    @staticmethod
    def _check_counts(view):
        """Each premapped extent's kept count equals ``DRT.overlaps``."""
        assert view._counts
        for (file, o, l), count in view._counts.items():
            assert count == view._drt.overlaps(file, o, l)

    @staticmethod
    def _check_memo(view):
        """A memo entry whose overlap count is current equals one
        rebuilt from ``_map``, as server and length columns."""
        for (file, o, l), entry in view._covered.items():
            covering, servers, lengths, base_servers, base_lengths = entry
            if covering != view._drt.overlaps(file, o, l):
                continue
            fragments, positions = view._map(file, o, l)
            merged = merge_fragments(fragments)
            assert servers == [f.server for f in merged]
            assert lengths == [f.length for f in merged]
            assert base_servers == [fragments[j].server for j in positions]
            assert base_lengths == [fragments[j].length for j in positions]

    @staticmethod
    def _check_straggler_test(view, premap):
        stragglers = view.stragglers()
        groups = [[s] for s in range(4)] + [
            premap.servers[premap.starts[k] : premap.starts[k + 1]]
            for k in range(premap.n_extents)
        ]
        for servers in groups:
            assert view._straggles(servers) == (not stragglers.isdisjoint(servers))

    @staticmethod
    def _check_order(view, premap, extents):
        """Reads keep their runs (premapped, or memoized once covered),
        ordered by a stable sort on descending estimate (1, 2 and more
        runs alike)."""
        for k, (o, l) in enumerate(extents):
            if view._drt.overlaps("f", o, l):
                runs = merge_fragments(view.map_request("f", o, l))
                servers = [f.server for f in runs]
                lengths = [f.length for f in runs]
            else:
                lo, hi = premap.starts[k], premap.starts[k + 1]
                servers, lengths = premap.servers[lo:hi], premap.lengths[lo:hi]
            order = sorted(
                range(len(servers)),
                key=lambda j: -view.ewma.estimate(servers[j], view.ewma.now),
            )
            want = [servers[j] for j in order], [lengths[j] for j in order]
            assert view.dispatch_runs("read", "f", o, l, premap, k) == want


class TestScheme:
    def test_build_and_name(self):
        scheme = StragglerAwareScheme()
        assert scheme.name == "SAW"
        spec = ClusterSpec()
        trace = Trace(_records())
        view = scheme.build(spec, trace)
        assert isinstance(view, StragglerAwareView)
        assert view.replication_budget == int(0.5 * trace.total_bytes())

    def test_composed_name(self):
        assert StragglerAwareScheme(base="MHA").name == "MHA+SAW"
        assert make_scheme("MHA+SAW").name == "MHA+SAW"
        assert make_scheme("STRAGGLER").name == "SAW"

    def test_replication_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            StragglerAwareScheme(replication_fraction=-0.1)

    def test_view_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            _view(threshold=0.5)
        with pytest.raises(ConfigurationError):
            _view(min_samples=0)
        with pytest.raises(ConfigurationError):
            _view(budget=-1)

    #: settings that would switch straggler detection off silently
    #: (NaN or infinite threshold, NaN half-life), pass a fractional
    #: sample count, or fail only inside ``build``
    INVALID = [
        dict(threshold=math.nan),
        dict(threshold=math.inf),
        dict(threshold=0.5),
        dict(half_life=math.nan),
        dict(half_life=math.inf),
        dict(half_life=0.0),
        dict(min_samples=2.5),
        dict(min_samples=0),
        dict(min_samples=True),
        dict(alpha=math.nan),
        dict(alpha=0.0),
        dict(alpha=1.5),
        dict(replication_fraction=math.nan),
        dict(replication_fraction=math.inf),
    ]

    @pytest.mark.parametrize("kwargs", INVALID)
    @pytest.mark.parametrize("scheme", ["SAW", "MHA+SAW"])
    def test_invalid_settings_rejected_on_construction(self, scheme, kwargs):
        with pytest.raises(ConfigurationError):
            make_scheme(scheme, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(threshold=math.nan),
            dict(threshold=math.inf),
            dict(half_life=math.nan),
            dict(half_life=math.inf),
            dict(min_samples=2.5),
        ],
    )
    def test_view_rejects_non_finite_settings(self, kwargs):
        with pytest.raises(ConfigurationError):
            _view(**kwargs)

    def test_boundary_settings_accepted(self):
        scheme = StragglerAwareScheme(
            alpha=1.0,
            half_life=1e-3,
            threshold=1.0,
            min_samples=np.int64(1),
            replication_fraction=0.0,
        )
        view = scheme.build(ClusterSpec(), Trace(_records()))
        assert view.replication_budget == 0
        assert view.min_samples == 1

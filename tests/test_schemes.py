"""Tests for the DEF/AAL/HARL/MHA scheme builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.determinism import SANITIZE_ENV_VAR, ledger, reset_ledger
from repro.exceptions import ConfigurationError, LayoutError
from repro.layouts import check_tiling
from repro.schemes import (
    AALScheme,
    DEFScheme,
    HARLScheme,
    MHAScheme,
    build_view,
    make_scheme,
    scheme_names,
)
from repro.schemes.base import LayoutView
from repro.tracing import Trace, TraceRecord
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


@pytest.fixture
def spec():
    return ClusterSpec()


@pytest.fixture
def trace():
    return IORWorkload(
        num_processes=8,
        request_sizes=[32 * KiB, 128 * KiB],
        total_size=8 * MiB,
        seed=1,
    ).trace("write")


class TestRegistry:
    def test_names(self):
        assert scheme_names() == ("DEF", "AAL", "HARL", "MHA")

    def test_make_scheme_case_insensitive(self):
        assert isinstance(make_scheme("def"), DEFScheme)
        assert isinstance(make_scheme("MhA"), MHAScheme)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            make_scheme("XYZ")

    def test_build_view_one_shot(self, spec, trace):
        view = build_view("DEF", spec, trace)
        assert view.map_request(trace.files()[0], 0, 4 * KiB)


class TestDEF:
    def test_fixed_64k_over_all_servers(self, spec, trace):
        view = DEFScheme().build(spec, trace)
        layout = view.layout_for(trace.files()[0])
        assert layout.stripe == 64 * KiB
        assert set(layout.servers) == set(spec.server_ids)

    def test_unseen_file_gets_default(self, spec, trace):
        view = DEFScheme().build(spec, trace)
        frags = view.map_request("brand-new-file", 0, 4 * KiB)
        assert frags

    def test_invalid_stripe(self):
        with pytest.raises(ConfigurationError):
            DEFScheme(stripe=0)


class TestAAL:
    def test_uniform_stripe_all_servers(self, spec, trace):
        scheme = AALScheme()
        view = scheme.build(spec, trace)
        layout = view.layout_for(trace.files()[0])
        assert set(layout.servers) == set(spec.server_ids)
        assert scheme.decisions[trace.files()[0]] == layout.stripe

    def test_stripe_adapts_to_request_sizes(self, spec):
        small = IORWorkload(
            num_processes=4, request_sizes=16 * KiB, total_size=2 * MiB
        ).trace("write")
        large = IORWorkload(
            num_processes=4, request_sizes=512 * KiB, total_size=8 * MiB
        ).trace("write")
        scheme = AALScheme()
        s_small = scheme.stripe_for(spec, small)
        s_large = scheme.stripe_for(spec, large)
        assert s_small <= s_large

    def test_empty_trace_uses_default(self, spec):
        from repro.tracing import Trace

        assert AALScheme().stripe_for(spec, Trace([])) == 64 * KiB

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_max_eval_requests(self, bad):
        with pytest.raises(ConfigurationError, match="max_eval_requests"):
            AALScheme(max_eval_requests=bad)

    @pytest.mark.parametrize("bad", [0, -4096])
    def test_invalid_step(self, bad):
        with pytest.raises(ConfigurationError, match="step"):
            AALScheme(step=bad)


#: small traces over two files: 1–20 requests (AAL subsamples past 8
#: below), clustered timestamps so burst ids vary, both ops
small_traces = st.lists(
    st.builds(
        TraceRecord,
        offset=st.integers(0, 255).map(lambda k: k * 4 * KiB),
        timestamp=st.sampled_from([0.0, 0.0001, 0.2, 1.0, 1.0002, 3.0]),
        rank=st.integers(0, 3),
        file=st.sampled_from(["a", "b"]),
        op=st.sampled_from(["read", "write"]),
        size=st.integers(1, 64).map(lambda k: k * 4 * KiB),
    ),
    min_size=1,
    max_size=20,
).map(Trace)

#: a full cluster and its HDD-only sub-cluster, the two shapes a
#: demoted serve tenant is built on
SHAPES = (
    ClusterSpec(num_hservers=2, num_sservers=2),
    ClusterSpec(num_hservers=2, num_sservers=2).with_ratio(2, 0),
)


class TestAALReuse:
    """One instance building many traces in any order decides exactly
    what a fresh instance per build decides, and draws the same
    samples."""

    @staticmethod
    def build_all(builds, *, shared):
        reset_ledger()
        scheme = AALScheme(max_eval_requests=8)
        results = []
        for trace, spec in builds:
            if not shared:
                scheme = AALScheme(max_eval_requests=8)
            view = scheme.build(spec, trace)
            layouts = {f: view.layout_for(f) for f in trace.files()}
            results.append((dict(scheme.decisions), layouts))
        return results, ledger().snapshot()

    @given(
        traces=st.lists(small_traces, min_size=1, max_size=3),
        order=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_reuse_matches_a_fresh_instance_per_build(self, traces, order):
        # every trace on both shapes, then a drawn interleaving of repeats
        builds = [(trace, spec) for trace in traces for spec in SHAPES]
        builds += [(traces[i % len(traces)], SHAPES[j]) for i, j in order]
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(SANITIZE_ENV_VAR, "1")
            try:
                reused, reused_ledger = self.build_all(builds, shared=True)
                fresh, fresh_ledger = self.build_all(builds, shared=False)
            finally:
                reset_ledger()
        assert reused == fresh
        # the SeedDomain.SAMPLE draws (and every other lineage) match
        assert reused_ledger == fresh_ledger
        subsampled = any(
            len([r for r in trace if r.file == file]) > 8
            for trace in traces
            for file in trace.files()
        )
        assert bool(reused_ledger) == subsampled


class TestHARL:
    def test_regions_cover_file(self, spec, trace):
        view = HARLScheme().build(spec, trace)
        file = trace.files()[0]
        for record in trace:
            frags = view.map_request(file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)

    def test_heterogeneous_stripes_chosen(self, spec, trace):
        scheme = HARLScheme()
        scheme.build(spec, trace)
        pairs = set(scheme.decisions.values())
        # at least one region uses a genuinely varied (h != s) pair
        assert any(p.h != p.s for p in pairs)

    def test_region_size_floor(self):
        scheme = HARLScheme(num_regions=16)
        bounds = scheme._region_bounds(1 * MiB, max_request=512 * KiB)
        sizes = [e - s for s, e in bounds[:-1]]
        assert all(size >= 8 * 512 * KiB for size in sizes) or len(bounds) == 1

    def test_invalid_num_regions(self):
        with pytest.raises(ConfigurationError, match="num_regions"):
            HARLScheme(num_regions=0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_max_eval_requests(self, bad):
        with pytest.raises(ConfigurationError, match="max_eval_requests"):
            HARLScheme(max_eval_requests=bad)


class TestMHA:
    def test_build_returns_redirector(self, spec, trace):
        scheme = MHAScheme(seed=1)
        view = scheme.build(spec, trace)
        assert scheme.plan is not None
        file = trace.files()[0]
        for record in trace:
            frags = view.map_request(file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)

    def test_two_size_groups_produce_regions(self, spec, trace):
        scheme = MHAScheme(seed=1)
        scheme.build(spec, trace)
        assert scheme.plan.num_regions >= 2

    def test_pipeline_kwargs_forwarded(self, spec, trace):
        scheme = MHAScheme(k=1, seed=0)
        scheme.build(spec, trace)
        assert scheme.plan.groupings[trace.files()[0]].k == 1


class TestLayoutView:
    def test_missing_layout_no_default(self):
        view = LayoutView({})
        with pytest.raises(LayoutError):
            view.map_request("f", 0, 10)

    def test_files(self, spec, trace):
        view = DEFScheme().build(spec, trace)
        assert trace.files()[0] in view.files()

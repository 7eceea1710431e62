"""The serve scenario end to end: determinism, sharding, fairness."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import LayoutError
from repro.layouts.batch import MergedRuns
from repro.tenancy import (
    RANK_STRIDE,
    TenantRoutingView,
    TenantSpec,
    build_tenants,
    make_tenants,
    namespace_trace,
    serve_scenario,
    tenant_of_rank,
    tenant_workload,
)
from repro.tenancy.spec import tenant_op
from repro.workloads import OpenArrivalWorkload

SPEC = ClusterSpec(num_hservers=2, num_sservers=2)
N = 16


def serve(**kwargs):
    defaults = dict(spec=SPEC, tenants=N, max_active=6)
    defaults.update(kwargs)
    return serve_scenario(**defaults)


class TestDeterminism:
    def test_two_runs_digest_identical(self):
        assert serve().digest() == serve().digest()

    def test_sharded_equals_single_process_bit_identical(self):
        serial = serve(n_jobs=1)
        sharded = serve(n_jobs=4)
        assert serial.digest() == sharded.digest()
        # bit-identical all the way down, not just through the hash
        assert serial.metrics.makespan == sharded.metrics.makespan
        assert serial.metrics.latencies == sharded.metrics.latencies
        assert serial.metrics.latency_ranks == sharded.metrics.latency_ranks
        assert serial.tenants == sharded.tenants

    def test_event_engine_matches_flat(self):
        assert serve(engine="event").digest() == serve(engine="flat").digest()

    def test_arrival_seed_changes_results(self):
        assert serve().digest() != serve(arrival_seed=99).digest()


class TestClassTraces:
    def test_builds_equal_per_tenant_generation(self):
        """Each build's trace is what generating the tenant's own
        workload, re-stamping and namespacing it would give."""
        fleet = make_tenants(6)
        builds = build_tenants(SPEC, fleet, arrival_seed=5, rank_stride=8)
        for spec_t, build in zip(fleet, builds):
            own = OpenArrivalWorkload(
                tenant_workload(spec_t),
                rate=spec_t.rate,
                start=spec_t.start,
                jitter=spec_t.jitter,
                seed=5,
                stream=spec_t.tenant,
            ).columnar(tenant_op(spec_t))
            assert build.trace == namespace_trace(own, spec_t.tenant, stride=8)
            assert build.requests == len(own)


class TestFairnessInvariants:
    def test_no_tenant_starves(self):
        report = serve()
        assert report.tenants
        for t in report.tenants:
            assert t.requests > 0
            assert t.completed == t.requests  # every request finished
            assert t.p99 > 0.0

    def test_every_tenant_attributed(self):
        report = serve()
        assert len(report.tenants) == N
        assert report.total_requests == sum(t.requests for t in report.tenants)
        assert len(report.metrics.latencies) == report.total_requests

    def test_admission_bounds_concurrency(self):
        open_door = serve(max_active=N)
        squeezed = serve(max_active=1)
        assert all(t.admission_delay == 0.0 for t in open_door.tenants)
        assert any(t.admission_delay > 0.0 for t in squeezed.tenants)
        assert squeezed.makespan > open_door.makespan

    def test_report_figures_cover_the_surface(self):
        report = serve()
        names = {f.figure for f in report.figures}
        assert names == {
            "serve-bw",
            "serve-tails",
            "serve-fairness",
            "serve-tenants",
            "serve-admission",
        }
        fairness = next(f for f in report.figures if f.figure == "serve-fairness")
        shares = [fairness.value(k, "bytes") for k in ("hot", "tail")]
        assert sum(shares) == pytest.approx(1.0)

    def test_non_default_rank_stride(self):
        """Per-tenant and per-class tails group by the same rank window."""
        report = serve(tenants=8, max_active=4, rank_stride=2 * RANK_STRIDE)
        assert all(t.completed == t.requests for t in report.tenants)
        tails = next(f for f in report.figures if f.figure == "serve-tails")
        for klass in ("hot", "tail"):
            assert tails.value(klass, "p99") > 0.0


class TestQuotaEnforcement:
    def test_tail_quota_demotes_to_hdd(self):
        builds = build_tenants(SPEC, make_tenants(4, hot_fraction=0.5))
        tails = [b for b in builds if b.klass == "tail"]
        hots = [b for b in builds if b.klass == "hot"]
        assert tails and hots
        for b in tails:  # default tail quota binds: rebuilt HDD-only
            assert b.demoted
            assert b.ssd_bytes == 0
        for b in hots:  # unlimited quota: SSD use intact
            assert not b.demoted
            assert b.ssd_bytes > 0

    def test_unquotad_fleet_keeps_ssd_placement(self):
        fleet = tuple(
            TenantSpec(tenant=k, klass="tail", scheme="AAL", share=0.25)
            for k in range(4)
        )
        builds = build_tenants(SPEC, fleet)
        assert all(not b.demoted for b in builds)
        assert all(b.ssd_bytes > 0 for b in builds)

    def test_quota_respected_in_full_serve(self):
        report = serve()
        assert any(t.demoted for t in report.tenants if t.klass == "tail")


class TestTenantRoutingView:
    def make_view(self):
        builds = build_tenants(SPEC, make_tenants(2, hot_fraction=1.0))
        runs = {}
        requests = {}
        for b in builds:
            runs.update(b.runs_by_file)
            requests.update(b.requests_by_file)
        return TenantRoutingView(runs, requests), builds

    def test_serves_premapped_batches(self):
        view, builds = self.make_view()
        b = builds[0]
        (file, (offsets, sizes)), = b.requests_by_file.items()
        runs = view.merged_runs(file, offsets.tolist(), sizes.tolist())
        assert runs is b.runs_by_file[file]
        frags = view.map_request(file, int(offsets[1]), int(sizes[1]))
        assert frags == runs.subrequests(1)

    def test_unknown_file_and_diverged_batches_rejected(self):
        view, builds = self.make_view()
        (file, (offsets, sizes)), = builds[0].requests_by_file.items()
        with pytest.raises(LayoutError, match="no premapped"):
            view.merged_runs("nope", [0], [1])
        with pytest.raises(LayoutError, match="diverged"):
            view.merged_runs(file, [int(offsets[0]) + 7], [int(sizes[0])])
        with pytest.raises(LayoutError, match="diverged"):
            view.merged_runs(file, offsets[::-1], sizes[::-1])
        with pytest.raises(LayoutError, match="never premapped"):
            view.map_request(file, 10**9, 1)

    def test_mismatched_construction_rejected(self):
        empty = MergedRuns(
            servers=[], objs=[], offsets=[], lengths=[],
            first_logicals=[], starts=[0], n_fragments=0,
        )
        with pytest.raises(LayoutError):
            TenantRoutingView({"f": empty}, {})
        with pytest.raises(LayoutError):
            TenantRoutingView({"f": empty}, {"f": (np.array([0]), np.array([1]))})


class TestInterference:
    def test_tenants_contend_on_shared_servers(self):
        # the same fleet overlapped vs admission-serialized: overlapping
        # tenants queue behind each other on the shared servers
        overlapped = serve(max_active=N)
        serialized = serve(max_active=1)
        assert max(t.p99 for t in overlapped.tenants) > max(
            t.p99 for t in serialized.tenants
        )

    def test_rank_attribution_is_consistent(self):
        report = serve()
        for latency_rank in report.metrics.latency_ranks:
            assert 0 <= tenant_of_rank(latency_rank, RANK_STRIDE) < N


class TestScale:
    def test_couple_hundred_tenants_replay_fully(self):
        report = serve_scenario(spec=SPEC, tenants=200, max_active=32, n_jobs=2)
        assert report.num_tenants == 200
        assert report.total_requests == sum(t.requests for t in report.tenants)
        assert all(t.completed == t.requests for t in report.tenants)
        assert report.digest()

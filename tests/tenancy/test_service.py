"""The serve scenario end to end: determinism, sharding, fairness."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.exceptions import LayoutError
from repro.layouts.batch import MergedRuns, runs_from_fragments
from repro.tenancy import (
    RANK_STRIDE,
    TenantRoutingView,
    TenantSpec,
    build_tenants,
    make_tenants,
    serve_scenario,
    tenant_file,
    tenant_of_rank,
    tenant_workload,
)
from repro.tenancy.spec import tenant_op
from repro.workloads import OpenArrivalWorkload
from tests.tenancy.test_shard import namespace_trace, tenant_rows

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
        """Each tenant's rows of the table are what generating its own
        workload, re-stamping and namespacing it would give."""
        fleet = make_tenants(6)
        table = build_tenants(SPEC, fleet, arrival_seed=5, rank_stride=8)
        assert len(table.classes) == 2
        for position, spec_t in enumerate(fleet):
            own = OpenArrivalWorkload(
                tenant_workload(spec_t),
                rate=spec_t.rate,
                start=spec_t.start,
                jitter=spec_t.jitter,
                seed=5,
                stream=spec_t.tenant,
            ).columnar(tenant_op(spec_t))
            assert tenant_rows(table, position) == namespace_trace(
                own, spec_t.tenant, stride=8
            )
            assert int((table.tenant == spec_t.tenant).sum()) == len(own)


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
        table = build_tenants(SPEC, make_tenants(4, hot_fraction=0.5))
        builds = list(zip(table.tenants, table.demoted, table.ssd_bytes))
        tails = [b for b in builds if b[0].klass == "tail"]
        hots = [b for b in builds if b[0].klass == "hot"]
        assert tails and hots
        for _, demoted, ssd_bytes in tails:  # default tail quota binds
            assert demoted
            assert ssd_bytes == 0
        for _, demoted, ssd_bytes in hots:  # unlimited quota: SSD use intact
            assert not demoted
            assert ssd_bytes > 0

    def test_unquotad_fleet_keeps_ssd_placement(self):
        fleet = tuple(
            TenantSpec(tenant=k, klass="tail", scheme="AAL", share=0.25)
            for k in range(4)
        )
        table = build_tenants(SPEC, fleet)
        assert not any(table.demoted)
        assert all(ssd_bytes > 0 for ssd_bytes in table.ssd_bytes)

    def test_quota_respected_in_full_serve(self):
        report = serve()
        assert any(t.demoted for t in report.tenants if t.klass == "tail")


class TestTenantRoutingView:
    def make_view(self):
        table = build_tenants(SPEC, make_tenants(2, hot_fraction=1.0))
        return table.routing_view(), table

    def test_serves_premapped_batches(self):
        view, table = self.make_view()
        (local, (offsets, sizes)), = table.classes["hot"].requests.items()
        file = tenant_file(0, local)
        runs = view.merged_runs(file, offsets.tolist(), sizes.tolist())
        assert runs is table.runs[0][0]
        # both tenants map the class file through equal DEF layouts
        assert view.merged_runs(tenant_file(1, local), offsets, sizes) is runs
        # the event path maps through the tenant's own view
        frags = view.map_request(file, int(offsets[1]), int(sizes[1]))
        assert runs_from_fragments(frags) == runs.take([1])

    def test_unknown_file_and_diverged_batches_rejected(self):
        view, table = self.make_view()
        (local, (offsets, sizes)), = table.classes["hot"].requests.items()
        file = tenant_file(0, local)
        with pytest.raises(LayoutError, match="no premapped"):
            view.merged_runs("nope", [0], [1])
        with pytest.raises(LayoutError, match="no premapped"):
            view.map_request("nope", 0, 1)
        with pytest.raises(LayoutError, match="diverged"):
            view.merged_runs(file, [int(offsets[0]) + 7], [int(sizes[0])])
        with pytest.raises(LayoutError, match="diverged"):
            view.merged_runs(file, offsets[::-1], sizes[::-1])

    def test_mismatched_construction_rejected(self):
        empty = MergedRuns(servers=[], lengths=[], starts=[0])
        none = (np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        views = {0: build_tenants(SPEC, make_tenants(1)).views[0]}
        with pytest.raises(LayoutError):
            TenantRoutingView({"t0000/f": empty}, {}, views)
        with pytest.raises(LayoutError):
            TenantRoutingView(
                {"t0000/f": empty}, {"t0000/f": (np.array([0]), np.array([1]))}, views
            )
        # a file whose tenant has no view
        for file in ("t0001/f", "f"):
            with pytest.raises(LayoutError, match="no tenant view"):
                TenantRoutingView({file: empty}, {file: none}, views)
        TenantRoutingView({"t0000/f": empty}, {"t0000/f": none}, views)


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

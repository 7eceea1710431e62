"""Tenant builds share their layouts, and no result depends on it.

``build_tenants`` gives every task of a call one ``TenantLayouts``
table: one scheme object per scheme name (AAL keeps its stripe
searches) and the premapped runs of each distinct fixed-stripe layout
and request batch.  These tests count the searches and premaps that
actually run, and compare every build with building the tenant alone
from scratch on its namespaced trace.  Serving the mixed fleet on the
event engine maps every request through its tenant's own view, and
must give the flat kernel's digest.
"""

import numpy as np
import pytest

import repro.layouts.fixed as fixed
import repro.schemes.aal as aal
from repro.cluster import ClusterSpec
from repro.schemes import make_scheme
from repro.tenancy import (
    TenantSpec,
    build_tenants,
    make_tenants,
    namespace_trace,
    serve_scenario,
)
from repro.tenancy.shard import TenantBuildTask, TenantLayouts, build_tenant
from repro.tenancy.spec import tenant_op, tenant_workload
from repro.tracing.columnar import ColumnarTrace
from repro.workloads import open_arrivals

SPEC = ClusterSpec(num_hservers=2, num_sservers=2)

#: (class, scheme, SServer quota, rate): DEF, AAL, HARL and MHA tenants
#: under no quota, 0.2 and 0.3.  The tail tenants at 200 req/s get
#: equal burst ids, those at 0.5 and 3 req/s do not share theirs with
#: them.
MIXED = (
    ("hot", "DEF", None, 200.0),
    ("tail", "AAL", 0.2, 200.0),
    ("tail", "AAL", 0.2, 200.0),
    ("tail", "AAL", None, 0.5),
    ("tail", "AAL", 0.3, 0.5),
    ("tail", "AAL", 0.2, 3.0),
    ("hot", "AAL", None, 200.0),
    ("hot", "DEF", 0.3, 0.5),
    ("tail", "DEF", 0.2, 200.0),
    ("tail", "HARL", 0.2, 200.0),
    ("hot", "HARL", None, 0.5),
    ("tail", "MHA", None, 200.0),
    ("hot", "MHA", 0.3, 3.0),
)
FLEET = tuple(
    TenantSpec(
        tenant=k,
        klass=klass,
        scheme=scheme,
        share=1.0 / len(MIXED),
        sserver_quota=quota,
        rate=rate,
    )
    for k, (klass, scheme, quota, rate) in enumerate(MIXED)
)


def counting(monkeypatch, module, name):
    """Count calls through ``module.name``, the name the build looks up."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def class_trace(tenant):
    return tenant_workload(tenant).columnar(tenant_op(tenant)).sorted_by_time()


def premap_from_scratch(spec, scheme_name, trace):
    view = make_scheme(scheme_name).build(spec, trace)
    runs, requests, ssd_bytes = {}, {}, 0
    for file, rows in trace.file_partition().items():
        offsets, sizes = trace.data["offset"][rows], trace.data["size"][rows]
        runs[file] = view.merged_runs(file, offsets, sizes)
        requests[file] = (offsets, sizes)
        ssd_bytes += sum(
            length
            for server, length in zip(runs[file].servers, runs[file].lengths)
            if server >= spec.num_hservers
        )
    return runs, requests, ssd_bytes


def build_from_scratch(spec, tenant):
    """One tenant alone: namespace its re-stamped trace, build a fresh
    scheme on it, premap each file; rebuild HDD-only over the quota."""
    arrived = open_arrivals(
        class_trace(tenant),
        tenant.rate,
        start=tenant.start,
        jitter=tenant.jitter,
        stream=tenant.tenant,
    )
    trace = namespace_trace(arrived, tenant.tenant)
    runs, requests, ssd_bytes = premap_from_scratch(spec, tenant.scheme, trace)
    demoted = (
        tenant.sserver_quota is not None
        and ssd_bytes > tenant.sserver_quota * trace.total_bytes()
    )
    if demoted:
        hdd_only = spec.with_ratio(spec.num_hservers, 0)
        runs, requests, ssd_bytes = premap_from_scratch(
            hdd_only, tenant.scheme, trace
        )
    return trace, runs, requests, ssd_bytes, demoted


def assert_same_build(build, expected):
    trace, runs, requests, ssd_bytes, demoted = expected
    assert build.trace == trace
    assert build.total_bytes == trace.total_bytes()
    assert list(build.runs_by_file) == list(runs)
    for file, file_runs in runs.items():
        # servers, lengths and extent starts
        assert build.runs_by_file[file] == file_runs
    assert list(build.requests_by_file) == list(requests)
    for file, (offsets, sizes) in requests.items():
        got_offsets, got_sizes = build.requests_by_file[file]
        np.testing.assert_array_equal(got_offsets, offsets)
        np.testing.assert_array_equal(got_sizes, sizes)
    assert build.ssd_bytes == ssd_bytes
    assert build.demoted == demoted


class TestWorkCounts:
    def test_each_distinct_search_and_premap_runs_once(self, monkeypatch):
        searches = counting(monkeypatch, aal, "burst_costs_grid")
        premaps = counting(monkeypatch, fixed, "periodic_merged_runs")
        builds = build_tenants(SPEC, make_tenants(20))
        # 16 hot DEF tenants premap one batch through one layout; the 4
        # tail AAL tenants are all demoted, and share one search and one
        # premap on the full cluster and one of each HDD-only
        assert [b.klass for b in builds].count("hot") == 16
        assert all(b.demoted for b in builds if b.klass == "tail")
        assert len(searches) == 2
        assert len(premaps) == 3


class TestFromScratchEquality:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_build_equals_a_lone_build(self, n_jobs):
        builds = build_tenants(SPEC, FLEET, n_jobs=n_jobs)
        assert [b.tenant for b in builds] == [t.tenant for t in FLEET]
        # the fleet exercises both branches of the quota
        assert {b.demoted for b in builds} == {True, False}
        for tenant, build in zip(FLEET, builds):
            assert_same_build(build, build_from_scratch(SPEC, tenant))

    def test_a_task_without_a_table_builds_alone(self):
        for tenant in FLEET:
            task = TenantBuildTask(
                spec=SPEC, tenant=tenant, trace=class_trace(tenant)
            )
            assert_same_build(build_tenant(task), build_from_scratch(SPEC, tenant))

    def test_the_mixed_fleet_reuses_some_searches_and_not_others(self, monkeypatch):
        searches = counting(monkeypatch, aal, "burst_costs_grid")
        builds = build_tenants(SPEC, FLEET)
        aal_builds = sum(
            1 + b.demoted for t, b in zip(FLEET, builds) if t.scheme == "AAL"
        )
        assert 1 < len(searches) < aal_builds


class TestTenantLayouts:
    @pytest.mark.parametrize("column", ["offset", "size"])
    def test_equal_layouts_map_other_requests_again(self, column):
        """Same file, same layout, same request count: a batch that
        differs in one column gets its own runs."""
        base = class_trace(FLEET[0])
        data = base.data.copy()
        data[column] += 4096
        moved = ColumnarTrace(data, base.interned_files, validate=False)
        table = TenantLayouts()
        for trace in (base, moved, base):
            _, runs, _, ssd_bytes = table.premap(SPEC, "DEF", trace)
            expected_runs, _, expected_ssd = premap_from_scratch(SPEC, "DEF", trace)
            assert (runs, ssd_bytes) == (expected_runs, expected_ssd)


class TestServeEngines:
    def test_event_path_maps_every_scheme_like_the_premap(self):
        """The flat kernel replays the premapped runs; the event engine
        maps each request through its tenant's DEF, AAL, HARL or MHA
        view, demoted or not.  Both give one digest at one and two
        jobs."""
        digests = set()
        for engine in ("flat", "event"):
            for n_jobs in (1, 2):
                report = serve_scenario(SPEC, FLEET, n_jobs=n_jobs, engine=engine)
                assert report.metrics.engine == engine
                digests.add(report.digest())
        assert len(digests) == 1

"""The fleet table equals building every tenant alone, from scratch.

``build_tenants`` generates and partitions each tenant class once,
shares one scheme object per scheme name (AAL keeps its stripe
searches) and premaps each class file once per distinct fixed-stripe
layout; every tenant still builds its own scheme on its own re-stamped
rows.  These tests count the work that actually runs, and compare
every tenant's rows, premapped runs, request columns, SServer bytes
and demotion with a from-scratch reference: generate the tenant's own
workload, re-stamp it, move it into the tenant's namespace, build a
fresh scheme on it, premap each file, and rebuild HDD-only over the
quota.  Serving the mixed fleet on the event engine maps every request
through its tenant's own view, and must give the flat kernel's digest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.layouts.fixed as fixed
import repro.schemes.aal as aal
import repro.tenancy.shard as shard
from repro.cluster import ClusterSpec
from repro.config import DEFAULT_ARRIVAL_SEED
from repro.schemes import make_scheme
from repro.tenancy import (
    RANK_STRIDE,
    SERVE_SCHEMES,
    TENANT_CLASSES,
    TenantSpec,
    build_tenants,
    make_tenants,
    rank_base,
    serve_scenario,
    tenant_file,
)
from repro.tenancy.shard import TenantRange, build_tenant
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


def fleet_of(rows):
    return tuple(
        TenantSpec(
            tenant=k,
            klass=klass,
            scheme=scheme,
            share=1.0 / len(rows),
            sserver_quota=quota,
            rate=rate,
        )
        for k, (klass, scheme, quota, rate) in enumerate(rows)
    )


FLEET = fleet_of(MIXED)


def counting(monkeypatch, owner, name):
    """Count calls through ``owner.name``, the name the build looks up."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# the from-scratch reference


def namespace_trace(trace, tenant, *, stride=RANK_STRIDE):
    """A tenant-local trace moved into tenant ``tenant``'s namespace:
    file names prefixed, ranks and pids shifted into its window."""
    data = trace.data.copy()
    data["rank"] += rank_base(tenant, stride)
    data["pid"] = data["rank"]
    names = tuple(tenant_file(tenant, file) for file in trace.interned_files)
    return ColumnarTrace(data, names, validate=False)


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


def build_from_scratch(spec, tenant, arrival_seed=DEFAULT_ARRIVAL_SEED):
    """One tenant alone: namespace its re-stamped trace, build a fresh
    scheme on it, premap each file; rebuild HDD-only over the quota."""
    arrived = open_arrivals(
        class_trace(tenant),
        tenant.rate,
        start=tenant.start,
        jitter=tenant.jitter,
        seed=arrival_seed,
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


def tenant_rows(fleet, position):
    """The table's rows of the tenant at ``position``, namespaced: its
    class rows on its own arrival clock."""
    tenant = fleet.tenants[position]
    local = fleet.classes[tenant.klass].trace
    data = local.data.copy()
    data["timestamp"] = fleet.arrival[fleet.tenant == tenant.tenant]
    arrived = ColumnarTrace(data, local.interned_files, validate=False)
    return namespace_trace(arrived, tenant.tenant, stride=fleet.rank_stride)


def assert_same_build(fleet, position, expected):
    trace, runs, requests, ssd_bytes, demoted = expected
    tenant = fleet.tenants[position]
    klass = fleet.classes[tenant.klass]
    assert tenant_rows(fleet, position) == trace
    assert klass.total_bytes == trace.total_bytes()
    assert [tenant_file(tenant.tenant, f) for f in klass.requests] == list(runs)
    # servers, lengths and extent starts
    assert list(fleet.runs[position]) == list(runs.values())
    assert list(requests) == list(runs)
    for (offsets, sizes), (got_offsets, got_sizes) in zip(
        requests.values(), klass.requests.values()
    ):
        np.testing.assert_array_equal(got_offsets, offsets)
        np.testing.assert_array_equal(got_sizes, sizes)
    assert fleet.ssd_bytes[position] == ssd_bytes
    assert fleet.demoted[position] == demoted


def assert_every_tenant_alone(fleet, arrival_seed=DEFAULT_ARRIVAL_SEED):
    for position, tenant in enumerate(fleet.tenants):
        assert_same_build(
            fleet, position, build_from_scratch(SPEC, tenant, arrival_seed)
        )


# ---------------------------------------------------------------------------


class TestWorkCounts:
    def test_each_distinct_search_and_premap_runs_once(self, monkeypatch):
        searches = counting(monkeypatch, aal, "burst_costs_grid")
        premaps = counting(monkeypatch, fixed, "periodic_merged_runs")
        partitions = counting(monkeypatch, ColumnarTrace, "file_partition")
        fleet = build_tenants(SPEC, make_tenants(20))
        # 16 hot DEF tenants premap one batch through one layout; the 4
        # tail AAL tenants are all demoted, and share one search and one
        # premap on the full cluster and one of each HDD-only
        assert [t.klass for t in fleet.tenants].count("hot") == 16
        assert all(
            d for t, d in zip(fleet.tenants, fleet.demoted) if t.klass == "tail"
        )
        assert len(searches) == 2
        assert len(premaps) == 3
        # one partition per class; each of the 8 AAL builds partitions
        # the rows it is built on
        assert len(partitions) == 2 + 8


class TestFromScratchEquality:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_build_equals_a_lone_build(self, n_jobs):
        fleet = build_tenants(SPEC, FLEET, n_jobs=n_jobs)
        assert fleet.tenants == FLEET
        # the fleet exercises both branches of the quota
        assert set(fleet.demoted) == {True, False}
        assert_every_tenant_alone(fleet)

    def test_a_task_without_a_table_builds_alone(self):
        """A range of one tenant shares no scheme and no runs with any
        other tenant, and builds what the reference does."""
        full = build_tenants(SPEC, FLEET)
        for position, tenant in enumerate(FLEET):
            alone = build_tenant(
                TenantRange(
                    SPEC, full.classes, (tenant,), DEFAULT_ARRIVAL_SEED, RANK_STRIDE
                )
            )
            assert_same_build(alone, 0, build_from_scratch(SPEC, tenant))

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_ranges_concatenate_to_the_serial_table(self, n_jobs):
        serial = build_tenants(SPEC, FLEET)
        sharded = build_tenants(SPEC, FLEET, n_jobs=n_jobs)
        np.testing.assert_array_equal(sharded.tenant, serial.tenant)
        np.testing.assert_array_equal(sharded.arrival, serial.arrival)
        assert sharded.runs == serial.runs
        assert (sharded.ssd_bytes, sharded.demoted) == (
            serial.ssd_bytes,
            serial.demoted,
        )

    def test_the_mixed_fleet_reuses_some_searches_and_not_others(self, monkeypatch):
        searches = counting(monkeypatch, aal, "burst_costs_grid")
        fleet = build_tenants(SPEC, FLEET)
        aal_builds = sum(
            1 + demoted
            for t, demoted in zip(FLEET, fleet.demoted)
            if t.scheme == "AAL"
        )
        assert 1 < len(searches) < aal_builds


class FixedGenerator:
    """A stand-in generator: the given columns whatever the op."""

    def __init__(self, trace):
        self._trace = trace

    def columnar(self, *args):
        return self._trace


class TestTenantLayouts:
    @pytest.mark.parametrize("column", ["offset", "size"])
    def test_equal_layouts_map_other_requests_again(self, monkeypatch, column):
        """Two classes write the same file name through equal DEF
        layouts; the class whose batch differs in one column gets its
        own runs."""
        base = class_trace(TenantSpec(tenant=0))
        data = base.data.copy()
        data[column] += 4096
        moved = ColumnarTrace(data, base.interned_files, validate=False)
        traces = {"hot": base, "tail": moved}
        stand_ins = {klass: FixedGenerator(trace) for klass, trace in traces.items()}
        monkeypatch.setattr(
            shard, "tenant_workload", lambda tenant: stand_ins[tenant.klass]
        )
        tenants = tuple(
            TenantSpec(tenant=k, klass=klass, share=1.0 / 3)
            for k, klass in enumerate(("hot", "tail", "hot"))
        )
        fleet = build_tenants(SPEC, tenants)
        for position, tenant in enumerate(tenants):
            trace = traces[tenant.klass]
            expected_runs, _, expected_ssd = premap_from_scratch(SPEC, "DEF", trace)
            assert list(fleet.runs[position]) == list(expected_runs.values())
            assert fleet.ssd_bytes[position] == expected_ssd
        assert fleet.runs[0] == fleet.runs[2] != fleet.runs[1]


class TestPropertyFleets:
    """Small fleets drawn at random: every tenant of the table equals
    its lone build."""

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(TENANT_CLASSES),
                st.sampled_from(SERVE_SCHEMES),
                st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
                st.floats(min_value=0.05, max_value=500.0),
            ),
            min_size=1,
            max_size=4,
        ),
        arrival_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_every_tenant_equals_its_lone_build(self, rows, arrival_seed):
        fleet = build_tenants(SPEC, fleet_of(rows), arrival_seed=arrival_seed)
        assert_every_tenant_alone(fleet, arrival_seed)


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

"""Tenant namespaces: disjoint files and rank windows."""

import pytest

import repro.tenancy.shard as shard
from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.tenancy import (
    RANK_STRIDE,
    build_tenants,
    make_tenants,
    nominal_bandwidth,
    rank_base,
    tenant_file,
    tenant_of_file,
    tenant_of_rank,
)
from repro.tenancy.service import _merge_emission
from repro.tracing import ColumnarTrace, TraceRecord
from tests.tenancy.test_shard import FixedGenerator

SPEC = ClusterSpec(num_hservers=2, num_sservers=2)


def rec(rank, file="f", ts=0.0):
    return TraceRecord(
        offset=0, timestamp=ts, rank=rank, size=1024, op="write", file=file
    )


def columns(*records):
    return ColumnarTrace.from_records(records)


class TestNames:
    def test_file_round_trip(self):
        assert tenant_file(42, "data.bin") == "t0042/data.bin"
        assert tenant_of_file("t0042/data.bin") == 42
        assert tenant_of_file("t1234/a/b") == 1234
        assert tenant_of_file("data.bin") is None
        assert tenant_of_file("x0042/data.bin") is None
        assert tenant_of_file("t00x2/data.bin") is None

    def test_rank_windows_partition_the_integers(self):
        for tenant in (0, 1, 99):
            base = rank_base(tenant)
            assert tenant_of_rank(base) == tenant
            assert tenant_of_rank(base + RANK_STRIDE - 1) == tenant
            assert tenant_of_rank(base + RANK_STRIDE) == tenant + 1


class TestNamespaceTrace:
    """The merge moves each gathered class row into its tenant's
    namespace; no per-tenant copy of the trace exists before it."""

    def merged(self, tenants=2, **kwargs):
        fleet = build_tenants(SPEC, make_tenants(tenants, hot_fraction=1.0), **kwargs)
        trace, _ = _merge_emission(fleet, nominal_bandwidth(SPEC), max_active=4)
        return fleet, trace

    def test_rewrites_files_ranks_and_pids(self):
        fleet, trace = self.merged(rank_stride=8)
        local = fleet.classes["hot"].trace
        assert trace.interned_files == tuple(
            tenant_file(k, file) for k in (0, 1) for file in local.interned_files
        )
        for k in (0, 1):
            mine = [r for r in trace if tenant_of_rank(r.rank, 8) == k]
            # every class row once, in class order, on the tenant's clock
            assert len(mine) == len(local)
            assert [(r.offset, r.size, r.op) for r in mine] == [
                (r.offset, r.size, r.op) for r in local
            ]
            assert [r.rank for r in mine] == [rank_base(k, 8) + r.rank for r in local]
            assert all(r.pid == r.rank for r in mine)
            assert {r.file for r in mine} == {tenant_file(k, "hot.dat")}

    def test_rank_overflow_is_a_config_error(self, monkeypatch):
        # the hot class uses ranks 0 and 1
        with pytest.raises(ConfigurationError, match="namespace window"):
            build_tenants(SPEC, make_tenants(2), rank_stride=1)
        negative = columns(rec(0), rec(-1, ts=1.0))
        stand_in = FixedGenerator(negative)
        monkeypatch.setattr(shard, "tenant_workload", lambda tenant: stand_in)
        with pytest.raises(ConfigurationError, match="local rank -1"):
            build_tenants(SPEC, make_tenants(2))

    def test_namespaces_are_disjoint(self):
        _, trace = self.merged(tenants=3)
        files = {}
        for record in trace:
            tenant = tenant_of_rank(record.rank)
            assert tenant_of_file(record.file) == tenant
            files.setdefault(tenant, set()).add(record.file)
        assert sorted(files) == [0, 1, 2]
        assert not files[0] & files[1] and not files[1] & files[2]

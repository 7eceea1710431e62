"""Tenant namespaces: disjoint files and rank windows."""

import pytest

from repro.exceptions import ConfigurationError
from repro.tenancy import (
    RANK_STRIDE,
    namespace_trace,
    rank_base,
    tenant_file,
    tenant_of_file,
    tenant_of_rank,
)
from repro.tracing import ColumnarTrace, TraceRecord


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
    def test_rewrites_files_ranks_and_pids(self):
        trace = columns(rec(0), rec(1, file="g", ts=1.0))
        spaced = namespace_trace(trace, 7)
        assert isinstance(spaced, ColumnarTrace)
        assert spaced.interned_files == ("t0007/f", "t0007/g")
        assert [r.file for r in spaced] == ["t0007/f", "t0007/g"]
        assert [r.rank for r in spaced] == [rank_base(7), rank_base(7) + 1]
        assert [r.pid for r in spaced] == [rank_base(7), rank_base(7) + 1]
        # payload untouched
        assert [r.timestamp for r in spaced] == [0.0, 1.0]
        assert all(r.size == 1024 for r in spaced)

    def test_rank_overflow_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="namespace window"):
            namespace_trace(columns(rec(0), rec(RANK_STRIDE)), 0)
        with pytest.raises(ConfigurationError, match="local rank -1"):
            namespace_trace(columns(rec(-1)), 0)

    def test_namespaces_are_disjoint(self):
        a = namespace_trace(columns(rec(0)), 3).record(0)
        b = namespace_trace(columns(rec(0)), 4).record(0)
        assert a.file != b.file
        assert tenant_of_rank(a.rank) != tenant_of_rank(b.rank)

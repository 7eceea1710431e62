"""Integration tests for the five-phase MHA pipeline."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import DRT, MHAPipeline
from repro.core.pipeline import identity_redirector
from repro.exceptions import ConfigurationError, KVStoreError, RedirectionError
from repro.kvstore import HashDB
from repro.layouts import check_tiling
from repro.tracing import Trace, TraceRecord
from repro.units import KiB


def rec(offset, size, ts, rank=0, op="write", file="f"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op, file=file)


def mixed_trace(loops=6, procs=4):
    """Alternating small/large phases, LANL-style."""
    records = []
    area = loops * (1 * KiB + 127 * KiB)
    for loop in range(loops):
        for rank in range(procs):
            base = rank * area + loop * 128 * KiB
            records.append(rec(base, 1 * KiB, ts=loop * 20.0, rank=rank))
            records.append(
                rec(base + 1 * KiB, 127 * KiB, ts=loop * 20.0 + 10.0, rank=rank)
            )
    return Trace(records)


@pytest.fixture
def spec():
    return ClusterSpec()


class TestPlan:
    def test_end_to_end_plan(self, spec):
        plan = MHAPipeline(spec, seed=1).plan(mixed_trace())
        assert plan.num_regions >= 2
        assert len(plan.drt) > 0
        assert len(plan.rst) == plan.num_regions
        assert plan.migrated_bytes() == mixed_trace().total_bytes() // 1  # claimed once
        assert "MHA plan" in plan.describe()

    def test_every_request_maps_and_tiles(self, spec):
        trace = mixed_trace()
        plan = MHAPipeline(spec, seed=1).plan(trace)
        for record in trace:
            frags = plan.redirector.map_request(record.file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)

    def test_grouping_separates_small_and_large(self, spec):
        plan = MHAPipeline(spec, seed=1).plan(mixed_trace())
        grouping = plan.groupings["f"]
        sizes = {round(c[0]) for c in grouping.centers}
        assert 1 * KiB in sizes and 127 * KiB in sizes

    def test_deterministic(self, spec):
        a = MHAPipeline(spec, seed=5).plan(mixed_trace())
        b = MHAPipeline(spec, seed=5).plan(mixed_trace())
        assert list(a.rst) == list(b.rst)

    def test_multi_file_trace(self, spec):
        records = []
        for f in ("a", "b"):
            for i in range(4):
                records.append(rec(i * 64 * KiB, 64 * KiB, ts=float(i), file=f))
        plan = MHAPipeline(spec, seed=0).plan(Trace(records))
        assert set(plan.reorder_plans) == {"a", "b"}
        for record in records:
            frags = plan.redirector.map_request(record.file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)

    def test_empty_trace(self, spec):
        plan = MHAPipeline(spec).plan(Trace([]))
        assert plan.num_regions == 0
        assert len(plan.drt) == 0

    def test_persistence(self, spec, tmp_path):
        pipeline = MHAPipeline(
            spec,
            seed=1,
            drt_path=tmp_path / "drt.db",
            rst_path=tmp_path / "rst.db",
        )
        plan = pipeline.plan(mixed_trace())
        n_entries, n_regions = len(plan.drt), len(plan.rst)
        plan.drt.close()
        plan.rst.close()
        from repro.core import DRT, RST

        with DRT(tmp_path / "drt.db") as drt, RST(tmp_path / "rst.db") as rst:
            assert len(drt) == n_entries
            assert len(rst) == n_regions

    def test_k_override(self, spec):
        plan = MHAPipeline(spec, k=1, seed=0).plan(mixed_trace())
        assert plan.groupings["f"].k == 1

    def test_invalid_k(self, spec):
        with pytest.raises(ConfigurationError):
            MHAPipeline(spec, k=0)

    def test_negative_spatial_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            MHAPipeline(spec, spatial=-1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("gap", -1.0),
            ("gap", 0.0),
            ("gap", math.nan),
            ("gap", math.inf),
            ("max_groups", 0),
            ("max_groups", -3),
            ("original_stripe", 0),
            ("original_stripe", -64 * KiB),
        ],
    )
    def test_bad_setting_rejected_on_construction(self, spec, name, value):
        with pytest.raises(ConfigurationError, match=name):
            MHAPipeline(spec, **{name: value})

    def test_replanning_into_the_same_tables_is_rejected(
        self, spec, tmp_path, monkeypatch
    ):
        """Plan metadata is write-once: planning the same trace again
        into the same files finds its extents already mapped, and the
        failed plan closes both logs."""
        paths = {"drt_path": tmp_path / "drt.db", "rst_path": tmp_path / "rst.db"}
        first = MHAPipeline(spec, seed=1, **paths).plan(mixed_trace())
        entries = list(first.drt)
        first.drt.close()
        first.rst.close()
        logs = []
        open_log = HashDB.__init__

        def recording_init(db, *args, **kwargs):
            open_log(db, *args, **kwargs)
            logs.append(db)

        monkeypatch.setattr(HashDB, "__init__", recording_init)
        with pytest.raises(RedirectionError, match="overlap"):
            MHAPipeline(spec, seed=1, **paths).plan(mixed_trace())
        monkeypatch.undo()
        assert sorted(db.path.name for db in logs) == ["drt.db", "rst.db"]
        for db in logs:
            with pytest.raises(KVStoreError, match="closed"):
                db.put(b"probe", b"")
        with DRT(paths["drt_path"]) as drt:
            assert list(drt) == entries

    def test_max_groups_cap(self, spec):
        plan = MHAPipeline(spec, max_groups=2, seed=0).plan(mixed_trace())
        assert plan.groupings["f"].k <= 2


class TestIdentityRedirector:
    def test_maps_back_to_original_offsets(self, spec):
        trace = mixed_trace(loops=2, procs=2)
        redirector = identity_redirector(spec, trace)
        for record in trace:
            frags = redirector.map_request(record.file, record.offset, record.size)
            check_tiling(record.offset, record.size, frags)
            assert all(f.obj == record.file for f in frags)

    def test_every_lookup_hits_the_drt(self, spec):
        trace = mixed_trace(loops=2, procs=2)
        redirector = identity_redirector(spec, trace)
        for record in trace:
            extents = redirector.drt.translate(record.file, record.offset, record.size)
            assert extents and all(extent.mapped for extent in extents)

"""Tests for restoring a plan from its persisted metadata (load_plan)
and for its one-off migration, copied by the live scheduler on an idle
cluster."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline, load_plan
from repro.pfs import run_workload
from repro.tracing import Trace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload, LANLWorkload
from tests.plan_checks import audit_plan, migrate_offline


@pytest.fixture
def spec():
    return ClusterSpec()


@pytest.fixture
def trace():
    return IORWorkload(
        num_processes=8,
        request_sizes=[32 * KiB, 128 * KiB],
        total_size=8 * MiB,
        seed=4,
    ).trace("write")


class TestLoadPlan:
    def test_restored_plan_maps_identically(self, spec, trace, tmp_path):
        pipeline = MHAPipeline(
            spec, seed=0, drt_path=tmp_path / "drt.db", rst_path=tmp_path / "rst.db"
        )
        original = pipeline.plan(trace)
        expected = {
            (r.offset, r.size): original.redirector.map_request(
                r.file, r.offset, r.size
            )
            for r in trace
        }
        original.drt.close()
        original.rst.close()

        restored = load_plan(spec, tmp_path / "drt.db", tmp_path / "rst.db")
        for record in trace:
            got = restored.redirector.map_request(
                record.file, record.offset, record.size
            )
            assert got == expected[(record.offset, record.size)]

    def test_restored_plan_replays_identically(self, spec, trace, tmp_path):
        pipeline = MHAPipeline(
            spec, seed=0, drt_path=tmp_path / "drt.db", rst_path=tmp_path / "rst.db"
        )
        original = pipeline.plan(trace)
        m1 = run_workload(spec, original.redirector, trace)
        original.drt.close()
        original.rst.close()
        restored = load_plan(spec, tmp_path / "drt.db", tmp_path / "rst.db")
        m2 = run_workload(spec, restored.redirector, trace)
        assert m1.makespan == m2.makespan

    def test_restored_plan_passes_structural_audit(self, spec, trace, tmp_path):
        pipeline = MHAPipeline(
            spec, seed=0, drt_path=tmp_path / "drt.db", rst_path=tmp_path / "rst.db"
        )
        plan = pipeline.plan(trace)
        plan.drt.close()
        plan.rst.close()
        restored = load_plan(spec, tmp_path / "drt.db", tmp_path / "rst.db")
        audit_plan(restored, trace)


class TestSimulatedMigration:
    def test_migration_moves_every_drt_byte(self, spec):
        trace = LANLWorkload(num_processes=4, loops=8).trace("write")
        plan = MHAPipeline(spec, seed=0).plan(trace)
        report = migrate_offline(spec, plan)
        assert report.bytes_moved == plan.migrated_bytes()
        assert report.extents == len(plan.drt)
        assert report.complete
        assert report.makespan > 0

    def test_migration_time_within_sanity_bounds(self, spec, trace):
        plan = MHAPipeline(spec, seed=0).plan(trace)
        migration = migrate_offline(spec, plan)
        production = run_workload(spec, plan.redirector, trace)
        # the one-off copy reads + writes every byte: same order of
        # magnitude as one production run, not dozens of them
        assert 0 < migration.makespan < 20 * production.makespan

    def test_empty_plan_migrates_nothing(self, spec):
        plan = MHAPipeline(spec, seed=0).plan(Trace([]))
        report = migrate_offline(spec, plan)
        assert report.bytes_moved == 0
        assert report.makespan == 0.0


class TestLoadPlanRoundTripInvariants:
    def test_rst_pairs_survive_round_trip(self, spec, trace, tmp_path):
        pipeline = MHAPipeline(
            spec, seed=0, drt_path=tmp_path / "drt.db", rst_path=tmp_path / "rst.db"
        )
        original = pipeline.plan(trace)
        pairs = {name: (p.h, p.s) for name, p in original.rst}
        original.drt.close()
        original.rst.close()
        restored = load_plan(spec, tmp_path / "drt.db", tmp_path / "rst.db")
        assert {name: (p.h, p.s) for name, p in restored.rst} == pairs

    def test_drt_entries_survive_round_trip(self, spec, trace, tmp_path):
        pipeline = MHAPipeline(
            spec, seed=0, drt_path=tmp_path / "drt.db", rst_path=tmp_path / "rst.db"
        )
        original = pipeline.plan(trace)
        entries = sorted(
            (e.o_file, e.o_offset, e.length, e.r_file, e.r_offset)
            for e in original.drt
        )
        original.drt.close()
        original.rst.close()
        restored = load_plan(spec, tmp_path / "drt.db", tmp_path / "rst.db")
        assert entries == sorted(
            (e.o_file, e.o_offset, e.length, e.r_file, e.r_offset)
            for e in restored.drt
        )

    def test_restored_plan_migrates_identically(self, spec, trace, tmp_path):
        pipeline = MHAPipeline(
            spec, seed=0, drt_path=tmp_path / "drt.db", rst_path=tmp_path / "rst.db"
        )
        original = pipeline.plan(trace)
        m1 = migrate_offline(spec, original)
        original.drt.close()
        original.rst.close()
        restored = load_plan(spec, tmp_path / "drt.db", tmp_path / "rst.db")
        m2 = migrate_offline(spec, restored)
        assert m1.bytes_moved == m2.bytes_moved
        assert m1.extents == m2.extents
        assert m1.flip_times == m2.flip_times
        assert m1.makespan == m2.makespan


class TestMigrationMetricInvariants:
    def test_bytes_moved_equals_drt_extent_sum(self, spec, trace):
        plan = MHAPipeline(spec, seed=0).plan(trace)
        report = migrate_offline(spec, plan)
        assert report.bytes_moved == sum(e.length for e in plan.drt)
        # the DRT claims each reordered byte exactly once, so the copy
        # volume also equals the plan's own accounting
        assert report.bytes_moved == plan.migrated_bytes()

    def test_makespan_is_last_flip(self, spec, trace):
        plan = MHAPipeline(spec, seed=0).plan(trace)
        report = migrate_offline(spec, plan)
        assert set(report.flip_times) == set(plan.region_layouts)
        assert report.started_at == 0.0
        assert report.finished_at == max(report.flip_times.values()) > 0

    def test_bandwidth_bounded_by_cluster_capability(self, spec, trace):
        """Effective copy bandwidth can never exceed the aggregate
        device ceiling (1/beta bytes per second per server)."""
        plan = MHAPipeline(spec, seed=0).plan(trace)
        report = migrate_offline(spec, plan)
        ceiling = sum(
            1.0
            / min(
                spec.device_for(s).beta("read"), spec.device_for(s).beta("write")
            )
            for s in spec.server_ids
        )
        assert report.bytes_moved / report.makespan <= ceiling

"""Checks that a plan is consistent.

``load_plan`` rejects committed tables that do not hold one plan; the
trace audit (``tests/plan_checks.py``) runs the same table check on a
plan in memory and resolves every request of its trace.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import DRTEntry, MHAPipeline, RST, StripePair, load_plan
from repro.exceptions import KVStoreError
from repro.kvstore import EpochDB
from repro.units import KiB
from repro.workloads import IORWorkload, LANLWorkload, LUWorkload
from tests.plan_checks import audit_plan, drt_record


@pytest.fixture
def spec():
    return ClusterSpec()


def audit_of(spec, trace):
    plan = MHAPipeline(spec, seed=0).plan(trace)
    audit_plan(plan, trace)
    assert sum(e.length for e in plan.drt) == plan.migrated_bytes()


class TestCleanPlans:
    def test_ior_plan_verifies(self, spec):
        audit_of(
            spec,
            IORWorkload(
                num_processes=8,
                request_sizes=[16 * KiB, 64 * KiB],
                total_size=4 * 1024 * KiB,
            ).trace("write"),
        )

    def test_lanl_plan_verifies(self, spec):
        audit_of(spec, LANLWorkload(num_processes=4, loops=8).trace("write"))

    def test_multi_file_plan_verifies(self, spec):
        audit_of(spec, LUWorkload(num_processes=4, slabs=6).trace())


def entry(o_offset, length, r_offset, r_file="f.region0"):
    return DRTEntry("f", o_offset, length, r_file, r_offset)


def commit_tables(directory, entries, regions, epoch=1):
    """Commit ``entries`` to a DRT as they are, even where ``DRT.add_all``
    would refuse them, and a stripe pair per region to an RST."""
    drt = EpochDB(directory / "drt.db")
    for e in entries:
        drt.stage(*drt_record(e.o_file, e.o_offset, e.length, e.r_file, e.r_offset))
    drt.commit(epoch)
    drt.close()
    with RST(directory / "rst.db") as rst:
        for region in regions:
            rst.set(region, StripePair(0, 4 * KiB))
        rst.commit(epoch)


def load(directory):
    return load_plan(ClusterSpec(), directory / "drt.db", directory / "rst.db")


class TestBrokenPlans:
    """Hand-made committed tables that are not one plan: each makes
    ``load_plan`` raise ``KVStoreError``."""

    def test_packed_tables_load(self, tmp_path):
        commit_tables(
            tmp_path,
            [entry(0, 4 * KiB, 4 * KiB), entry(8 * KiB, 4 * KiB, 0)],
            ["f.region0"],
        )
        plan = load(tmp_path)
        assert len(plan.drt) == 2 and len(plan.rst) == 1
        plan.drt.close()
        plan.rst.close()

    def test_region_hole_detected(self, tmp_path):
        commit_tables(
            tmp_path,
            [entry(0, 4 * KiB, 0), entry(8 * KiB, 4 * KiB, 8 * KiB)],
            ["f.region0"],
        )
        with pytest.raises(KVStoreError, match="hole at 4096"):
            load(tmp_path)

    def test_region_bytes_written_twice_detected(self, tmp_path):
        commit_tables(
            tmp_path,
            [entry(0, 4 * KiB, 0), entry(8 * KiB, 4 * KiB, 0)],
            ["f.region0"],
        )
        with pytest.raises(KVStoreError, match="written twice at 0"):
            load(tmp_path)

    def test_missing_rst_entry_detected(self, tmp_path):
        commit_tables(
            tmp_path,
            [entry(0, 4 * KiB, 0), entry(4 * KiB, 4 * KiB, 0, "f.region1")],
            ["f.region0"],
        )
        with pytest.raises(KVStoreError, match="f.region1.*no RST pair"):
            load(tmp_path)

    def test_orphan_rst_entry_detected(self, tmp_path):
        commit_tables(tmp_path, [entry(0, 4 * KiB, 0)], ["f.region0", "ghost"])
        with pytest.raises(KVStoreError, match="ghost.*no DRT entry"):
            load(tmp_path)

    def test_overlapping_entries_detected(self, tmp_path):
        commit_tables(
            tmp_path,
            [entry(0, 8 * KiB, 0), entry(4 * KiB, 8 * KiB, 8 * KiB)],
            ["f.region0"],
        )
        with pytest.raises(KVStoreError, match="overlap"):
            load(tmp_path)

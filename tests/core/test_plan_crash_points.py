"""Crash points of a plan's metadata.

A plan's DRT and RST files are each one fsynced commit stamped with the
plan epoch.  Whatever a crash or a bad disk leaves of them, ``load_plan``
returns exactly the committed plan or raises ``KVStoreError``, and
leaves the files as it found them.
"""

import os
import struct

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import DRT, MHAPipeline, RST, load_plan
from repro.exceptions import KVStoreError
from repro.tracing import Trace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from tests.plan_checks import audit_plan

RANDOM_CUTS = 60
FLIPS = 60
TABLES = ("drt.db", "rst.db")


def ior_trace(total_size=8 * MiB, file="ior.dat"):
    return IORWorkload(
        num_processes=8,
        request_sizes=[32 * KiB, 128 * KiB],
        total_size=total_size,
        seed=4,
        file=file,
    ).trace("write")


def plan_into(directory, trace):
    plan = MHAPipeline(
        ClusterSpec(),
        seed=0,
        drt_path=directory / "drt.db",
        rst_path=directory / "rst.db",
    ).plan(trace)
    plan.drt.close()
    plan.rst.close()
    return plan


def load(directory, drt="drt.db", rst="rst.db"):
    return load_plan(ClusterSpec(), directory / drt, directory / rst)


def record_boundaries(data):
    """Every offset at which a HashDB log's magic or a record ends."""
    pos, ends = 4, [0, 4]
    while pos < len(data):
        _, keylen, vallen = struct.unpack_from("<IIi", data, pos)
        pos += 12 + keylen + max(vallen, 0)
        ends.append(pos)
    assert pos == len(data)
    return ends


def write_tables(directory, tables):
    for name, data in tables.items():
        (directory / name).write_bytes(data)


@pytest.fixture(scope="module")
def committed(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plan")
    trace = ior_trace()
    plan = plan_into(directory, trace)
    return {
        "trace": trace,
        "drt": list(plan.drt),
        "rst": list(plan.rst),
        "files": {name: (directory / name).read_bytes() for name in TABLES},
    }


def damaged_copies(data, seed):
    rng = np.random.default_rng(seed)
    for cut in record_boundaries(data):
        yield f"cut at record end {cut}", data[:cut]
    for cut in rng.integers(0, len(data), RANDOM_CUTS).tolist():
        yield f"cut at {cut}", data[:cut]
    for _ in range(FLIPS):
        pos, bit = int(rng.integers(len(data))), int(rng.integers(8))
        damaged = bytearray(data)
        damaged[pos] ^= 1 << bit
        yield f"bit {bit} of byte {pos} flipped", bytes(damaged)


@pytest.mark.parametrize("name,seed", [("drt.db", 1), ("rst.db", 2)])
def test_damaged_table_loads_the_committed_plan_or_raises(
    tmp_path, committed, name, seed
):
    whole = 0
    for case, data in damaged_copies(committed["files"][name], seed):
        write_tables(tmp_path, {**committed["files"], name: data})
        try:
            restored = load(tmp_path)
        except KVStoreError:
            pass
        else:
            try:
                assert list(restored.drt) == committed["drt"], case
                assert list(restored.rst) == committed["rst"], case
                audit_plan(restored, committed["trace"])
            finally:
                restored.drt.close()
                restored.rst.close()
            whole += 1
        assert (tmp_path / name).read_bytes() == data, f"{case}: file changed"
    assert whole >= 1  # the cut at the log's end leaves it whole


@pytest.fixture(scope="module")
def two_commits(tmp_path_factory):
    """Tables holding two plans: the IOR plan at epoch 1, then a plan of
    another file committed on top at epoch 2."""
    directory = tmp_path_factory.mktemp("two")
    traces = [ior_trace(), ior_trace(4 * MiB, file="other.dat")]
    commits = {}
    for epoch, trace in enumerate(traces, start=1):
        plan = plan_into(directory, trace)
        commits[epoch] = {
            "trace": Trace([r for t in traces[:epoch] for r in t]),
            "drt": list(plan.drt),
            "rst": list(plan.rst),
            "files": {name: (directory / name).read_bytes() for name in TABLES},
        }
    return commits


@pytest.mark.parametrize("partner_epoch", [1, 2])
@pytest.mark.parametrize("name,seed", [("drt.db", 3), ("rst.db", 4)])
def test_damaged_two_plan_table_loads_a_whole_plan_or_raises(
    tmp_path, two_commits, name, seed, partner_epoch
):
    # one table damaged anywhere, the other whole at epoch 1 or 2: the
    # result is exactly the plan both files hold, or KVStoreError
    other = TABLES[1 - TABLES.index(name)]
    loaded = set()
    for case, data in damaged_copies(two_commits[2]["files"][name], seed):
        write_tables(
            tmp_path, {name: data, other: two_commits[partner_epoch]["files"][other]}
        )
        try:
            restored = load(tmp_path)
        except KVStoreError:
            continue
        try:
            epoch = restored.drt.epoch
            assert list(restored.drt) == two_commits[epoch]["drt"], case
            assert list(restored.rst) == two_commits[epoch]["rst"], case
            if epoch not in loaded:  # equal tables give an equal audit
                audit_plan(restored, two_commits[epoch]["trace"])
            loaded.add(epoch)
        finally:
            restored.drt.close()
            restored.rst.close()
    # the cut at the end of the partner's own commit loads that plan
    assert loaded == {partner_epoch}


def test_half_written_drt_raises(tmp_path, committed):
    data = committed["files"]["drt.db"]
    ends = record_boundaries(data)
    write_tables(
        tmp_path, {**committed["files"], "drt.db": data[: ends[len(ends) // 2]]}
    )
    with pytest.raises(KVStoreError):
        load(tmp_path)


def test_load_plan_leaves_a_damaged_file_unchanged(tmp_path, committed):
    damaged = bytearray(committed["files"]["drt.db"])
    damaged[len(damaged) // 4] ^= 0x04
    write_tables(tmp_path, {**committed["files"], "drt.db": bytes(damaged)})
    with pytest.raises(KVStoreError):
        load(tmp_path)
    assert (tmp_path / "drt.db").read_bytes() == bytes(damaged)


def test_swapped_paths_raise(tmp_path, committed):
    write_tables(tmp_path, committed["files"])
    with pytest.raises(KVStoreError):
        load(tmp_path, drt="rst.db", rst="drt.db")


def fail_rst_commit(self, epoch):
    raise OSError("power failure before the RST commit")


def epochs(directory):
    with DRT(directory / "drt.db") as drt, RST(directory / "rst.db") as rst:
        return drt.epoch, rst.epoch


def test_crash_between_the_two_commits_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(RST, "commit", fail_rst_commit)
    with pytest.raises(OSError, match="power failure"):
        plan_into(tmp_path, ior_trace())
    monkeypatch.undo()
    assert epochs(tmp_path) == (1, 0)
    with pytest.raises(KVStoreError):
        load(tmp_path)


def test_second_plan_crashing_between_commits_raises(tmp_path, committed):
    # a second plan, of another file, goes into the same tables at
    # epoch 2; only its DRT commit lands
    write_tables(tmp_path, committed["files"])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RST, "commit", fail_rst_commit)
        with pytest.raises(OSError, match="power failure"):
            plan_into(tmp_path, ior_trace(file="other.dat"))
    assert epochs(tmp_path) == (2, 1)
    with pytest.raises(KVStoreError):
        load(tmp_path)


def test_plan_fsyncs_do_not_grow_with_the_plan(tmp_path, monkeypatch):
    real_fsync = os.fsync
    counts = {}
    for total in (4 * MiB, 16 * MiB):
        calls = []

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        plan = plan_into(tmp_path / f"total{total}", ior_trace(total))
        monkeypatch.undo()
        counts[len(plan.drt)] = len(calls)
    assert len(counts) == 2  # two plans of different sizes
    # two logs created (file and directory each), then two commits
    assert len(set(counts.values())) == 1 and max(counts.values()) <= 6

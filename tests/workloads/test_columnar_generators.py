"""The columnar generators emit their documented phase structure.

``test_generator_pins.py`` pins every generator's bytes; these tests say
what the rows mean: which rank issues which slot in which phase, how
the slots tile the file, and how an op filter cuts the full trace.
"""

import numpy as np
import pytest

from repro.tracing.columnar import OP_NAMES
from repro.units import KiB, MiB
from repro.workloads import CheckpointWorkload, IORMixedProcsWorkload, IORWorkload
from repro.workloads.base import _RANK_STAGGER, PHASE_GAP


def phases_of(trace):
    """Each row's phase, after checking its stamp and its pid."""
    d = trace.data
    stagger = d["rank"] * _RANK_STAGGER
    phases = np.rint((d["timestamp"] - stagger) / PHASE_GAP).astype(np.int64)
    np.testing.assert_array_equal(d["timestamp"], phases * PHASE_GAP + stagger)
    np.testing.assert_array_equal(d["pid"], d["rank"])
    return phases


def assert_lockstep(trace, procs):
    """Row ``i`` is rank ``i % procs``'s request in phase ``i // procs``."""
    i = np.arange(len(trace))
    np.testing.assert_array_equal(trace.data["rank"], i % procs)
    np.testing.assert_array_equal(phases_of(trace), i // procs)


def assert_tiles(trace, sizes):
    """In offset order the requests tile ``[0, end)`` with ``sizes``."""
    d = trace.data
    order = np.argsort(d["offset"])
    assert d["size"][order].tolist() == list(sizes)
    np.testing.assert_array_equal(d["offset"][order], np.cumsum(sizes) - sizes)


class TestIORColumnar:
    @pytest.mark.parametrize("op", ["read", "write"])
    @pytest.mark.parametrize("randomize", [True, False])
    def test_mixed_sizes(self, op, randomize):
        trace = IORWorkload(
            num_processes=7,
            request_sizes=[4 * KiB, 64 * KiB],
            total_size=1 * MiB,
            randomize_offsets=randomize,
            seed=3,
        ).columnar(op)
        assert_lockstep(trace, 7)
        assert (trace.data["op"] == OP_NAMES.index(op)).all()
        assert_tiles(trace, [(4 * KiB, 64 * KiB)[k % 2] for k in range(len(trace))])
        in_order = bool((np.diff(trace.data["offset"]) > 0).all())
        assert in_order != randomize

    def test_uniform(self):
        trace = IORWorkload(
            num_processes=4, request_sizes=8 * KiB, total_size=512 * KiB
        ).columnar("write")
        assert len(trace) == 64
        assert_lockstep(trace, 4)
        assert_tiles(trace, [8 * KiB] * 64)

    def test_shuffle_respects_seed(self):
        a = IORWorkload(total_size=1 * MiB, seed=1).columnar("write")
        b = IORWorkload(total_size=1 * MiB, seed=1).columnar("write")
        c = IORWorkload(total_size=1 * MiB, seed=2).columnar("write")
        assert a == b
        assert a != c


class TestIORMixedProcsColumnar:
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_two_groups(self, op):
        trace = IORMixedProcsWorkload(
            process_groups=(3, 5),
            request_size=16 * KiB,
            bytes_per_group=512 * KiB,
        ).columnar(op)
        assert len(trace) == 64
        assert (trace.data["op"] == OP_NAMES.index(op)).all()
        phases = phases_of(trace)
        i = np.arange(32)
        # each group drives its own segment with its own ranks, in
        # lock-step phases counted from 0
        for group, (procs, first_rank) in enumerate(((3, 0), (5, 3))):
            rows = slice(32 * group, 32 * (group + 1))
            ranks = trace.data["rank"][rows]
            np.testing.assert_array_equal(ranks, first_rank + i % procs)
            np.testing.assert_array_equal(phases[rows], i // procs)
            offsets = trace.data["offset"][rows]
            np.testing.assert_array_equal(offsets, (32 * group + i) * 16 * KiB)

    def test_single_group(self):
        trace = IORMixedProcsWorkload(
            process_groups=(4,),
            request_size=64 * KiB,
            bytes_per_group=1 * MiB,
        ).columnar("write")
        assert_lockstep(trace, 4)
        np.testing.assert_array_equal(trace.data["offset"], np.arange(16) * 64 * KiB)


class TestCheckpointColumnar:
    @pytest.mark.parametrize("op", [None, "read", "write"])
    @pytest.mark.parametrize("restart", [True, False])
    def test_all_op_filters(self, op, restart):
        workload = CheckpointWorkload(num_processes=3, checkpoints=4, restart=restart)
        full = workload.columnar()
        d = full.data
        phases = phases_of(full)
        if op is None:
            # every rank's epoch is a header row, then its payload one
            # phase later; the restart re-reads the last epoch's pairs
            header, payload = slice(0, None, 2), slice(1, None, 2)
            assert (d["size"][header] == 512).all()
            assert (d["size"][payload] == 1 * MiB).all()
            payload_offsets = d["offset"][header] + 512
            np.testing.assert_array_equal(d["offset"][payload], payload_offsets)
            np.testing.assert_array_equal(phases[payload], phases[header] + 1)
            writes = 2 * 3 * 4
            assert len(full) == writes + (2 * 3 if restart else 0)
            assert (d["op"][:writes] == OP_NAMES.index("write")).all()
            assert (d["op"][writes:] == OP_NAMES.index("read")).all()
            if restart:
                last_epoch = d["offset"][writes - 6 : writes]
                np.testing.assert_array_equal(d["offset"][writes:], last_epoch)
                np.testing.assert_array_equal(phases[writes:], [8, 9] * 3)
            return
        part = workload.columnar(op)
        keep = d["op"] == OP_NAMES.index(op)
        for field in ("offset", "size", "rank", "file", "op"):
            np.testing.assert_array_equal(part.data[field], d[field][keep])
        # a read-only trace starts its restart at phase 0
        shift = 8 if op == "read" else 0
        np.testing.assert_array_equal(phases_of(part), phases[keep] - shift)

    def test_read_filter_without_restart_is_empty(self):
        trace = CheckpointWorkload(restart=False).columnar("read")
        assert len(trace) == 0
        assert trace.interned_files == ("checkpoint.dat",)
        assert len(CheckpointWorkload(restart=False).trace("read")) == 0

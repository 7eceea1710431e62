"""Tests for the checkpoint/restart workload."""

import pytest

from repro.exceptions import ConfigurationError
from repro.units import KiB, MiB
from repro.workloads import CheckpointWorkload


class TestCheckpointWorkload:
    def test_write_then_restart_read(self):
        w = CheckpointWorkload(num_processes=2, checkpoints=3)
        trace = w.trace()
        ops = [r.op for r in trace.sorted_by_time()]
        # all writes first, then the restart reads
        first_read = ops.index("read")
        assert all(op == "write" for op in ops[:first_read])
        assert all(op == "read" for op in ops[first_read:])

    def test_restart_reads_final_checkpoint(self):
        w = CheckpointWorkload(num_processes=2, checkpoints=4, restart=True)
        reads = [r for r in w.trace() if r.op == "read"]
        assert len(reads) == 2 * 2  # header + payload per rank
        last_epoch_base = 3 * w.epoch_bytes
        assert min(r.offset for r in reads if r.rank == 0) == last_epoch_base

    def test_no_restart(self):
        w = CheckpointWorkload(num_processes=2, checkpoints=2, restart=False)
        assert all(r.op == "write" for r in w.trace())

    def test_heterogeneous_sizes(self):
        w = CheckpointWorkload(header_size=512, payload_size=1 * MiB)
        sizes = {r.size for r in w.trace("write")}
        assert sizes == {512, 1 * MiB}

    def test_rank_areas_disjoint(self):
        w = CheckpointWorkload(num_processes=3, checkpoints=2)
        trace = w.trace("write")
        for rank in range(3):
            mine = [r for r in trace if r.rank == rank]
            lo = min(r.offset for r in mine)
            hi = max(r.end for r in mine)
            assert lo >= rank * w.area_size
            assert hi <= (rank + 1) * w.area_size

    def test_op_filter(self):
        w = CheckpointWorkload(num_processes=2, checkpoints=2)
        assert all(r.op == "write" for r in w.trace("write"))
        assert all(r.op == "read" for r in w.trace("read"))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointWorkload(num_processes=0)
        with pytest.raises(ConfigurationError):
            CheckpointWorkload(header_size=0)

    def test_mha_exploits_the_pattern(self):
        """Integration: the header/payload split is MHA's bread and butter."""
        from repro.cluster import ClusterSpec
        from repro.harness import compare_schemes

        spec = ClusterSpec()
        trace = CheckpointWorkload(
            num_processes=4, checkpoints=6, payload_size=256 * KiB
        ).trace()
        cmp = compare_schemes(spec, trace, ("DEF", "MHA"))
        assert cmp.bandwidth("MHA") > cmp.bandwidth("DEF")

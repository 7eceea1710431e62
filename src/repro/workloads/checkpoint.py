"""Checkpoint/restart workload — the classic HPC pattern MHA targets.

Not one of the paper's named benchmarks, but the access pattern its
introduction motivates: applications that periodically dump state
(large sequential writes preceded by small metadata/header writes) and
occasionally restart (reading the newest checkpoint back).  The
header/payload size split makes it heterogeneous in exactly MHA's
sense; the restart phase adds a read/write op mix.
"""

from __future__ import annotations

import numpy as np

from ..devices.base import READ, WRITE, OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import OP_NAMES, ColumnarTrace
from ..units import MiB
from .base import Workload, phase_trace

__all__ = ["CheckpointWorkload"]


class CheckpointWorkload(Workload):
    """Periodic checkpoints plus an optional restart read-back.

    Parameters
    ----------
    num_processes:
        Ranks writing to the shared checkpoint file.
    checkpoints:
        Number of checkpoint epochs.
    header_size / payload_size:
        Per-rank metadata header and state dump per epoch.
    restart:
        Whether a restart phase (re-reading the final checkpoint)
        follows the writes.
    """

    name = "checkpoint"

    def __init__(
        self,
        num_processes: int = 8,
        checkpoints: int = 16,
        header_size: int = 512,
        payload_size: int = 1 * MiB,
        restart: bool = True,
        file: str = "checkpoint.dat",
    ) -> None:
        if num_processes <= 0 or checkpoints <= 0:
            raise ConfigurationError("num_processes and checkpoints must be >= 1")
        if header_size <= 0 or payload_size <= 0:
            raise ConfigurationError("header and payload sizes must be > 0")
        self.num_processes = num_processes
        self.checkpoints = checkpoints
        self.header_size = header_size
        self.payload_size = payload_size
        self.restart = restart
        self.file = file

    @property
    def epoch_bytes(self) -> int:
        """Bytes one rank writes per checkpoint epoch."""
        return self.header_size + self.payload_size

    @property
    def area_size(self) -> int:
        """Bytes of the file owned by one rank."""
        return self.checkpoints * self.epoch_bytes

    def columnar(self, op: OpType | None = None) -> ColumnarTrace:
        """The full write(+restart-read) trace; ``op`` filters one type.

        Each rank writes one (header, payload) pair per epoch, epoch
        ``e`` in phases ``2e`` and ``2e + 1``; the restart reads the
        last epoch's pair back in the two phases after the writes.
        """
        P, C = self.num_processes, self.checkpoints
        n_writes = P * C if op in (None, WRITE) else 0
        n_reads = P if self.restart and op in (None, READ) else 0
        pair = np.arange(n_writes + n_reads)
        is_write = pair < n_writes
        rank = pair % P
        epoch = np.where(is_write, pair // P, C - 1)
        base = rank * self.area_size + epoch * self.epoch_bytes
        code = np.where(is_write, OP_NAMES.index(WRITE), OP_NAMES.index(READ))
        return phase_trace(
            (2 * (pair // P)[:, None] + [0, 1]).reshape(-1),
            np.repeat(rank, 2),
            (base[:, None] + [0, self.header_size]).reshape(-1),
            np.tile([self.header_size, self.payload_size], pair.size),
            np.repeat(code, 2),
            self.file,
        )

"""LANL anonymous-application trace model (Fig. 3 / §V-D).

The paper analyzes the LANL "Anonymous App2" I/O trace: "For each loop
in the application, there are three I/O operations, one small request
with 16 bytes, and followed by two large requests with 128K-16 bytes
and 128 KB" — and the same-size requests recur *across* loops rather
than consecutively, which is exactly the heterogeneity MHA's reordering
groups together.

The generator reproduces that loop structure over a shared file: each
process owns a contiguous area; in loop ``i`` it issues the three
requests back-to-back within its area, and all processes run their
loops in lock-step phases.
"""

from __future__ import annotations

import numpy as np

from ..devices.base import OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import ColumnarTrace
from ..units import KiB
from .base import Workload, phase_trace

__all__ = ["LANLWorkload", "LOOP_PATTERN"]

#: request sizes of one application loop (Fig. 3)
LOOP_PATTERN: tuple[int, ...] = (16, 128 * KiB - 16, 128 * KiB)


class LANLWorkload(Workload):
    """The 16 B / 128K−16 B / 128 KB loop of the LANL trace."""

    name = "LANL"

    def __init__(
        self,
        num_processes: int = 8,
        loops: int = 64,
        file: str = "lanl.dat",
    ) -> None:
        if num_processes <= 0 or loops <= 0:
            raise ConfigurationError("num_processes and loops must be >= 1")
        self.num_processes = num_processes
        self.loops = loops
        self.file = file

    @property
    def bytes_per_loop(self) -> int:
        return sum(LOOP_PATTERN)

    @property
    def area_size(self) -> int:
        """Bytes each process's file area spans."""
        return self.loops * self.bytes_per_loop

    def request_sequence(self) -> list[int]:
        """One process's request sizes in issue order (regenerates Fig. 3)."""
        return list(LOOP_PATTERN) * self.loops

    def columnar(self, op: OpType = "write") -> ColumnarTrace:
        """One phase per request slot of each loop: every rank issues
        the same-shaped request at its place in its own area."""
        P, parts = self.num_processes, len(LOOP_PATTERN)
        phase = np.arange(self.loops * parts)
        pattern = np.asarray(LOOP_PATTERN, dtype=np.int64)
        loop, part = np.divmod(phase, parts)
        within = loop * self.bytes_per_loop + (np.cumsum(pattern) - pattern)[part]
        ranks = np.tile(np.arange(P), phase.size)
        offsets = ranks * self.area_size + np.repeat(within, P)
        sizes = np.repeat(pattern[part], P)
        return phase_trace(np.repeat(phase, P), ranks, offsets, sizes, op, self.file)

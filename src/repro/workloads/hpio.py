"""HPIO-like workload generator (Northwestern/Sandia's benchmark).

HPIO is parameterized by *region count*, *region spacing* and *region
size*; each process owns an interleaved sequence of regions and
accesses them in order.  The paper's configuration (§V-B): region
count 4096, spacing 0, region sizes mixed over {16 KB, 32 KB, 64 KB}
to generate heterogeneous patterns, with 16–64 processes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..devices.base import OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import ColumnarTrace
from ..units import KiB
from .base import Workload, phase_trace

__all__ = ["HPIOWorkload"]


class HPIOWorkload(Workload):
    """Structured regions, one interleaved stream per process.

    The file is a sequence of *groups*; group ``g`` holds one region
    per process (process ``p``'s region ``g`` comes ``p``-th in the
    group, regions separated by ``region_spacing``).  Every process
    touches its region in group order, all processes in lock-step
    phases — HPIO's canonical access pattern.  The region size cycles
    through ``region_sizes`` per group, which is the paper's
    modification for heterogeneous request sizes.
    """

    name = "HPIO"

    def __init__(
        self,
        num_processes: int = 16,
        region_count: int = 4096,
        region_sizes: Sequence[int] | int = (16 * KiB, 32 * KiB, 64 * KiB),
        region_spacing: int = 0,
        file: str = "hpio.dat",
    ) -> None:
        if isinstance(region_sizes, int):
            region_sizes = [region_sizes]
        if not region_sizes or any(s <= 0 for s in region_sizes):
            raise ConfigurationError(f"bad region sizes: {region_sizes}")
        if num_processes <= 0 or region_count <= 0:
            raise ConfigurationError("num_processes and region_count must be >= 1")
        if region_spacing < 0:
            raise ConfigurationError("region_spacing must be >= 0")
        if region_count % num_processes:
            raise ConfigurationError(
                f"region_count {region_count} must divide evenly over "
                f"{num_processes} processes"
            )
        self.num_processes = num_processes
        self.region_count = region_count
        self.region_sizes = [int(s) for s in region_sizes]
        self.region_spacing = region_spacing
        self.file = file

    @property
    def groups(self) -> int:
        """Lock-step phases: one region per process per group."""
        return self.region_count // self.num_processes

    def columnar(self, op: OpType = "write") -> ColumnarTrace:
        """Group ``g`` is one phase: every rank touches its region of the
        group, regions back to back ``region_spacing`` apart."""
        P = self.num_processes
        groups = np.arange(self.groups)
        cycle = np.asarray(self.region_sizes, dtype=np.int64)
        sizes = np.repeat(cycle[groups % cycle.size], P)
        strides = sizes + self.region_spacing
        offsets = np.cumsum(strides) - strides
        ranks = np.tile(np.arange(P), self.groups)
        return phase_trace(np.repeat(groups, P), ranks, offsets, sizes, op, self.file)

    def label(self) -> str:
        return f"{self.num_processes}p"

"""IOR-like workload generator (LLNL's parallel-FS micro-benchmark).

Three modes match the paper's IOR experiments:

* **uniform** — every process issues requests of one size to a shared
  file (baseline IOR behaviour, §V-A: 16 processes, 64 KB default);
* **mixed sizes** (Fig. 7) — "the process number is fixed to 32 and
  each process issues random requests at multiple sizes to access a
  16 GB file"; request sizes alternate over the configured set at
  randomized non-overlapping file locations;
* **mixed process numbers** (Fig. 9) — "IOR sends requests at different
  parts of the file with 8 and 32 processes respectively": the file is
  split into one segment per process-count, each segment driven by its
  own process group at a fixed request size.

``total_size`` defaults far below the paper's 16 GB so simulated runs
finish in milliseconds of wall time; every comparison is
volume-normalized (bandwidth), so the shape of the results does not
depend on it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..determinism import SeedDomain, derive_rng
from ..devices.base import OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import ColumnarTrace
from ..tracing.record import Trace
from ..units import KiB, MiB
from .base import Workload, phase_trace

__all__ = ["IORWorkload", "IORMixedProcsWorkload"]


class IORWorkload(Workload):
    """Shared-file IOR with one or several request sizes.

    Parameters
    ----------
    num_processes:
        Ranks issuing I/O (paper default for Fig. 7: 32).
    request_sizes:
        One or more request sizes; several sizes produce the paper's
        heterogeneous "x+y" configurations.
    total_size:
        Total bytes moved per run (scaled down from the paper's 16 GB).
    randomize_offsets:
        Shuffle which file location receives which request size
        (the "random requests at multiple sizes" of §V-B); offsets
        never overlap either way.
    seed:
        RNG seed for the shuffle.
    """

    name = "IOR"

    def __init__(
        self,
        num_processes: int = 32,
        request_sizes: Sequence[int] | int = 64 * KiB,
        total_size: int = 64 * MiB,
        randomize_offsets: bool = True,
        seed: int = 0,
        file: str = "ior.dat",
    ) -> None:
        if isinstance(request_sizes, int):
            request_sizes = [request_sizes]
        if not request_sizes or any(s <= 0 for s in request_sizes):
            raise ConfigurationError(f"bad request sizes: {request_sizes}")
        if num_processes <= 0:
            raise ConfigurationError("num_processes must be >= 1")
        self.num_processes = num_processes
        self.request_sizes = [int(s) for s in request_sizes]
        self.total_size = int(total_size)
        self.randomize_offsets = randomize_offsets
        self.seed = seed
        self.file = file

    def _plan_requests(self) -> list[tuple[int, int]]:
        """Non-overlapping (offset, size) slots alternating over the sizes."""
        slots: list[tuple[int, int]] = []
        offset = 0
        idx = 0
        sizes = self.request_sizes
        while offset + sizes[idx % len(sizes)] <= self.total_size:
            size = sizes[idx % len(sizes)]
            slots.append((offset, size))
            offset += size
            idx += 1
        if not slots:
            raise ConfigurationError(
                "total_size too small for even one request"
            )
        if self.randomize_offsets:
            rng = derive_rng(SeedDomain.IOR, base=self.seed)
            # shuffle which slot is issued when, keeping slots disjoint
            order = rng.permutation(len(slots))
            slots = [slots[i] for i in order]
        return slots

    def columnar(self, op: OpType = "write") -> ColumnarTrace:
        """Slot ``i`` of the plan goes to rank ``i % P`` in phase ``i // P``."""
        slots = np.asarray(self._plan_requests(), dtype=np.int64)
        idx = np.arange(len(slots))
        P = self.num_processes
        return phase_trace(idx // P, idx % P, slots[:, 0], slots[:, 1], op, self.file)

    # benchmarks/e2e/tracer.py rebinds ``trace`` from this class's own
    # namespace, so the inherited one-liner is repeated here
    def trace(self, op: OpType = "write") -> Trace:
        return self.columnar(op).to_trace()

    def label(self) -> str:
        """The paper's "x+y" figure label for this configuration."""
        return "+".join(str(s // KiB) for s in self.request_sizes)


class IORMixedProcsWorkload(Workload):
    """IOR with different process counts at different file parts (Fig. 9)."""

    name = "IOR-procs"

    def __init__(
        self,
        process_groups: Sequence[int] = (8, 32),
        request_size: int = 256 * KiB,
        bytes_per_group: int = 32 * MiB,
        file: str = "ior.dat",
    ) -> None:
        if not process_groups or any(p <= 0 for p in process_groups):
            raise ConfigurationError(f"bad process groups: {process_groups}")
        if request_size <= 0:
            raise ConfigurationError("request_size must be > 0")
        self.process_groups = [int(p) for p in process_groups]
        self.request_size = int(request_size)
        self.bytes_per_group = int(bytes_per_group)
        self.file = file

    def columnar(self, op: OpType = "write") -> ColumnarTrace:
        """Each group's ranks issue its segment's slots in lock-step
        phases, group after group."""
        size = self.request_size
        count = self.bytes_per_group // size
        i = np.arange(count)
        segments = np.arange(len(self.process_groups)) * count * size
        procs = np.asarray(self.process_groups)
        rank_bases = np.cumsum(procs) - procs
        offsets = (segments[:, None] + i * size).reshape(-1)
        ranks = (rank_bases[:, None] + i % procs[:, None]).reshape(-1)
        phases = (i // procs[:, None]).reshape(-1)
        return phase_trace(
            phases, ranks, offsets, np.full(offsets.size, size), op, self.file
        )

    def label(self) -> str:
        """The paper's "a+b" process-count label."""
        return "+".join(str(p) for p in self.process_groups)

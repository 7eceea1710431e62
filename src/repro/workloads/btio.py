"""BTIO-like workload generator (NAS Parallel Benchmarks' BT I/O).

BTIO solves block-tridiagonal systems on a square number of processes
and appends the whole solution array to a shared file every few time
steps; with the *simple* subtype each process writes its own cells as
one contiguous request per step.  The paper's modification (§V-C):
"access a new file with the total size of 1.69GB+6.8GB ... each
process issues file requests at the sizes of those in Class B and C in
an interleaved fashion" — i.e. alternating small (class B share) and
large (class C share) requests, which is the heterogeneity MHA
exploits.

Class volumes: B writes a 102^3 grid solution (~1.69 GB over the run),
C a 162^3 grid (~6.8 GB).  Per-step-per-process request sizes scale as
``grid_bytes / (steps * processes)``; we keep that proportionality and
scale the totals down by ``scale`` for tractable simulation.
"""

from __future__ import annotations

import numpy as np

from ..devices.base import OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import ColumnarTrace
from ..units import GiB, KiB
from .base import Workload, phase_trace

__all__ = ["BTIOWorkload", "CLASS_TOTALS"]

#: total solution bytes each NPB class writes over a full run
CLASS_TOTALS = {"B": int(1.69 * GiB), "C": int(6.8 * GiB)}
#: time steps between I/O in the reference run
DEFAULT_STEPS = 40


def _is_square(n: int) -> bool:
    r = int(round(n ** 0.5))
    return r * r == n


class BTIOWorkload(Workload):
    """Interleaved class-B/class-C sized collective writes."""

    name = "BTIO"

    def __init__(
        self,
        num_processes: int = 16,
        classes: tuple[str, ...] = ("B", "C"),
        steps: int = DEFAULT_STEPS,
        scale: float = 1 / 64,
        file: str = "btio.dat",
    ) -> None:
        if not _is_square(num_processes):
            raise ConfigurationError(
                f"BTIO requires a square number of processes, got {num_processes}"
            )
        for cls in classes:
            if cls not in CLASS_TOTALS:
                raise ConfigurationError(f"unknown NPB class {cls!r}")
        if steps <= 0 or scale <= 0:
            raise ConfigurationError("steps and scale must be positive")
        self.num_processes = num_processes
        self.classes = tuple(classes)
        self.steps = steps
        self.scale = scale
        self.file = file

    def request_size(self, cls: str) -> int:
        """Per-process request size for one I/O step of class ``cls``.

        Rounded to 1 KiB granularity, minimum 1 KiB.
        """
        raw = CLASS_TOTALS[cls] * self.scale / (self.steps * self.num_processes)
        return max(KiB, int(round(raw / KiB)) * KiB)

    def columnar(self, op: OpType = "write") -> ColumnarTrace:
        """Step ``s`` is one phase: every rank appends its ``s``-th
        request, the class cycling over the steps."""
        P = self.num_processes
        step_sizes = [
            self.request_size(self.classes[s % len(self.classes)])
            for s in range(self.steps)
        ]
        sizes = np.repeat(np.asarray(step_sizes, dtype=np.int64), P)
        phases = np.repeat(np.arange(self.steps), P)
        ranks = np.tile(np.arange(P), self.steps)
        offsets = np.cumsum(sizes) - sizes
        return phase_trace(phases, ranks, offsets, sizes, op, self.file)

    def label(self) -> str:
        return f"{self.num_processes}p"

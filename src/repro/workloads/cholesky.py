"""Sparse Cholesky factorization trace model (§V-D).

The application "stores the matrix as panels rather than blocks and
conducts synchronous I/O accesses ... The read request size ranges
from 2 bytes to 4206976 bytes, and write size ranges from 131556 bytes
to 4206976 bytes", with "a small number of large requests" — the
request-size distribution is highly skewed, which is why the paper's
Fig. 13b bandwidths are the lowest of the trace studies.

We model panel accesses with a seeded log-uniform size distribution
between the paper's exact bounds (log-uniform gives the many-small /
few-large skew sparse panels exhibit), clipped to the bounds, 8 clients
against per-process files, reads and writes interleaved per panel.
"""

from __future__ import annotations

import numpy as np

from ..determinism import SeedDomain, derive_rng
from ..devices.base import OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import ColumnarTrace
from .base import Workload, slab_trace

__all__ = ["CholeskyWorkload", "READ_BOUNDS", "WRITE_BOUNDS"]

#: (min, max) request sizes from the paper
READ_BOUNDS = (2, 4206976)
WRITE_BOUNDS = (131556, 4206976)


class CholeskyWorkload(Workload):
    """Skewed panel-sized reads/writes over per-process files."""

    name = "Cholesky"

    def __init__(
        self,
        num_processes: int = 8,
        panels: int = 24,
        seed: int = 7,
        file_prefix: str = "cholesky",
    ) -> None:
        if num_processes <= 0 or panels <= 0:
            raise ConfigurationError("num_processes and panels must be >= 1")
        self.num_processes = num_processes
        self.panels = panels
        self.seed = seed
        self.file_prefix = file_prefix

    def file_for(self, rank: int) -> str:
        return f"{self.file_prefix}.{rank}.dat"

    def _sizes(self, bounds: tuple[int, int], count: int, rng) -> np.ndarray:
        lo, hi = bounds
        sizes = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
        return np.clip(np.round(sizes).astype(np.int64), lo, hi)

    def columnar(self, op: OpType | None = None) -> ColumnarTrace:
        """The full read+write trace (``op`` filters to one type)."""
        rng = derive_rng(SeedDomain.CHOLESKY, base=self.seed)
        # one size schedule shared by all ranks per panel keeps phases
        # aligned (the solver's panels are global); bounds are exact
        read_sizes = self._sizes(READ_BOUNDS, self.panels, rng)
        write_sizes = self._sizes(WRITE_BOUNDS, self.panels, rng)
        # guarantee the paper's extremes appear in the trace
        if self.panels >= 2:
            read_sizes[0], read_sizes[-1] = READ_BOUNDS
            write_sizes[0], write_sizes[-1] = WRITE_BOUNDS
        files = [self.file_for(rank) for rank in range(self.num_processes)]
        return slab_trace(op, read_sizes, write_sizes, files)

"""Out-of-core LU decomposition trace model (§V-D).

The application "computes the dense LU decomposition of an out-of-core
matrix ... driven by an 8192×8192 double precision matrix with a slab
size of 64 columns.  The dataset is stored in 8 files, one per
process.  The write request size is fixed to 524544 bytes.  However,
the read request size ranges from 6272 bytes to 524544 bytes."

The model keeps those exact sizes: out-of-core LU factors the matrix
slab by slab; for slab ``k`` each process re-reads the already-factored
panel — whose size *grows* with ``k`` (that is where the 6272 →
524544 B read range comes from) — and writes back its fixed-size slab
share.  Reads and writes interleave per slab, per process, each process
against its own file.
"""

from __future__ import annotations

from ..devices.base import OpType
from ..exceptions import ConfigurationError
from ..tracing.columnar import ColumnarTrace
from .base import Workload, slab_trace

__all__ = ["LUWorkload", "WRITE_SIZE", "MIN_READ", "MAX_READ"]

#: fixed write request size from the paper
WRITE_SIZE = 524544
#: smallest / largest read request sizes from the paper
MIN_READ = 6272
MAX_READ = 524544


class LUWorkload(Workload):
    """Growing reads + fixed-size writes over per-process files."""

    name = "LU"

    def __init__(
        self,
        num_processes: int = 8,
        slabs: int = 32,
        file_prefix: str = "lu",
    ) -> None:
        if num_processes <= 0 or slabs <= 0:
            raise ConfigurationError("num_processes and slabs must be >= 1")
        self.num_processes = num_processes
        self.slabs = slabs
        self.file_prefix = file_prefix

    def file_for(self, rank: int) -> str:
        return f"{self.file_prefix}.{rank}.dat"

    def read_size(self, slab: int) -> int:
        """Panel read size for slab ``slab``: linear from MIN to MAX."""
        if self.slabs == 1:
            return MAX_READ
        frac = slab / (self.slabs - 1)
        size = MIN_READ + frac * (MAX_READ - MIN_READ)
        return int(round(size))

    def columnar(self, op: OpType | None = None) -> ColumnarTrace:
        """The full read+write trace (``op`` filters to one type)."""
        return slab_trace(
            op,
            [self.read_size(slab) for slab in range(self.slabs)],
            [WRITE_SIZE] * self.slabs,
            [self.file_for(rank) for rank in range(self.num_processes)],
        )

"""Workload-generation helpers shared by every benchmark/application model.

A workload emits a :class:`~repro.tracing.columnar.ColumnarTrace`.
Generators structure time as **phases**: within a phase every
participating rank issues one request "simultaneously" (timestamps a
hair apart so ordering stays deterministic), and consecutive phases are
separated by a gap far larger than the phase-detection threshold —
which is exactly how bulk-synchronous HPC applications behave and what
makes the concurrency feature recoverable from the trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..devices.base import READ, WRITE, OpType
from ..tracing.columnar import OP_NAMES, ColumnarTrace
from ..tracing.record import Trace

__all__ = ["PHASE_GAP", "Workload", "phase_trace", "slab_trace"]

#: inter-phase time gap (trace time units); >> the analysis gap of 0.5
PHASE_GAP = 10.0
#: intra-phase stagger between ranks, small enough to stay in one phase
_RANK_STAGGER = 1e-4


def phase_trace(
    phases: np.ndarray,
    ranks: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    ops: str | np.ndarray,
    files: str | tuple[np.ndarray, Sequence[str]],
) -> ColumnarTrace:
    """The trace whose row ``i`` is rank ``ranks[i]``'s request in phase
    ``phases[i]``.

    The row is stamped ``phase * PHASE_GAP + rank * _RANK_STAGGER`` and
    its pid is its rank; ``ops`` and ``files`` are as in
    :meth:`~repro.tracing.columnar.ColumnarTrace.from_columns`.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    return ColumnarTrace.from_columns(
        offsets=offsets,
        timestamps=np.asarray(phases, dtype=np.int64) * PHASE_GAP
        + ranks * _RANK_STAGGER,
        ranks=ranks,
        sizes=sizes,
        ops=ops,
        files=files,
        pids=ranks,
    )


def slab_trace(
    op: OpType | None,
    read_sizes: Sequence[int] | np.ndarray,
    write_sizes: Sequence[int] | np.ndarray,
    files: Sequence[str],
) -> ColumnarTrace:
    """Out-of-core slab I/O: rank ``r`` works on its own file ``files[r]``.

    Slab ``k`` is one read phase (every rank reads ``read_sizes[k]``
    bytes at its read cursor) then one write phase (``write_sizes[k]``
    at its write cursor); each cursor advances by what it moved.
    ``op`` keeps only that op's phases (``None`` keeps both).
    """
    blocks = [
        (OP_NAMES.index(name), np.asarray(sizes, dtype=np.int64))
        for name, sizes in ((READ, read_sizes), (WRITE, write_sizes))
        if op in (None, name)
    ]
    slabs, procs = len(read_sizes), len(files)

    def per_phase(values: list[np.ndarray]) -> np.ndarray:
        # rows run slab by slab, block by block, rank by rank
        table = np.array(values, dtype=np.int64).reshape(len(values), slabs)
        return np.repeat(table.T.reshape(-1), procs)

    n_phases = slabs * len(blocks)
    phases = np.repeat(np.arange(n_phases), procs)
    ranks = np.tile(np.arange(procs), n_phases)
    sizes = per_phase([s for _, s in blocks])
    offsets = per_phase([np.cumsum(s) - s for _, s in blocks])
    ops = per_phase([np.full(slabs, code) for code, _ in blocks])
    return phase_trace(phases, ranks, offsets, sizes, ops, (ranks, files))


class Workload:
    """Base class for workload generators.

    Subclasses implement :meth:`columnar`, the request stream of one
    run, with :func:`phase_trace`; its optional argument is the op
    (``"write"`` by default for most generators, ``None`` = the full
    mixed trace for checkpoint/LU-style ones).  ``name`` identifies the
    workload in reports.
    """

    name: str = "workload"

    def columnar(self, *args: OpType | None) -> ColumnarTrace:
        raise NotImplementedError  # pragma: no cover - abstract

    def trace(self, *args: OpType | None) -> Trace:
        """:meth:`columnar` as records (same rows, same order)."""
        return self.columnar(*args).to_trace()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

"""Columnar traces: the structured-array spine of the offline pipeline.

The record-walking path (:class:`~repro.tracing.record.Trace` over
:class:`~repro.tracing.record.TraceRecord` dataclasses) is the
readable reference, but at millions of requests the per-object
overhead dominates the whole §III-C workflow — ingest, phase
splitting, burst clustering, Algorithm 1 feature extraction.  This
module carries the same trace as one NumPy structured array
(:data:`TRACE_DTYPE`) with interned file-name codes, plus vectorized
twins of the hot analysis functions:

* :func:`split_phases_columnar`  — :func:`~repro.tracing.analysis.split_phases`
* :func:`burst_ids_columnar`     — :func:`~repro.tracing.analysis.burst_ids_of`
* :func:`concurrency_columnar`   — :func:`~repro.tracing.analysis.concurrency_of`

Every twin is registered in :mod:`repro.contracts` with
:func:`~repro.contracts.twin_of`, so the RL1xx static rules and the
generated hypothesis differential suites police bit-identity against
the record path.  The subtle part of that identity is *duplicate
records*: the reference functions return ``dict[TraceRecord, int]``
mappings, so identical records collapse onto one entry and the **last**
write wins.  For bursts that needs no work, because identical records
always share a burst (see :func:`concurrency_and_burst_ids`); the
pipeline's per-group dict updates can split them, and
:func:`identity_classes` with :func:`collapse_by_last_group` reproduce
that collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..contracts import twin_of
from ..devices.base import READ, WRITE
from ..exceptions import TraceError
from ..numerics import unique_values
from .record import Trace, TraceRecord

__all__ = [
    "TRACE_DTYPE",
    "OP_NAMES",
    "ColumnarTrace",
    "PhaseSlices",
    "split_phases_columnar",
    "burst_ids_columnar",
    "concurrency_columnar",
    "concurrency_and_burst_ids",
    "identity_classes",
    "as_columnar_trace",
]

#: op-code interning: index into this tuple is the on-array ``op`` code
OP_NAMES: tuple[str, str] = (READ, WRITE)
_OP_CODES: dict[str, int] = {READ: 0, WRITE: 1}

#: one trace record as a structured-array row — §III-C's collector
#: fields (pid, rank, fd, type, offset, size, timestamp) plus the
#: interned file-name code.  Explicitly little-endian so the
#: memory-mapped on-disk format (:mod:`repro.tracing.tracefile`) is
#: byte-stable across hosts.
TRACE_DTYPE = np.dtype(
    [
        ("offset", "<i8"),
        ("timestamp", "<f8"),
        ("rank", "<i4"),
        ("pid", "<i4"),
        ("fd", "<i4"),
        ("file", "<i4"),
        ("op", "u1"),
        ("size", "<i8"),
    ]
)

#: the fields of a record's dataclass ordering (``TraceRecord`` is
#: ``order=True`` over this exact field sequence)
_ORDER_FIELDS = ("offset", "timestamp", "rank", "pid", "fd", "file", "op", "size")


class ColumnarTrace:
    """An immutable trace held as one structured array.

    ``data`` is a 1-D :data:`TRACE_DTYPE` array (possibly memory-mapped
    from disk); ``interned_files`` maps each ``file`` code to its name.
    The class mirrors :class:`~repro.tracing.record.Trace`'s query
    surface (``files``/``ranks``/``total_bytes``/``extent``/
    ``max_size``/``for_file``/``sorted_by_offset``/``sorted_by_time``)
    with vectorized implementations, and adds the batch accessors the
    flat replay kernel consumes.  Treat both the array and the instance
    as immutable.
    """

    __slots__ = ("_data", "_files")

    def __init__(
        self,
        data: np.ndarray,
        files: Sequence[str] = (),
        *,
        validate: bool = True,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype != TRACE_DTYPE:
            raise TraceError(
                f"columnar trace dtype must be TRACE_DTYPE, got {arr.dtype}"
            )
        if arr.ndim != 1:
            raise TraceError(f"columnar trace must be 1-D, got shape {arr.shape}")
        self._data = arr
        self._files = tuple(files)
        if validate:
            self._validate()

    def _validate(self) -> None:
        if len(set(self._files)) != len(self._files):
            raise TraceError("interned file names must be distinct")
        d = self._data
        if d.size == 0:
            return
        code = d["file"]
        if int(code.min()) < 0 or int(code.max()) >= len(self._files):
            raise TraceError("file code out of range of the interned name table")
        if int(d["offset"].min()) < 0:
            raise TraceError("offset must be >= 0")
        if int(d["size"].min()) <= 0:
            raise TraceError("size must be > 0")
        if float(d["timestamp"].min()) < 0:
            raise TraceError("timestamp must be >= 0")
        if int(d["op"].max()) > 1:
            raise TraceError("op code must be 0 (read) or 1 (write)")

    # ------------------------------------------------------------ construct

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "ColumnarTrace":
        """Batch-ingest already-validated :class:`TraceRecord` objects."""
        recs = records if isinstance(records, (list, tuple, Trace)) else list(records)
        data = np.empty(len(recs), dtype=TRACE_DTYPE)
        codes: dict[str, int] = {}
        for i, r in enumerate(recs):
            code = codes.setdefault(r.file, len(codes))
            data[i] = (
                r.offset,
                r.timestamp,
                r.rank,
                r.pid,
                r.fd,
                code,
                _OP_CODES[r.op],
                r.size,
            )
        return cls(data, tuple(codes), validate=False)

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Columnar copy of a record trace (same record order)."""
        return cls.from_records(trace)

    @classmethod
    def from_columns(
        cls,
        *,
        offsets: Sequence[int] | np.ndarray,
        timestamps: Sequence[float] | np.ndarray,
        ranks: Sequence[int] | np.ndarray,
        sizes: Sequence[int] | np.ndarray,
        ops: str | Sequence[int] | np.ndarray = READ,
        files: str | tuple[Sequence[int] | np.ndarray, Sequence[str]] = "file",
        pids: Sequence[int] | np.ndarray | None = None,
        fds: Sequence[int] | np.ndarray | None = None,
    ) -> "ColumnarTrace":
        """The ingest fast path: build a trace from parallel columns.

        ``ops`` is one op name for the whole trace or a per-record code
        array (0 = read, 1 = write); ``files`` is one file name or a
        ``(codes, names)`` pair interning per-record file codes.
        ``pids``/``fds`` default to 0, mirroring ``TraceRecord``.
        """
        off = np.asarray(offsets, dtype=np.int64).reshape(-1)
        n = off.size
        data = np.empty(n, dtype=TRACE_DTYPE)
        data["offset"] = off
        data["timestamp"] = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        data["rank"] = np.asarray(ranks, dtype=np.int32).reshape(-1)
        data["size"] = np.asarray(sizes, dtype=np.int64).reshape(-1)
        if isinstance(ops, str):
            if ops not in _OP_CODES:
                raise TraceError(f"op must be 'read' or 'write', got {ops!r}")
            data["op"] = _OP_CODES[ops]
        else:
            data["op"] = np.asarray(ops, dtype=np.uint8).reshape(-1)
        if isinstance(files, str):
            data["file"] = 0
            names: tuple[str, ...] = (files,)
        else:
            codes, name_seq = files
            data["file"] = np.asarray(codes, dtype=np.int32).reshape(-1)
            names = tuple(name_seq)
        data["pid"] = (
            np.asarray(pids, dtype=np.int32).reshape(-1) if pids is not None else 0
        )
        data["fd"] = (
            np.asarray(fds, dtype=np.int32).reshape(-1) if fds is not None else 0
        )
        return cls(data, names)

    # -------------------------------------------------------------- queries

    @property
    def data(self) -> np.ndarray:
        """The backing structured array (do not mutate)."""
        return self._data

    @property
    def interned_files(self) -> tuple[str, ...]:
        """Code → file-name table (insertion order, may hold unused names)."""
        return self._files

    def __len__(self) -> int:
        return int(self._data.size)

    def record(self, i: int) -> TraceRecord:
        """Materialize record ``i`` (slow path — per-record objects)."""
        row = self._data[i]
        return TraceRecord(
            offset=int(row["offset"]),
            timestamp=float(row["timestamp"]),
            rank=int(row["rank"]),
            pid=int(row["pid"]),
            fd=int(row["fd"]),
            file=self._files[int(row["file"])],
            op=OP_NAMES[int(row["op"])],
            size=int(row["size"]),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        return (self.record(i) for i in range(len(self)))

    def to_trace(self) -> Trace:
        """Materialize the full record trace (same order)."""
        d = self._data
        offs = d["offset"].tolist()
        times = d["timestamp"].tolist()
        ranks = d["rank"].tolist()
        pids = d["pid"].tolist()
        fds = d["fd"].tolist()
        codes = d["file"].tolist()
        op_codes = d["op"].tolist()
        sizes = d["size"].tolist()
        names = self._files
        return Trace(
            TraceRecord(
                offset=offs[i],
                timestamp=times[i],
                rank=ranks[i],
                pid=pids[i],
                fd=fds[i],
                file=names[codes[i]],
                op=OP_NAMES[op_codes[i]],
                size=sizes[i],
            )
            for i in range(len(offs))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        if len(self) != len(other):
            return False
        a, b = self._data, other._data
        for field in _ORDER_FIELDS:
            if field == "file":
                continue
            if not np.array_equal(a[field], b[field]):
                return False
        # interning may differ; compare per-record names semantically
        mine = [self._files[c] for c in a["file"].tolist()]
        theirs = [other._files[c] for c in b["file"].tolist()]
        return mine == theirs

    __hash__ = None  # type: ignore[assignment]

    def files(self) -> tuple[str, ...]:
        """Distinct file names, in first-appearance order."""
        if len(self) == 0:
            return ()
        codes = self._data["file"]
        _, first = np.unique(codes, return_index=True)
        first.sort()
        return tuple(self._files[int(codes[i])] for i in first.tolist())

    def ranks(self) -> tuple[int, ...]:
        """Distinct ranks, ascending."""
        return tuple(unique_values(self._data["rank"]).tolist())

    def total_bytes(self) -> int:
        return int(self._data["size"].sum())

    def read_bytes(self) -> int:
        d = self._data
        return int(d["size"][d["op"] == _OP_CODES[READ]].sum())

    def write_bytes(self) -> int:
        d = self._data
        return int(d["size"][d["op"] == _OP_CODES[WRITE]].sum())

    def extent(self) -> tuple[int, int]:
        if len(self) == 0:
            return (0, 0)
        d = self._data
        return (int(d["offset"].min()), int((d["offset"] + d["size"]).max()))

    def max_size(self) -> int:
        if len(self) == 0:
            return 0
        return int(self._data["size"].max())

    # ------------------------------------------------------------- reorders

    def take(self, indices: np.ndarray) -> "ColumnarTrace":
        """Row subset/permutation (copies the selected rows)."""
        return ColumnarTrace(self._data[indices], self._files, validate=False)

    def time_order(self) -> np.ndarray:
        """Stable argsort by ``(timestamp, rank, offset, size)`` — the
        :meth:`Trace.sorted_by_time` ordering, as a permutation."""
        d = self._data
        return _refined_order(d["timestamp"], d["rank"], d["offset"], d["size"])

    def sorted_by_time(self) -> "ColumnarTrace":
        """Records in issue order (mirrors :meth:`Trace.sorted_by_time`)."""
        return self.take(self.time_order())

    def offset_order(self) -> np.ndarray:
        """Argsort by the full record ordering (``TraceRecord``'s
        ``order=True`` field tuple), file names compared as strings."""
        d = self._data
        if len(self._files) > 1:
            name_rank = np.empty(len(self._files), dtype=np.int64)
            for pos, idx in enumerate(
                sorted(range(len(self._files)), key=self._files.__getitem__)
            ):
                name_rank[idx] = pos
            file_key = name_rank[d["file"]]
        else:
            file_key = d["file"]
        return _refined_order(
            d["offset"],
            d["timestamp"],
            d["rank"],
            d["pid"],
            d["fd"],
            file_key,
            d["op"],
            d["size"],
        )

    def sorted_by_offset(self) -> "ColumnarTrace":
        """Records in ascending offset order (§III-C ordering)."""
        return self.take(self.offset_order())

    def for_file(self, file: str) -> "ColumnarTrace":
        """Only the records touching ``file``."""
        try:
            code = self._files.index(file)
        except ValueError:
            return ColumnarTrace(
                np.empty(0, dtype=TRACE_DTYPE), self._files, validate=False
            )
        return self.take(np.flatnonzero(self._data["file"] == code))

    def file_partition(self) -> dict[str, np.ndarray]:
        """One-pass file → row-indices partition.

        Keys appear in first-appearance order (matching :meth:`files`);
        each value is the ascending index array of that file's records.
        Built with one stable argsort — no per-file rescan.
        """
        if len(self) == 0:
            return {}
        codes = self._data["file"]
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        uniq, starts = np.unique(sorted_codes, return_index=True)
        bounds = np.append(starts, codes.size)
        by_code = {
            int(uniq[j]): order[bounds[j] : bounds[j + 1]]
            for j in range(uniq.size)
        }
        first_seen = {code: int(idx[0]) for code, idx in by_code.items()}
        return {
            self._files[code]: by_code[code]
            for code in sorted(by_code, key=first_seen.__getitem__)
        }

    def __repr__(self) -> str:
        return f"ColumnarTrace({len(self)} records, {len(self._files)} files)"


def as_columnar_trace(trace: "Trace | ColumnarTrace") -> ColumnarTrace:
    """Coerce either trace representation to columnar (no-op if already)."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_trace(trace)


def _refined_order(primary: np.ndarray, *tiebreaks: np.ndarray) -> np.ndarray:
    """Stable argsort by ``(primary, *tiebreaks)``.

    Bit-identical to ``np.lexsort((*reversed(tiebreaks), primary))``
    but pays for one stable argsort on ``primary`` plus a full lexsort
    restricted to the rows whose primary key is tied — a fraction of a
    k-key lexsort (k stable sorts) when ``primary`` is nearly unique,
    which timestamps and offsets are on real traces.
    """
    order = np.argsort(primary, kind="stable")
    if not tiebreaks or order.size < 2:
        return order
    ps = primary[order]
    tied = ps[1:] == ps[:-1]
    if not tied.any():
        return order
    # a sorted position is inside a tied run iff it ties with either
    # neighbour; runs are contiguous, so re-sorting just those rows by
    # the full key tuple (primary included) slots each run back into
    # place without disturbing the untied rows
    in_run = np.empty(order.size, dtype=bool)
    in_run[0] = tied[0]
    in_run[-1] = tied[-1]
    in_run[1:-1] = tied[:-1] | tied[1:]
    idx = order[in_run]
    keys = (primary,) + tiebreaks
    sub = np.lexsort(tuple(k[idx] for k in reversed(keys)))
    order[in_run] = idx[sub]
    return order


# ------------------------------------------------------------------ analysis


@dataclass(frozen=True)
class PhaseSlices:
    """Vectorized phase segmentation.

    ``order`` is the time-sorted index permutation and phase ``p``
    covers the original-trace rows ``order[starts[p]:starts[p+1]]``;
    ``times`` holds the time-sorted timestamps, so phase ``p`` spans
    ``[times[starts[p]], times[starts[p+1] - 1]]`` — exactly the
    ``start_time``/``end_time`` of the reference
    :class:`~repro.tracing.analysis.Phase`.
    """

    order: np.ndarray
    starts: np.ndarray
    times: np.ndarray

    @property
    def n_phases(self) -> int:
        return int(self.starts.size) - 1

    def counts(self) -> np.ndarray:
        """Per-phase record count (the phase concurrency)."""
        return np.diff(self.starts)

    def indices(self, p: int) -> np.ndarray:
        """Original-trace row indices of phase ``p`` (issue order)."""
        return self.order[self.starts[p] : self.starts[p + 1]]

    def start_time(self, p: int) -> float:
        return float(self.times[self.starts[p]])

    def end_time(self, p: int) -> float:
        return float(self.times[self.starts[p + 1] - 1])


@twin_of(
    "repro.tracing.analysis:split_phases",
    kind="reduction",
    harness="trace_phases",
)
def split_phases_columnar(trace: ColumnarTrace, gap: float = 0.5) -> PhaseSlices:
    """Vectorized :func:`~repro.tracing.analysis.split_phases`.

    Returns the same segmentation as the reference — phase ``p``'s
    records are ``trace.record(i) for i in slices.indices(p)`` — as
    index slices instead of materialized :class:`Phase` tuples.
    """
    if gap <= 0:
        raise ValueError(f"gap must be > 0, got {gap}")
    order = trace.time_order()
    times = trace.data["timestamp"][order]
    if times.size == 0:
        return PhaseSlices(
            order=order.astype(np.intp),
            starts=np.zeros(1, dtype=np.intp),
            times=times,
        )
    breaks = np.flatnonzero(times[1:] - times[:-1] > gap) + 1
    starts = np.concatenate(([0], breaks, [times.size])).astype(np.intp)
    return PhaseSlices(order=order.astype(np.intp), starts=starts, times=times)


def _phase_thresholds(
    off_s: np.ndarray,
    end_s: np.ndarray,
    size_s: np.ndarray,
    pstarts: np.ndarray,
) -> np.ndarray:
    """Per-phase adaptive split distance, vectorized across phases.

    Mirrors :func:`repro.tracing.analysis._phase_spatial_threshold`:
    ``16 * median_gap + 4 * max_request_size`` with the upper median
    ``gaps_sorted[len(gaps) // 2]``, and 0 for single-record phases.
    """
    n = off_s.size
    n_ph = pstarts.size - 1
    counts = np.diff(pstarts)
    is_start = np.zeros(n, dtype=bool)
    is_start[pstarts[:-1]] = True
    prev_end = np.empty_like(end_s)
    prev_end[0] = 0
    prev_end[1:] = end_s[:-1]
    gaps = np.maximum(off_s - prev_end, 0)
    phase_id = np.cumsum(is_start) - 1
    inner = ~is_start
    gvals = gaps[inner]
    gphase = phase_id[inner]
    gmax = int(gvals.max()) if gvals.size else 0
    if gvals.size and (int(gphase[-1]) + 1) * (gmax + 1) < 2**62:
        # (phase, gap) packs into one int64 key: a single stable sort
        # instead of a two-key lexsort; equal keys need no tie-break
        # (only per-phase order statistics are read off the result)
        order_g = np.argsort(gphase * np.int64(gmax + 1) + gvals, kind="stable")
    else:
        order_g = np.lexsort((gvals, gphase))
    sorted_gaps = gvals[order_g]
    gcounts = counts - 1
    gstarts = np.concatenate(([0], np.cumsum(gcounts[:-1])))
    median = np.zeros(n_ph, dtype=np.int64)
    has = gcounts > 0
    median[has] = sorted_gaps[(gstarts + gcounts // 2)[has]]
    max_size = np.maximum.reduceat(size_s, pstarts[:-1])
    thresholds = 16 * median + 4 * max_size
    thresholds[~has] = 0
    return thresholds


def _burst_partition(
    trace: ColumnarTrace, gap: float, spatial: bool | int
) -> tuple[np.ndarray, np.ndarray]:
    """The burst iteration order + burst boundaries.

    ``(it_order, bstarts)``: walking ``it_order`` burst by burst (burst
    ``b`` is ``it_order[bstarts[b]:bstarts[b+1]]``) visits exactly the
    records of :func:`~repro.tracing.analysis.burst_clusters`'s output,
    cluster by cluster, member by member.
    """
    if spatial < 0:
        raise ValueError(f"spatial must be >= 0, got {spatial}")
    slices = split_phases_columnar(trace, gap=gap)
    order, pstarts = slices.order, slices.starts
    n = order.size
    if n == 0:
        return order, np.zeros(1, dtype=np.intp)
    if spatial is False:
        return order, pstarts
    d = trace.data
    off_t = d["offset"][order]
    rank_t = d["rank"][order]
    size_t = d["size"][order]
    is_start = np.zeros(n, dtype=bool)
    is_start[pstarts[:-1]] = True
    phase_id = np.cumsum(is_start) - 1
    # within-phase offset ordering: stable sort keeps the time order
    # for equal (offset, rank), matching the reference's sorted()
    off_max = int(off_t.max())
    if (int(phase_id[-1]) + 1) * (off_max + 1) < 2**62:
        # (phase, offset) packs into one int64 key
        composite = phase_id * np.int64(off_max + 1) + off_t
        perm = _refined_order(composite, rank_t)
    else:
        perm = np.lexsort((rank_t, off_t, phase_id))
    off_s = off_t[perm]
    size_s = size_t[perm]
    end_s = off_s + size_s
    it_order = order[perm]
    if spatial is True:
        thresholds = _phase_thresholds(off_s, end_s, size_s, pstarts)
        thr = np.repeat(thresholds, np.diff(pstarts))
    else:
        thr = np.full(n, int(spatial), dtype=np.int64)
    prev_end = np.empty_like(end_s)
    prev_end[0] = 0
    prev_end[1:] = end_s[:-1]
    new_cluster = is_start | (off_s - prev_end > thr)
    bstarts = np.append(np.flatnonzero(new_cluster), n).astype(np.intp)
    return it_order, bstarts


def identity_classes(trace: ColumnarTrace) -> tuple[np.ndarray, int]:
    """Duplicate-record equivalence classes.

    Returns ``(inverse, n_classes)`` where ``inverse[i]`` is the dense
    class id of record ``i`` and records compare equal exactly when
    every ``TraceRecord`` field matches (the dict-key semantics of the
    reference analysis functions).
    """
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    d = trace.data
    keys = tuple(d[f] for f in _ORDER_FIELDS)
    # any deterministic total order that puts equal rows next to each
    # other works here (class ids only need to be consistent, not
    # ranked), so lead with the near-unique timestamp column
    order = _refined_order(
        d["timestamp"], *(d[f] for f in _ORDER_FIELDS if f != "timestamp")
    )
    nxt, prv = order[1:], order[:-1]
    same = np.ones(n - 1, dtype=bool)
    for k in keys:
        same &= k[nxt] == k[prv]
    new_class = np.empty(n, dtype=bool)
    new_class[0] = True
    new_class[1:] = ~same
    class_of_sorted = np.cumsum(new_class) - 1
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = class_of_sorted
    return inverse, int(class_of_sorted[-1]) + 1


def concurrency_and_burst_ids(
    trace: ColumnarTrace, gap: float = 0.5, spatial: bool | int = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record burst size and burst id, index-aligned with the trace.

    The reference functions key their result dicts by record value, so
    a duplicate record takes the value of its *last* occurrence.  That
    needs no collapse here: equal records share a timestamp, hence a
    phase, and an offset, and within a phase a record is never split
    from a predecessor at its own offset (the gap is at most 0, and the
    threshold at least 0).  So every copy is already in the same burst.
    """
    n = len(trace)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    it_order, bstarts = _burst_partition(trace, gap, spatial)
    counts = np.diff(bstarts).astype(np.int64)
    conc = np.empty(n, dtype=np.int64)
    bursts = np.empty(n, dtype=np.int64)
    conc[it_order] = np.repeat(counts, counts)
    bursts[it_order] = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return conc, bursts


@twin_of(
    "repro.tracing.analysis:concurrency_of",
    kind="reduction",
    harness="trace_concurrency",
)
def concurrency_columnar(
    trace: ColumnarTrace, gap: float = 0.5, spatial: bool | int = False
) -> np.ndarray:
    """Vectorized :func:`~repro.tracing.analysis.concurrency_of`.

    ``result[i]`` equals the reference dict's value for record ``i``
    (duplicates collapse onto their last burst, per dict-update order).
    """
    conc, _ = concurrency_and_burst_ids(trace, gap=gap, spatial=spatial)
    return conc


@twin_of(
    "repro.tracing.analysis:burst_ids_of",
    kind="reduction",
    harness="trace_bursts",
)
def burst_ids_columnar(
    trace: ColumnarTrace, gap: float = 0.5, spatial: bool | int = False
) -> np.ndarray:
    """Vectorized :func:`~repro.tracing.analysis.burst_ids_of` (same
    dict-update collapse semantics as :func:`concurrency_columnar`)."""
    _, bursts = concurrency_and_burst_ids(trace, gap=gap, spatial=spatial)
    return bursts


def collapse_by_last_group(
    values: np.ndarray,
    labels: np.ndarray,
    inverse: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    """Cross-group dict-update collapse for per-record values.

    The pipeline's per-group ``dict.update`` loop lets a duplicate
    record in a *later* group overwrite the value an earlier group
    assigned (reachable only in the ``n <= k`` branch of Algorithm 1,
    where every request seeds its own group).  Given index-aligned
    ``values``, group ``labels`` and the :func:`identity_classes`
    mapping, every record takes its class's value from the
    highest-labelled group containing the class.
    """
    order = np.lexsort((labels, inverse))
    inv_sorted = inverse[order]
    last = np.flatnonzero(
        np.concatenate((inv_sorted[1:] != inv_sorted[:-1], [True]))
    )
    winner = order[last]  # one index per class, classes in id order
    return values[winner[inverse]]

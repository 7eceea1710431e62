"""Trace persistence — IOSIG writes "several trace files"; so do we.

Two formats live here:

* **Text** (:func:`save_trace`/:func:`load_trace`): plain CSV with a
  header line, one record per row, chosen for longevity and
  diff-ability over pickles.  A trace can be saved as a single file or
  split per rank like IOSIG does.
* **Binary** (:func:`save_trace_columnar`/:func:`load_trace_mmap`): the
  columnar spine's on-disk twin — a little-endian header, the interned
  file-name table, then the raw :data:`~repro.tracing.columnar.TRACE_DTYPE`
  rows 64-byte aligned so :func:`numpy.memmap` can map them read-only.
  Million-request traces stream from the page cache instead of
  materializing ``TraceRecord`` objects.

A damaged file of either format loads as a valid trace or raises
:class:`~repro.exceptions.TraceError`, never another exception: a text
file cut inside a row, undecodable bytes, or a binary header whose
counts and lengths disagree with the file are all rejected.  Neither
format carries a checksum, so some damage still loads as a valid but
different trace: a text file cut exactly at a line end, or a flipped
bit inside a row's values or a file name.
"""

from __future__ import annotations

import csv
import io
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from ..contracts import twin_of
from ..exceptions import TraceError
from .columnar import TRACE_DTYPE, ColumnarTrace, as_columnar_trace
from .record import Trace, TraceRecord

__all__ = [
    "save_trace",
    "load_trace",
    "save_trace_per_rank",
    "load_trace_dir",
    "save_trace_columnar",
    "load_trace_mmap",
]

_FIELDS = ["pid", "rank", "fd", "file", "op", "offset", "size", "timestamp"]


def _write_rows(fh: io.TextIOBase, records: Iterable[TraceRecord]) -> None:
    writer = csv.writer(fh)
    writer.writerow(_FIELDS)
    for r in records:
        writer.writerow(
            [r.pid, r.rank, r.fd, r.file, r.op, r.offset, r.size, repr(r.timestamp)]
        )


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace to one CSV file."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        _write_rows(fh, trace)


def load_trace(path: str | Path) -> Trace:
    """Read a trace from a CSV file written by :func:`save_trace`.

    Every row, the last included, must end with its line terminator:
    a file cut inside its last row is torn and raises
    :class:`~repro.exceptions.TraceError` instead of loading that row
    altered or short.
    """
    path = Path(path)
    records: list[TraceRecord] = []
    with path.open(newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: undecodable text: {exc}") from exc
        if text and not text.endswith("\n"):
            raise TraceError(f"{path}: torn last line (no line terminator)")
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty trace file") from None
        if header != _FIELDS:
            raise TraceError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_FIELDS):
                raise TraceError(f"{path}:{lineno}: expected {len(_FIELDS)} fields")
            try:
                records.append(
                    TraceRecord(
                        pid=int(row[0]),
                        rank=int(row[1]),
                        fd=int(row[2]),
                        file=row[3],
                        op=row[4],
                        offset=int(row[5]),
                        size=int(row[6]),
                        timestamp=float(row[7]),
                    )
                )
            except (ValueError, TraceError) as exc:
                raise TraceError(f"{path}:{lineno}: bad record: {exc}") from exc
    return Trace(records)


def save_trace_per_rank(trace: Trace, directory: str | Path, stem: str = "trace") -> list[Path]:
    """Split a trace by rank into ``{stem}.rank{N}.csv`` files.

    Mirrors IOSIG's per-process trace files.  Returns the paths written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for rank in trace.ranks():
        sub = Trace(r for r in trace if r.rank == rank)
        path = directory / f"{stem}.rank{rank}.csv"
        save_trace(sub, path)
        paths.append(path)
    return paths


def load_trace_dir(directory: str | Path, stem: str = "trace") -> Trace:
    """Re-assemble a per-rank trace directory into one offset-sorted trace."""
    directory = Path(directory)
    records: list[TraceRecord] = []
    paths = sorted(directory.glob(f"{stem}.rank*.csv"))
    if not paths:
        raise TraceError(f"no {stem}.rank*.csv files under {directory}")
    for path in paths:
        records.extend(load_trace(path))
    return Trace(records).sorted_by_offset()


# ------------------------------------------------------------------- binary

#: binary trace magic — "RTRC" + format version 1
_MAGIC = b"RTRC\x01\x00\x00\x00"
_HEADER = struct.Struct("<QQQ")  # n_records, n_files, names_blob_len
_ALIGN = 64


def _names_blob(names: Iterable[str]) -> bytes:
    out = bytearray()
    for name in names:
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    return bytes(out)


def _parse_names(blob: bytes, n_files: int, path: Path) -> tuple[str, ...]:
    names: list[str] = []
    pos = 0
    for _ in range(n_files):
        if pos + 4 > len(blob):
            raise TraceError(f"{path}: truncated file-name table")
        (length,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + length > len(blob):
            raise TraceError(f"{path}: truncated file-name table")
        try:
            names.append(blob[pos : pos + length].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: undecodable file name: {exc}") from exc
        pos += length
    if pos != len(blob):
        raise TraceError(f"{path}: trailing bytes in file-name table")
    return tuple(names)


@twin_of(
    "repro.tracing.tracefile:save_trace",
    kind="reduction",
    harness="trace_roundtrip",
)
def save_trace_columnar(trace: "Trace | ColumnarTrace", path: str | Path) -> None:
    """Write a trace as the mmap-able binary columnar format.

    Layout: 8-byte magic, ``<QQQ`` header (record count, file count,
    name-table length), the length-prefixed utf-8 file-name table,
    zero padding to a 64-byte boundary, then the raw little-endian
    :data:`TRACE_DTYPE` rows.  The round trip through
    :func:`load_trace_mmap` preserves every record bit-for-bit, same
    as the text format's :func:`save_trace`/:func:`load_trace` pair.
    """
    col = as_columnar_trace(trace)
    path = Path(path)
    blob = _names_blob(col.interned_files)
    header = _MAGIC + _HEADER.pack(len(col), len(col.interned_files), len(blob))
    prefix_len = len(header) + len(blob)
    pad = (-prefix_len) % _ALIGN
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(blob)
        fh.write(b"\x00" * pad)
        fh.write(col.data.tobytes())


def load_trace_mmap(path: str | Path) -> ColumnarTrace:
    """Map a binary trace written by :func:`save_trace_columnar`.

    The record array is a read-only :func:`numpy.memmap` view over the
    file — million-request traces open without copying.  Empty traces
    come back as a regular empty array (``mmap`` cannot map 0 bytes).
    """
    path = Path(path)
    size = path.stat().st_size
    with path.open("rb") as fh:
        head = fh.read(len(_MAGIC) + _HEADER.size)
        if len(head) != len(_MAGIC) + _HEADER.size or head[: len(_MAGIC)] != _MAGIC:
            raise TraceError(f"{path}: not a binary columnar trace")
        n_records, n_files, blob_len = _HEADER.unpack(head[len(_MAGIC) :])
        if blob_len > size - len(head):
            raise TraceError(f"{path}: file-name table overruns the file")
        blob = fh.read(blob_len)
        if len(blob) != blob_len:
            raise TraceError(f"{path}: truncated file-name table")
    names = _parse_names(blob, n_files, path)
    prefix_len = len(head) + blob_len
    data_start = prefix_len + ((-prefix_len) % _ALIGN)
    expected = data_start + n_records * TRACE_DTYPE.itemsize
    if size != expected:
        raise TraceError(
            f"{path}: size mismatch (expected {expected} bytes, found {size})"
        )
    if n_records == 0:
        return ColumnarTrace(np.empty(0, dtype=TRACE_DTYPE), names)
    data = np.memmap(path, dtype=TRACE_DTYPE, mode="r", offset=data_start, shape=(n_records,))
    return ColumnarTrace(data, names)

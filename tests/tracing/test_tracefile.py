"""Tests for trace persistence."""

import struct

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.tracing import (
    ColumnarTrace,
    Trace,
    TraceRecord,
    as_columnar_trace,
    load_trace,
    load_trace_dir,
    load_trace_mmap,
    save_trace,
    save_trace_columnar,
    save_trace_per_rank,
)
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def sample_trace():
    return Trace(
        [
            TraceRecord(
                offset=i * 1000,
                timestamp=float(i) / 3,
                rank=i % 3,
                pid=i % 3,
                fd=7,
                file="data.bin",
                op="write" if i % 2 else "read",
                size=512 + i,
            )
            for i in range(12)
        ]
    )


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_float_timestamps_exact(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [r.timestamp for r in loaded] == [r.timestamp for r in trace]

    def test_per_rank_split_and_merge(self, tmp_path):
        trace = sample_trace()
        paths = save_trace_per_rank(trace, tmp_path)
        assert len(paths) == 3  # ranks 0, 1, 2
        merged = load_trace_dir(tmp_path)
        assert merged == trace.sorted_by_offset()

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace(Trace([]), path)
        assert len(load_trace(path)) == 0


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pid,rank,fd,file,op,offset,size,timestamp\n1,2\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "pid,rank,fd,file,op,offset,size,timestamp\n"
            "0,0,0,f,read,NOT_A_NUMBER,10,0.0\n"
        )
        with pytest.raises(TraceError):
            load_trace(path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace_dir(tmp_path)


def ior_trace():
    trace = IORWorkload(
        num_processes=8,
        request_sizes=[32 * KiB, 128 * KiB],
        total_size=8 * MiB,
        seed=4,
    ).trace("write")
    return Trace(list(trace)[:25])


def load_or_trace_error(load, path, data):
    """Write ``data`` to a fresh inode at ``path`` (an earlier memmap
    keeps its own) and load it: a validated columnar trace, or None for
    a TraceError.  Any other exception fails the test."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    try:
        loaded = load(path)
    except TraceError:
        return None
    col = as_columnar_trace(loaded)
    return ColumnarTrace(np.array(col.data), col.interned_files)


class TestDamagedFiles:
    """A damaged trace file loads as a valid trace or raises TraceError."""

    FLIPS = 600

    def flips(self, data, limit, seed):
        rng = np.random.default_rng(seed)
        for _ in range(self.FLIPS):
            damaged = bytearray(data)
            damaged[int(rng.integers(limit))] ^= 1 << int(rng.integers(8))
            yield bytes(damaged)

    def test_text_cuts_and_flips(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_trace(ior_trace(), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            loaded = load_or_trace_error(load_trace, path, data[:cut])
            at_line_end = cut > 0 and data[cut - 1 : cut] == b"\n"
            assert at_line_end or loaded is None, f"cut at {cut} loaded"
        for damaged in self.flips(data, len(data), seed=11):
            load_or_trace_error(load_trace, path, damaged)

    def test_binary_cuts_and_flips(self, tmp_path):
        path = tmp_path / "trace.rtrc"
        save_trace_columnar(ior_trace(), path)
        data = path.read_bytes()
        for cut in range(len(data)):
            assert load_or_trace_error(load_trace_mmap, path, data[:cut]) is None
        # flips land in the header (magic, then three u64 counts ending
        # with the name table's length) and the file-name table
        (names_len,) = struct.unpack_from("<Q", data, 24)
        for damaged in self.flips(data, 32 + names_len, seed=12):
            load_or_trace_error(load_trace_mmap, path, damaged)

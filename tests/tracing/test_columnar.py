"""The columnar trace spine: container parity, twin equivalence, I/O.

The generated twin suites (``tests/contracts/test_twin_*``) already
police the registered ``@twin_of`` contracts; this module pins the
parts the generator does not reach — container semantics of
:class:`~repro.tracing.columnar.ColumnarTrace` against the record
``Trace``, the full ``sorted_by_time`` tie-break, and text↔binary
round-trips at the edges (empty / single record).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import extract_features, extract_features_columnar
from repro.exceptions import ConfigurationError
from repro.tracing import (
    ColumnarTrace,
    Trace,
    TraceRecord,
    as_columnar_trace,
    burst_ids_columnar,
    concurrency_columnar,
    load_trace,
    load_trace_mmap,
    save_trace,
    save_trace_columnar,
    split_phases_columnar,
)
from repro.tracing.analysis import (
    burst_clusters,
    burst_ids_of,
    concurrency_of,
    split_phases,
)
from repro.units import KiB

# ---------------------------------------------------------------------------
# strategies: small traces with deliberate ties, duplicates, multi-file


def rec(offset=0, size=KiB, rank=0, op="read", ts=0.0, file="f"):
    return TraceRecord(
        offset=offset, timestamp=ts, rank=rank, op=op, size=size, file=file
    )


_raw_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=48),  # offset slot
        st.integers(min_value=1, max_value=8),  # size slots
        st.sampled_from([0.0, 0.25, 0.3, 1.0, 1.05, 5.0]),  # timestamp
        st.integers(min_value=0, max_value=3),  # rank
        st.sampled_from(["read", "write"]),
        st.sampled_from(["a", "b"]),
    ),
    min_size=0,
    max_size=16,
)


def build_traces(raw):
    records = [
        rec(offset=o * 16 * KiB, size=s * 16 * KiB, ts=ts, rank=rank, op=op, file=f)
        for o, s, ts, rank, op, f in raw
    ]
    trace = Trace(records)
    return trace, ColumnarTrace.from_trace(trace)


# ---------------------------------------------------------------------------
# container parity


class TestContainerParity:
    @given(_raw_rows)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_summaries(self, raw):
        trace, col = build_traces(raw)
        assert col.to_trace() == trace
        assert len(col) == len(trace)
        assert col.files() == trace.files()
        assert col.ranks() == trace.ranks()
        assert col.total_bytes() == trace.total_bytes()
        assert col.extent() == trace.extent()
        assert col.max_size() == trace.max_size()
        assert list(col) == list(trace)

    @given(_raw_rows)
    @settings(max_examples=50, deadline=None)
    def test_sorted_orders_match_record_path(self, raw):
        trace, col = build_traces(raw)
        assert col.sorted_by_offset().to_trace() == trace.sorted_by_offset()
        assert col.sorted_by_time().to_trace() == trace.sorted_by_time()

    @given(_raw_rows)
    @settings(max_examples=50, deadline=None)
    def test_file_partition_matches_record_partition(self, raw):
        trace, col = build_traces(raw)
        record_parts = trace.partition_by_file()
        col_parts = col.file_partition()
        assert list(col_parts) == list(record_parts)
        for file, indices in col_parts.items():
            assert col.take(indices).to_trace() == record_parts[file]

    def test_from_columns_defaults(self):
        col = ColumnarTrace.from_columns(
            offsets=np.array([0, KiB]),
            timestamps=np.array([0.0, 1.0]),
            ranks=np.array([0, 1]),
            sizes=np.array([KiB, KiB]),
        )
        assert col.to_trace() == Trace(
            [
                rec(offset=0, ts=0.0, rank=0, file="file"),
                rec(offset=KiB, ts=1.0, rank=1, file="file"),
            ]
        )
        assert all(r.op == "read" for r in col)


class TestSortedByTimeTieBreak:
    """Satellite: ``sorted_by_time`` breaks timestamp ties on
    ``(rank, offset, size)`` — pinned here so the replay arrival order
    (and therefore every digest downstream) cannot silently drift."""

    def test_full_tie_break_record_path(self):
        records = [
            rec(ts=1.0, rank=1, offset=0, size=KiB),
            rec(ts=1.0, rank=0, offset=2 * KiB, size=KiB),
            rec(ts=1.0, rank=0, offset=0, size=2 * KiB),
            rec(ts=1.0, rank=0, offset=0, size=KiB),
            rec(ts=0.5, rank=9, offset=9 * KiB, size=KiB),
        ]
        ordered = list(Trace(records).sorted_by_time())
        assert [(r.timestamp, r.rank, r.offset, r.size) for r in ordered] == [
            (0.5, 9, 9 * KiB, KiB),
            (1.0, 0, 0, KiB),
            (1.0, 0, 0, 2 * KiB),
            (1.0, 0, 2 * KiB, KiB),
            (1.0, 1, 0, KiB),
        ]

    @given(_raw_rows)
    @settings(max_examples=50, deadline=None)
    def test_columnar_mirrors_record_tie_break(self, raw):
        trace, col = build_traces(raw)
        assert col.sorted_by_time().to_trace() == trace.sorted_by_time()


# ---------------------------------------------------------------------------
# analysis equivalence (direct suites, beyond the generated twin tests)

_gaps = st.sampled_from([0.3, 0.5, 2.0])
_spatials = st.sampled_from([False, True, 4 * 16 * KiB])


class TestAnalysisEquivalence:
    @given(_raw_rows, _gaps)
    @settings(max_examples=50, deadline=None)
    def test_split_phases(self, raw, gap):
        trace, col = build_traces(raw)
        ref = split_phases(trace, gap)
        slices = split_phases_columnar(col, gap)
        assert slices.n_phases == len(ref)
        for p, phase in enumerate(ref):
            assert slices.start_time(p) == phase.start_time
            assert slices.end_time(p) == phase.end_time
            got = col.take(slices.indices(p)).to_trace()
            assert tuple(got) == phase.records

    @given(_raw_rows, _gaps, _spatials)
    @settings(max_examples=50, deadline=None)
    def test_burst_ids_and_concurrency(self, raw, gap, spatial):
        trace, col = build_traces(raw)
        ref_conc = concurrency_of(trace, gap=gap, spatial=spatial)
        ref_ids = burst_ids_of(trace, gap=gap, spatial=spatial)
        got_conc = concurrency_columnar(col, gap=gap, spatial=spatial)
        got_ids = burst_ids_columnar(col, gap=gap, spatial=spatial)
        for i, record in enumerate(col):
            assert got_conc[i] == ref_conc[record]
            assert got_ids[i] == ref_ids[record]

    @given(_raw_rows, _gaps, _spatials)
    @settings(max_examples=50, deadline=None)
    def test_feature_matrix_bitwise(self, raw, gap, spatial):
        trace, col = build_traces(raw)
        ref = extract_features(trace, gap=gap, spatial=spatial)
        got = extract_features_columnar(col, gap=gap, spatial=spatial)
        assert got.points.tobytes() == ref.points.tobytes()
        assert np.asarray(got.spread).tobytes() == np.asarray(ref.spread).tobytes()


class TestDuplicateRecords:
    """Copies of one record share a timestamp and an offset, so with a
    non-negative spatial threshold they always land in one burst: the
    burst twins rely on this instead of collapsing duplicates."""

    @given(_raw_rows, _gaps, st.sampled_from([False, True, 0, 64 * KiB]))
    @settings(max_examples=100, deadline=None)
    def test_equal_records_share_a_burst(self, raw, gap, spatial):
        trace, col = build_traces(raw + raw[: len(raw) // 2 + 1])
        ids = burst_ids_columnar(col, gap=gap, spatial=spatial)
        first: dict[TraceRecord, int] = {}
        for i, record in enumerate(col):
            assert ids[i] == first.setdefault(record, ids[i])
        home: dict[TraceRecord, int] = {}
        for b, members in enumerate(burst_clusters(trace, gap, spatial)):
            for record in members:
                assert home.setdefault(record, b) == b

    @pytest.mark.parametrize(
        "fn, as_input",
        [
            (concurrency_of, lambda trace: trace),
            (concurrency_columnar, ColumnarTrace.from_trace),
        ],
        ids=["reference", "columnar"],
    )
    def test_negative_spatial_rejected(self, fn, as_input):
        trace = Trace([rec(offset=0), rec(offset=64 * KiB, ts=0.1)])
        with pytest.raises(ConfigurationError, match="spatial"):
            fn(as_input(trace), spatial=-1)

    @pytest.mark.parametrize(
        "fn, as_input",
        [
            (split_phases, lambda trace: trace),
            (split_phases_columnar, ColumnarTrace.from_trace),
            (concurrency_of, lambda trace: trace),
            (concurrency_columnar, ColumnarTrace.from_trace),
        ],
        ids=["phases-ref", "phases-columnar", "bursts-ref", "bursts-columnar"],
    )
    @pytest.mark.parametrize("gap", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_gap_must_be_finite_and_positive(self, fn, as_input, gap):
        """Both twins reject the same gaps: a NaN gap used to pass and
        put an 8-phase IOR trace in one phase."""
        trace = Trace([rec(offset=0), rec(offset=64 * KiB, ts=10.0)])
        with pytest.raises(ConfigurationError, match="gap"):
            fn(as_input(trace), gap=gap)

    @pytest.mark.parametrize(
        "fn, as_input",
        [
            (concurrency_of, lambda trace: trace),
            (concurrency_columnar, ColumnarTrace.from_trace),
        ],
        ids=["reference", "columnar"],
    )
    def test_nan_spatial_rejected(self, fn, as_input):
        trace = Trace([rec(offset=0), rec(offset=64 * KiB, ts=0.1)])
        with pytest.raises(ConfigurationError, match="spatial"):
            fn(as_input(trace), spatial=math.nan)


# ---------------------------------------------------------------------------
# text ↔ binary round-trip, including the edges


class TestTraceIO:
    @given(raw=_raw_rows)
    @settings(max_examples=25, deadline=None)
    def test_text_binary_agree(self, raw, tmp_path_factory):
        trace, col = build_traces(raw)
        out = tmp_path_factory.mktemp("colio")
        save_trace(trace, out / "t.trace")
        save_trace_columnar(col, out / "t.ctrace")
        loaded = load_trace_mmap(out / "t.ctrace")
        assert load_trace(out / "t.trace") == loaded.to_trace()

    def test_empty_trace(self, tmp_path):
        save_trace_columnar(Trace([]), tmp_path / "empty.ctrace")
        back = load_trace_mmap(tmp_path / "empty.ctrace")
        assert len(back) == 0
        assert back.to_trace() == Trace([])

    def test_single_record(self, tmp_path):
        trace = Trace([rec(offset=3 * KiB, size=KiB, ts=0.25, rank=2, op="write")])
        save_trace_columnar(trace, tmp_path / "one.ctrace")
        back = load_trace_mmap(tmp_path / "one.ctrace")
        assert back.to_trace() == trace
        assert back == as_columnar_trace(trace)

    def test_record_input_equals_columnar_input(self, tmp_path):
        trace, col = build_traces(
            [(0, 1, 0.0, 0, "read", "a"), (4, 2, 1.0, 1, "write", "b")]
        )
        save_trace_columnar(trace, tmp_path / "a.ctrace")
        save_trace_columnar(col, tmp_path / "b.ctrace")
        a = (tmp_path / "a.ctrace").read_bytes()
        assert a == (tmp_path / "b.ctrace").read_bytes()

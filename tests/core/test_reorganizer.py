"""Tests for the Data Reorganizer (regions + DRT construction)."""

import numpy as np
import pytest

from repro.core import DRT, group_requests, reorganize
from repro.core.features import extract_features
from repro.core.reorganizer import reorganize_arrays
from repro.exceptions import ConfigurationError, RedirectionError
from repro.tracing import ColumnarTrace, Trace, TraceRecord, burst_ids_of


def rec(offset, size, ts=0.0, rank=0, op="write"):
    return TraceRecord(offset=offset, timestamp=ts, rank=rank, size=size, op=op)


def build(records, k=2, seed=0):
    trace = Trace(records).sorted_by_offset()
    features = extract_features(trace)
    grouping = group_requests(features, k=k, seed=seed)
    bursts = burst_ids_of(trace)
    return trace, grouping, reorganize(trace, grouping, bursts=bursts)


class TestRegions:
    def test_similar_requests_share_a_region(self):
        # alternate small/large over the file: two groups expected
        records = []
        for i in range(8):
            records.append(rec(i * 2000, 100, ts=float(i)))
            records.append(rec(i * 2000 + 1000, 900, ts=float(i)))
        _, grouping, plan = build(records, k=2)
        assert grouping.k == 2
        assert len(plan.regions) == 2
        sizes = sorted(r.size for r in plan.regions)
        assert sizes == [800, 7200]

    def test_regions_are_contiguous_packings(self):
        records = [rec(i * 500, 100, ts=float(i)) for i in range(6)]
        _, _, plan = build(records, k=1)
        region = plan.regions[0]
        # every request fragment lands inside [0, region.size)
        offsets, lengths, _, _ = region.request_arrays()
        assert (0 <= offsets).all() and (offsets < region.size).all()
        assert (offsets + lengths <= region.size).all()
        assert region.size == 600

    def test_drt_maps_every_accessed_byte(self):
        records = [rec(i * 300, 200, ts=float(i)) for i in range(5)]
        trace, _, plan = build(records, k=2)
        for record in trace:
            for e in plan.drt.translate(trace.files()[0], record.offset, record.size):
                assert e.mapped

    def test_duplicate_access_claims_once(self):
        records = [rec(0, 1000, ts=0.0), rec(0, 1000, ts=5.0)]
        _, _, plan = build(records, k=1)
        assert plan.migrated_bytes == 1000
        region = plan.regions[0]
        assert region.size == 1000
        assert region.offsets.size == 2  # both requests resolved

    def test_overlapping_requests_split_between_groups(self):
        # one large write over [0, 1000); small reads within it
        records = [
            rec(0, 1000, ts=0.0, op="write"),
            rec(200, 50, ts=10.0, op="read"),
            rec(600, 50, ts=20.0, op="read"),
        ]
        trace, grouping, plan = build(records, k=2)
        # small reads fully resolvable through the DRT
        for record in trace:
            ext = plan.drt.translate("file", record.offset, record.size)
            assert sum(e.length for e in ext) == record.size

    def test_request_arrays_shape(self):
        records = [rec(i * 100, 100, ts=float(i)) for i in range(4)]
        _, _, plan = build(records, k=1)
        offsets, lengths, is_read, bursts = plan.regions[0].request_arrays()
        assert offsets.shape == lengths.shape == is_read.shape == bursts.shape
        assert (lengths == 100).all()
        assert not is_read.any()

    def test_burst_ids_carried(self):
        records = [rec(i * 100, 100, ts=0.0, rank=i) for i in range(4)]
        _, _, plan = build(records, k=1)
        _, _, _, bursts = plan.regions[0].request_arrays()
        assert len(set(bursts.tolist())) == 1  # one burst

    def test_untouched_bytes_stay_unmapped(self):
        records = [rec(0, 100), rec(1000, 100, ts=1.0)]
        _, _, plan = build(records, k=1)
        out = plan.drt.translate("file", 500, 100)
        assert len(out) == 1 and not out[0].mapped


class TestPrefilledTable:
    """A table that already maps the file's extents rejects a second
    reorganization of them: plan metadata is write-once."""

    def records(self):
        return [rec(i * 300, 200 + 50 * (i % 2), ts=float(i)) for i in range(8)]

    def test_record_path_rejects_mapped_extents(self):
        trace, grouping, plan = build(self.records())
        with pytest.raises(RedirectionError, match="overlap"):
            reorganize(trace, grouping, drt=plan.drt)

    def test_columnar_path_rejects_mapped_extents(self):
        trace, grouping, plan = build(self.records())
        before = list(plan.drt)
        with pytest.raises(RedirectionError, match="overlap"):
            reorganize_arrays(ColumnarTrace.from_trace(trace), grouping, drt=plan.drt)
        # all or nothing: no entry of the rejected plan went in
        assert list(plan.drt) == before

    def test_columnar_path_accepts_other_files(self):
        trace, grouping, _ = build(self.records())
        drt = DRT()
        at = np.arange(8)
        drt.add_all("g", 300 * at, np.full(8, 100), 100 * at, 0 * at, ["g.region0"])
        plan = reorganize_arrays(ColumnarTrace.from_trace(trace), grouping, drt=drt)
        assert plan.regions == reorganize(trace, grouping).regions
        assert len(drt) == 8 + len(plan.drt.entries_for(trace.files()[0]))


class TestValidation:
    def test_label_count_mismatch(self):
        trace = Trace([rec(0, 100)])
        features = extract_features(Trace([rec(0, 100), rec(200, 100)]))
        grouping = group_requests(features, k=1)
        with pytest.raises(ConfigurationError):
            reorganize(trace, grouping)

    def test_multi_file_trace_rejected(self):
        records = [
            TraceRecord(offset=0, timestamp=0.0, rank=0, size=10, file="a"),
            TraceRecord(offset=0, timestamp=1.0, rank=0, size=10, file="b"),
        ]
        trace = Trace(records)
        features = extract_features(trace)
        grouping = group_requests(features, k=1)
        with pytest.raises(ConfigurationError):
            reorganize(trace, grouping)

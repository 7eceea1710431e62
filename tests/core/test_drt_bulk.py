"""The DRT's bulk paths: bulk insert, commit and reload.

A table filled by any mix of bulk inserts (``DRT.add_all``) and
per-entry ``add`` calls, committed and reloaded, is the same table.  A
reloaded table answers per-record lookups, and counts its hot-entry
hits and misses, as a table built entry by entry does.  Malformed
committed records fail the reload.  Planning, reloading and replaying
build no ``DRTEntry`` at all.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import DRT, RST, DRTEntry, MHAPipeline, StripePair, load_plan
from repro.exceptions import KVStoreError, RedirectionError
from repro.kvstore import EpochDB
from repro.pfs import run_workload
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from tests.plan_checks import drt_record

#: names mixing one-, two-, three- and four-byte UTF-8 characters
_names = st.text(alphabet="a_é漢🙂", min_size=1, max_size=4)


@st.composite
def _entries(draw):
    """Non-overlapping entries of one to three original files, shuffled."""
    files = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    regions = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    shape = st.tuples(
        st.integers(0, 300),  # gap before the entry
        st.integers(1, 300),  # its length
        st.sampled_from(regions),
        st.integers(0, 10**6),  # its region offset
    )
    entries = []
    for file in files:
        cursor = 0
        for gap, length, region, r_offset in draw(st.lists(shape, max_size=10)):
            cursor += gap
            entries.append(DRTEntry(file, cursor, length, region, r_offset))
            cursor += length
    return files, draw(st.permutations(entries))


_chunks = st.lists(st.tuples(st.integers(1, 6), st.booleans()), max_size=6)

_probes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4000), st.integers(0, 700)),
    max_size=25,
)


def fill(drt, entries, chunks):
    """Insert ``entries`` in order, chunk by chunk: a bulk chunk goes in
    as one ``add_all`` per file, the other chunks and the rest entry by
    entry."""
    at = 0
    for size, bulk in chunks:
        chunk, at = entries[at : at + size], at + size
        for file in dict.fromkeys(e.o_file for e in chunk) if bulk else ():
            mine = [e for e in chunk if e.o_file == file]
            names = sorted({e.r_file for e in mine}, reverse=True)
            drt.add_all(
                file,
                [e.o_offset for e in mine],
                [e.length for e in mine],
                [e.r_offset for e in mine],
                [names.index(e.r_file) for e in mine],
                names,
            )
        for e in () if bulk else chunk:
            drt.add(e)
    for e in entries[at:]:
        drt.add(e)


def by_entry(entries):
    drt = DRT()
    for e in entries:
        drt.add(e)
    return drt


def named(pieces):
    """Piece columns with region codes resolved to names."""
    files = [pieces.names[c] if c >= 0 else None for c in pieces.files.tolist()]
    columns = pieces.starts, pieces.offsets, pieces.lengths, pieces.logicals
    return files, [c.tolist() for c in columns]


class TestBulkRoundTrip:
    @given(drawn=_entries(), chunks=_chunks, probes=_probes)
    @settings(max_examples=60, deadline=None)
    def test_reload_gives_the_same_table(
        self, drawn, chunks, probes, tmp_path_factory
    ):
        files, entries = drawn
        path = tmp_path_factory.mktemp("drt") / "drt.db"
        with DRT(path) as built:
            fill(built, entries, chunks)
            built.commit(1)
        with DRT(path) as reloaded:
            assert reloaded.epoch == 1
        want = sorted(entries, key=lambda e: (e.o_file, e.o_offset))
        assert list(reloaded) == list(built) == list(by_entry(entries)) == want
        assert len(reloaded) == len(built) == len(entries)
        assert reloaded.files() == built.files() == sorted({e.o_file for e in want})
        assert reloaded.numeric_bytes() == built.numeric_bytes()
        offsets = [offset for _, offset, _ in probes]
        lengths = [length for _, _, length in probes]
        for file in [*files, "unmapped"]:
            assert named(reloaded.translate_many(file, offsets, lengths)) == named(
                built.translate_many(file, offsets, lengths)
            )

    @given(drawn=_entries(), chunks=_chunks, probes=_probes)
    @settings(max_examples=60, deadline=None)
    def test_reloaded_table_serves_records_like_one_built_entry_by_entry(
        self, drawn, chunks, probes, tmp_path_factory
    ):
        files, entries = drawn
        path = tmp_path_factory.mktemp("drt") / "drt.db"
        with DRT(path) as built:
            fill(built, entries, chunks)
            built.commit(1)
        reference = by_entry(entries)
        with DRT(path) as reloaded:
            for pick, offset, length in probes:
                file = [*files, "unmapped"][pick % (len(files) + 1)]
                got = reloaded.overlaps(file, offset, length)
                assert got == reference.overlaps(file, offset, length)
                got = reloaded.translate(file, offset, length)
                assert got == reference.translate(file, offset, length)
                got = reloaded.entry_at(file, offset)
                assert got == reference.entry_at(file, offset)
                assert (reloaded.cache_hits, reloaded.cache_misses) == (
                    reference.cache_hits,
                    reference.cache_misses,
                )

    def test_bulk_insert_is_all_or_none(self):
        drt = DRT()
        drt.add(DRTEntry("f", 100, 50, "r", 0))
        before, names = list(drt), ["r", "s"]
        with pytest.raises(RedirectionError, match="overlap at f:120"):
            drt.add_all("f", [0, 120, 400], [10, 5, 10], [0, 9, 20], [0, 0, 1], names)
        with pytest.raises(RedirectionError, match="length must be > 0"):
            drt.add_all("g", [0, 20], [10, 0], [0, 10], [0, 0], ["r"])
        assert list(drt) == before and len(drt) == 1 and drt.files() == ["f"]


_GOOD_KEY, _GOOD_VALUE = drt_record("f", 0, 4 * KiB, "f.region0", 0)

#: committed records each load must reject
MALFORMED = {
    "key-under-8-bytes": [(b"\x00" * 7, _GOOD_VALUE)],
    "value-under-16-bytes": [(_GOOD_KEY, _GOOD_VALUE[:15])],
    "file-name-not-utf8": [(struct.pack("<Q", 0) + b"f\xff", _GOOD_VALUE)],
    "region-name-not-utf8": [(_GOOD_KEY, _GOOD_VALUE[:16] + b"\xc3")],
    "zero-length": [drt_record("f", 0, 0, "f.region0", 0)],
    "overlapping-entries": [
        drt_record("f", 0, 8 * KiB, "f.region0", 0),
        drt_record("f", 4 * KiB, 4 * KiB, "f.region0", 8 * KiB),
    ],
}


def commit_records(directory, records):
    """Commit raw DRT ``records`` and an RST listing ``f.region0``."""
    drt = EpochDB(directory / "drt.db")
    for key, value in records:
        drt.stage(key, value)
    drt.commit(1)
    drt.close()
    with RST(directory / "rst.db") as rst:
        rst.set("f.region0", StripePair(0, 4 * KiB))
        rst.commit(1)


class TestMalformedRecords:
    def test_well_formed_record_loads(self, tmp_path):
        commit_records(tmp_path, [(_GOOD_KEY, _GOOD_VALUE)])
        plan = load_plan(ClusterSpec(), tmp_path / "drt.db", tmp_path / "rst.db")
        assert list(plan.drt) == [DRTEntry("f", 0, 4 * KiB, "f.region0", 0)]
        plan.drt.close()
        plan.rst.close()

    @pytest.mark.parametrize("records", MALFORMED.values(), ids=MALFORMED.keys())
    def test_reload_rejects(self, tmp_path, records):
        commit_records(tmp_path, records)
        committed = (tmp_path / "drt.db").read_bytes()
        with pytest.raises(KVStoreError):
            DRT(tmp_path / "drt.db")
        with pytest.raises(KVStoreError):
            load_plan(ClusterSpec(), tmp_path / "drt.db", tmp_path / "rst.db")
        assert (tmp_path / "drt.db").read_bytes() == committed


def test_plan_reload_and_replay_build_no_entry_objects(tmp_path, monkeypatch):
    """The plan, its commit, ``load_plan`` and a replay through the
    reloaded redirector work on columns; only the per-record API
    (iteration, ``entries_for``, ``entry_at``) builds ``DRTEntry``s."""
    made = []
    check = DRTEntry.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(DRTEntry, "__post_init__", counted)
    spec = ClusterSpec()
    trace = IORWorkload(
        num_processes=8, request_sizes=[16 * KiB, 64 * KiB], total_size=4 * MiB
    ).columnar("write")
    drt_path, rst_path = tmp_path / "drt.db", tmp_path / "rst.db"
    plan = MHAPipeline(spec, drt_path=drt_path, rst_path=rst_path).plan(trace)
    plan.drt.close()
    plan.rst.close()
    loaded = load_plan(spec, drt_path, rst_path)
    run_workload(spec, loaded.redirector, trace)
    loaded.drt.close()
    loaded.rst.close()
    assert made == []
    assert len(list(loaded.drt)) == len(made) == len(plan.drt) > 0

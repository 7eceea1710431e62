"""Tests for the Data Reordering Table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRT, DRTEntry, ENTRY_NUMERIC_BYTES
from repro.exceptions import RedirectionError


def entry(o_offset, length, r_offset, o_file="f", r_file="f.region0"):
    return DRTEntry(
        o_file=o_file, o_offset=o_offset, length=length, r_file=r_file, r_offset=r_offset
    )


class TestEntries:
    def test_o_end(self):
        assert entry(100, 50, 0).o_end == 150

    def test_zero_length_rejected(self):
        with pytest.raises(RedirectionError):
            entry(0, 0, 0)

    def test_negative_offset_rejected(self):
        with pytest.raises(RedirectionError):
            entry(-1, 10, 0)

    def test_overlapping_entries_rejected(self):
        drt = DRT()
        drt.add(entry(0, 100, 0))
        with pytest.raises(RedirectionError):
            drt.add(entry(50, 100, 200))

    def test_overlap_with_following_rejected(self):
        drt = DRT()
        drt.add(entry(100, 100, 0))
        with pytest.raises(RedirectionError):
            drt.add(entry(50, 100, 200))

    def test_adjacent_entries_allowed(self):
        drt = DRT()
        drt.add(entry(0, 100, 0))
        drt.add(entry(100, 100, 100))
        assert len(drt) == 2


class TestTranslate:
    def make(self):
        drt = DRT()
        drt.add(entry(0, 100, 1000, r_file="rA"))
        drt.add(entry(200, 100, 0, r_file="rB"))
        return drt

    def test_fully_mapped(self):
        drt = self.make()
        out = drt.translate("f", 10, 50)
        assert len(out) == 1
        e = out[0]
        assert e.mapped and e.file == "rA" and e.offset == 1010 and e.length == 50

    def test_unmapped_gap(self):
        drt = self.make()
        out = drt.translate("f", 100, 100)
        assert len(out) == 1
        assert not out[0].mapped and out[0].file == "f" and out[0].offset == 100

    def test_mixed_translation_tiles(self):
        drt = self.make()
        out = drt.translate("f", 50, 200)  # mapped, gap, mapped
        assert [e.mapped for e in out] == [True, False, True]
        cursor = 50
        for e in out:
            assert e.logical_offset == cursor
            cursor += e.length
        assert cursor == 250

    def test_unknown_file_falls_through(self):
        drt = self.make()
        out = drt.translate("other", 0, 10)
        assert len(out) == 1 and not out[0].mapped

    def test_zero_length(self):
        assert self.make().translate("f", 0, 0) == []

    def test_overlaps_matches_translate(self):
        """``overlaps`` counts the translated pieces that are mapped (one
        per entry the extent touches), including extents ending or
        starting on an entry boundary, and leaves the hot-entry counters
        alone."""
        drt = self.make()
        for offset in range(0, 320, 10):
            for length in (0, 1, 10, 50, 100, 150, 300):
                pieces = drt.translate("f", offset, length)
                want = sum(e.mapped for e in pieces)
                hits, misses = drt.cache_hits, drt.cache_misses
                assert drt.overlaps("f", offset, length) == want, (offset, length)
                assert (drt.cache_hits, drt.cache_misses) == (hits, misses)
        assert drt.overlaps("other", 0, 1000) == 0

    @given(
        shapes=st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 50)), max_size=8
        ),
        probes=st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 200)), max_size=12
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlaps_counts_entries(self, shapes, probes):
        """``overlaps`` equals a brute-force count of the entries sharing
        a byte with the extent."""
        drt = DRT()
        cursor = 0
        for gap, length in shapes:
            cursor += gap
            drt.add(entry(cursor, length, cursor))
            cursor += length
        entries = list(drt)
        for offset, length in probes:
            # an empty extent has no byte to share
            want = sum(
                length > 0 and e.o_offset < offset + length and offset < e.o_end
                for e in entries
            )
            assert drt.overlaps("f", offset, length) == want

    def test_entry_at(self):
        drt = self.make()
        assert drt.entry_at("f", 50).r_file == "rA"
        assert drt.entry_at("f", 150) is None
        assert drt.entry_at("nope", 0) is None

    def test_numeric_bytes_sizing(self):
        drt = self.make()
        assert drt.numeric_bytes() == 2 * ENTRY_NUMERIC_BYTES

    def test_space_overhead_bound(self):
        """§V-E2: with 4 KB requests, one 24-byte entry per 4096 bytes
        is a ~0.6% metadata overhead."""
        assert ENTRY_NUMERIC_BYTES / 4096 == pytest.approx(0.006, abs=3e-4)


class TestHotEntryCache:
    def make(self):
        drt = DRT()
        drt.add(entry(0, 100, 1000, r_file="rA"))
        drt.add(entry(200, 100, 0, r_file="rB"))
        return drt

    def test_repeated_hits_count(self):
        drt = self.make()
        first = drt.translate("f", 10, 50)
        assert drt.cache_misses == 1 and drt.cache_hits == 0
        again = drt.translate("f", 20, 30)  # same hot entry covers it
        assert drt.cache_hits == 1 and drt.cache_misses == 1
        assert first[0].file == again[0].file == "rA"
        assert drt.cache_hit_rate == 0.5

    def test_miss_on_other_entry_then_hit(self):
        drt = self.make()
        drt.translate("f", 10, 10)
        drt.translate("f", 210, 10)  # different entry: miss, re-prime
        drt.translate("f", 220, 10)  # now hot: hit
        assert (drt.cache_hits, drt.cache_misses) == (1, 2)

    def test_walk_results_unchanged_by_cache(self):
        """Cached and cold translations must be byte-identical."""
        warm = self.make()
        probes = [(10, 50), (20, 30), (50, 200), (210, 10), (0, 300), (10, 50)]
        for offset, length in probes:
            cold = self.make()  # fresh table: probe always misses
            assert warm.translate("f", offset, length) == cold.translate(
                "f", offset, length
            )
        assert warm.cache_hits > 0

    def test_lru_list_serves_revisited_entries(self):
        """An entry served earlier stays on the LRU list: a later
        lookup starting exactly at it hits even after the hot slot
        moved to another entry."""
        drt = self.make()
        drt.translate("f", 10, 10)  # serves rA, hot = rA
        drt.translate("f", 210, 10)  # serves rB, hot = rB
        out = drt.translate("f", 0, 50)  # exact start of rA: LRU hit
        assert out[0].file == "rA"
        assert (drt.cache_hits, drt.cache_misses) == (1, 2)
        # and the hit re-primed the hot slot back to rA
        drt.translate("f", 50, 10)
        assert drt.cache_hits == 2

    def test_zero_length_does_not_touch_counters(self):
        drt = self.make()
        assert drt.translate("f", 0, 0) == []
        assert (drt.cache_hits, drt.cache_misses) == (0, 0)

    def test_entry_at_uses_cache(self):
        drt = self.make()
        assert drt.entry_at("f", 50).r_file == "rA"
        assert drt.entry_at("f", 60).r_file == "rA"
        assert (drt.cache_hits, drt.cache_misses) == (1, 1)

    def test_hit_rate_empty(self):
        assert DRT().cache_hit_rate == 0.0

    def test_translate_many_matches_sequential(self):
        batched, scalar = self.make(), self.make()
        offsets = [10, 20, 50, 210, 0, 10, 150]
        lengths = [50, 30, 200, 10, 300, 50, 20]
        got = batched.translate_many("f", offsets, lengths)
        want = [scalar.translate("f", o, l) for o, l in zip(offsets, lengths)]
        assert [got.extents(k) for k in range(len(offsets))] == want
        # batch lookups are not §IV-A hot-entry lookups: no counter moves
        assert (batched.cache_hits, batched.cache_misses) == (0, 0)
        assert scalar.cache_hits > 0

    def test_translate_many_columns(self):
        """Piece columns of a mapped, a straddling and an empty request:
        codes index ``names``, and unmapped pieces keep their logical
        offset."""
        out = self.make().translate_many("f", [10, 50, 5], [50, 200, 0])
        assert out.starts.tolist() == [0, 1, 4, 4]
        assert [out.names[c] if c >= 0 else None for c in out.files.tolist()] == [
            "rA",
            "rA",
            None,
            "rB",
        ]
        assert out.offsets.tolist() == [1010, 1050, 100, 0]
        assert out.lengths.tolist() == [50, 50, 100, 50]
        assert out.logicals.tolist() == [10, 50, 100, 200]

    def test_translate_many_sees_later_entries(self):
        """The column index is rebuilt once the file's entries change."""
        drt = self.make()
        assert not drt.translate_many("f", [120], [10]).extents(0)[0].mapped
        drt.add(entry(100, 100, 7, r_file="rC"))
        (piece,) = drt.translate_many("f", [120], [10]).extents(0)
        assert (piece.file, piece.offset, piece.mapped) == ("rC", 27, True)

    def test_translate_many_unknown_file(self):
        drt = self.make()
        out = drt.translate_many("other", [0, 5], [10, 0])
        assert out.starts.tolist() == [0, 1, 1]
        assert not out.extents(0)[0].mapped
        assert out.extents(1) == []

    def test_translate_many_rejects_bad_batches(self):
        drt = self.make()
        with pytest.raises(RedirectionError):
            drt.translate_many("f", [0, 1], [1])
        with pytest.raises(RedirectionError):
            drt.translate_many("f", [-1], [1])


class TestPersistence:
    def test_reload(self, tmp_path):
        path = tmp_path / "drt.db"
        with DRT(path) as drt:
            drt.add(entry(0, 100, 500))
            drt.add(entry(300, 50, 0, r_file="rB"))
            drt.commit(1)
        with DRT(path) as drt:
            assert len(drt) == 2
            out = drt.translate("f", 0, 100)
            assert out[0].file == "f.region0" and out[0].offset == 500

    def test_iteration_sorted(self, tmp_path):
        drt = DRT()
        drt.add(entry(200, 10, 0))
        drt.add(entry(0, 10, 10))
        offsets = [e.o_offset for e in drt]
        assert offsets == [0, 200]

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=20),
        probe=st.tuples(
            st.integers(min_value=0, max_value=1200),
            st.integers(min_value=0, max_value=300),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_tiles_and_roundtrips(self, lengths, probe):
        """Contiguous entries with shuffled targets: translate() tiles
        every probe extent and maps bytes consistently."""
        drt = DRT()
        cursor = 0
        byte_map = {}
        for i, length in enumerate(lengths):
            r_file = f"region{i % 3}"
            r_offset = 10_000 * i
            drt.add(entry(cursor, length, r_offset, r_file=r_file))
            for b in range(length):
                byte_map[cursor + b] = (r_file, r_offset + b)
            cursor += length
        start, length = probe
        out = drt.translate("f", start, length)
        pos = start
        for e in out:
            assert e.logical_offset == pos
            for b in range(e.length):
                logical = pos + b
                if logical in byte_map:
                    assert e.mapped
                    assert byte_map[logical] == (e.file, e.offset + b)
                else:
                    assert not e.mapped
            pos += e.length
        assert pos == start + length

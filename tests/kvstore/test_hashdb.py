"""Tests for the Berkeley-DB stand-in, including crash recovery."""

import os
import stat

import pytest

from repro.exceptions import KVStoreError
from repro.kvstore import HashDB


class TestBasics:
    def test_put_get(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            db.put(b"key", b"value")
            assert db.get(b"key") == b"value"

    def test_get_default(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            assert db.get(b"missing") is None
            assert db.get(b"missing", b"d") == b"d"

    def test_mapping_protocol(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            db[b"a"] = b"1"
            assert b"a" in db
            assert db[b"a"] == b"1"
            assert len(db) == 1
            assert list(db) == [b"a"]

    def test_missing_key_raises(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            with pytest.raises(KVStoreError):
                db[b"nope"]

    def test_overwrite(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            db.put(b"k", b"v1")
            db.put(b"k", b"v2")
            assert db[b"k"] == b"v2"
            assert len(db) == 1

    def test_delete(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            db.put(b"k", b"v")
            assert db.delete(b"k") is True
            assert b"k" not in db
            assert db.delete(b"k") is False

    def test_non_bytes_rejected(self, tmp_path):
        with HashDB(tmp_path / "db") as db:
            with pytest.raises(KVStoreError):
                db.put("str", b"v")  # type: ignore[arg-type]

    def test_use_after_close_rejected(self, tmp_path):
        db = HashDB(tmp_path / "db")
        db.close()
        with pytest.raises(KVStoreError):
            db.put(b"k", b"v")


class TestDurability:
    def test_reload_after_close(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            db.delete(b"a")
        with HashDB(path) as db:
            assert b"a" not in db
            assert db[b"b"] == b"2"

    def test_torn_tail_record_is_dropped(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put(b"good", b"kept")
            db.put(b"tail", b"lost")
        # simulate a crash mid-write of the final record
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with HashDB(path) as db:
            assert db[b"good"] == b"kept"
            assert b"tail" not in db

    @pytest.mark.parametrize("damage", ["torn", "corrupt"])
    def test_put_after_recovery_survives_reopen(self, tmp_path, damage):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put(b"good", b"kept")
            db.put(b"tail", b"lost")
        data = bytearray(path.read_bytes())
        if damage == "torn":
            del data[-3:]
        else:
            data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with HashDB(path) as db:
            db.put(b"after", b"durable")
        with HashDB(path) as db:
            assert db[b"good"] == b"kept"
            assert b"tail" not in db
            assert db[b"after"] == b"durable"

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit in the last record's value
        path.write_bytes(bytes(data))
        with HashDB(path) as db:
            assert db[b"a"] == b"1"
            assert b"b" not in db

    def test_not_a_db_file(self, tmp_path):
        path = tmp_path / "db"
        path.write_bytes(b"random junk")
        with pytest.raises(KVStoreError):
            HashDB(path)

    def test_log_without_commit_records_rejected(self, tmp_path):
        # the previous format had no commit records: it would replay as empty
        path = tmp_path / "db"
        path.write_bytes(b"RKV1" + bytes(16))
        with pytest.raises(KVStoreError):
            HashDB(path)

    def test_opening_a_damaged_log_leaves_it_unchanged(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            for i in range(100):
                db.put(b"key%03d" % i, b"value%03d" % i)
        data = bytearray(path.read_bytes())
        data[len(data) // 4] ^= 0x10
        path.write_bytes(bytes(data))
        with HashDB(path) as db:
            intact = dict(db.items())
        assert 0 < len(intact) < 100
        assert path.read_bytes() == bytes(data)
        with HashDB(path) as db:
            db.put(b"after", b"durable")
        with HashDB(path) as db:
            assert dict(db.items()) == {**intact, b"after": b"durable"}

    def test_compaction_preserves_contents(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            for i in range(50):
                db.put(b"key%d" % (i % 5), b"v%d" % i)
            size_before = path.stat().st_size
            db.compact()
            size_after = path.stat().st_size
            assert size_after < size_before
            assert len(db) == 5
            assert db[b"key4"] == b"v49"
        with HashDB(path) as db:
            assert len(db) == 5

    def test_creation_and_compaction_sync_the_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        path = tmp_path / "db"
        with HashDB(path) as db:
            assert synced[-1] is True  # the new log's name
            db.put(b"a", b"1")
            synced.clear()
            db.compact()
            assert synced[-1] is True  # the rename, after the file's data
            assert False in synced

    def test_compacted_log_is_one_commit(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put_all([(b"a", b"1"), (b"b", b"2")])
            db.delete(b"a")
            db.compact()
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            try:
                with HashDB(path) as db:
                    assert dict(db.items()) == {}
            except KVStoreError:
                assert cut < 4  # the magic itself is cut
        path.write_bytes(data)
        with HashDB(path) as db:
            assert dict(db.items()) == {b"b": b"2"}

    def test_writes_after_compaction_survive(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put(b"a", b"1")
            db.compact()
            db.put(b"b", b"2")
        with HashDB(path) as db:
            assert db[b"a"] == b"1" and db[b"b"] == b"2"


class TestBatchCommit:
    def test_bad_pair_writes_nothing(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            size = path.stat().st_size
            with pytest.raises(KVStoreError):
                db.put_all([(b"a", b"1"), ("b", b"2")])  # type: ignore[list-item]
            assert b"a" not in db
            assert path.stat().st_size == size

    def test_one_fsync_per_commit(self, tmp_path, monkeypatch):
        with HashDB(tmp_path / "db") as db:
            calls = []
            monkeypatch.setattr(os, "fsync", calls.append)
            db.put_all([(b"k%d" % i, b"v") for i in range(50)])
            db.close()
        assert len(calls) == 1

    def test_cut_log_replays_as_last_whole_commit(self, tmp_path):
        path = tmp_path / "db"
        commits = []  # (end offset, table after the commit)
        with HashDB(path) as db:
            for ops in ([(b"a", b"1"), (b"b", b"2")], [(b"a", b"3"), (b"c", b"4")]):
                db.put_all(ops)
                commits.append((path.stat().st_size, dict(db.items())))
            db.delete(b"b")
            commits.append((path.stat().st_size, dict(db.items())))
        data = path.read_bytes()
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            if cut < 4:  # the magic itself is cut
                with pytest.raises(KVStoreError):
                    HashDB(path)
                continue
            expected = {}
            for end, table in commits:
                if end <= cut:
                    expected = table
            with HashDB(path) as db:
                assert dict(db.items()) == expected, f"cut at {cut}"


class TestHypothesisRoundTrip:
    def test_random_operation_sequences(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        keys = st.binary(min_size=1, max_size=8)
        ops = st.lists(
            st.tuples(st.sampled_from(["put", "del"]), keys, st.binary(max_size=16)),
            max_size=40,
        )

        @given(ops=ops)
        @settings(max_examples=25, deadline=None)
        def run(ops):
            path = tmp_path / "fuzz.db"
            if path.exists():
                path.unlink()
            shadow = {}
            with HashDB(path, sync=False) as db:
                for op, key, value in ops:
                    if op == "put":
                        db.put(key, value)
                        shadow[key] = value
                    else:
                        db.delete(key)
                        shadow.pop(key, None)
            with HashDB(path, sync=False) as db:
                assert dict(db.items()) == shadow

        run()

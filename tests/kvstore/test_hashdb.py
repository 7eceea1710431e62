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

    def test_writes_after_compaction_survive(self, tmp_path):
        path = tmp_path / "db"
        with HashDB(path) as db:
            db.put(b"a", b"1")
            db.compact()
            db.put(b"b", b"2")
        with HashDB(path) as db:
            assert db[b"a"] == b"1" and db[b"b"] == b"2"


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

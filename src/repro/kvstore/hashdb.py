"""A file-backed hash key-value store (the paper's Berkeley DB role).

The DRT and RST are "implemented as a database file stored in the same
directory as the MPI program", configured as a hash table of key-value
records, with in-memory changes "synchronously written to the storage
in order to survive power failures" (§IV-A).  :class:`HashDB`
reproduces those properties:

* an in-memory hash table for lookups;
* an append-only on-disk log of CRC-checked records, written in
  commits: each commit is its records followed by a commit record, in
  one write, flushed and (when ``sync=True``, the paper's durability
  mode) fsynced once;
* crash recovery by log replay on open: records take effect only at
  their commit record, so a commit cut short or corrupted anywhere
  leaves the table as the previous commit left it;
* a damaged tail left in place until the next append, which first
  truncates the log to the end of its last commit — opening a damaged
  log never changes the file;
* explicit :meth:`compact` to rewrite the log without superseded
  entries;
* in the durability mode, the directory fsynced after the log is
  created or renamed, so a power failure cannot undo either.

:class:`EpochDB` layers staged writes on top: a table whose writes
become durable together at :meth:`EpochDB.commit`, stamped with an
epoch number.

Keys and values are ``bytes``; higher layers (``repro.core.drt`` /
``rst``) define the encodings.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import ItemsView, Iterable, Iterator, Sequence
from io import BufferedWriter
from pathlib import Path

from ..exceptions import KVStoreError

__all__ = ["HashDB", "EpochDB"]

_MAGIC = b"RKV2"
# record: crc32(u32) keylen(u32) vallen(i32) key val, the crc taken
# over every byte after its own four; vallen >= 0 stores a value
_HEADER = struct.Struct("<IIi")
_LENGTHS = struct.Struct("<Ii")
_CRC_SIZE = _HEADER.size - _LENGTHS.size
_TOMBSTONE = -1  # vallen of a delete
_COMMIT = -2  # vallen of a commit record (empty key, no value)


def _record(key: bytes, value: bytes, vallen: int) -> bytes:
    body = key + value
    crc = zlib.crc32(body, zlib.crc32(_LENGTHS.pack(len(key), vallen)))
    return _HEADER.pack(crc, len(key), vallen) + body


_COMMIT_RECORD = _record(b"", b"", _COMMIT)


class HashDB:
    """Persistent hash table; every mutation is a durable commit.

    Usable as a context manager; supports ``db[key]``, ``key in db``,
    ``len(db)`` and iteration over keys.
    """

    def __init__(self, path: str | Path, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self._table: dict[bytes, bytes] = {}
        self._fh: BufferedWriter | None = None
        # end of the last intact commit, and whether bytes follow it
        self._end = 0
        self._damaged_tail = False
        self._open()

    # -- lifecycle -----------------------------------------------------

    def _open(self) -> None:
        if self.path.exists():
            data = self.path.read_bytes()
            self._end = self._replay(data)
            self._damaged_tail = self._end < len(data)
            self._fh = open(self.path, "ab")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
            self._append(_MAGIC)
            self._sync_dir()

    def _replay(self, data: bytes) -> int:
        """Load the table from the log; return the end of its last
        intact commit."""
        if data[: len(_MAGIC)] != _MAGIC:
            raise KVStoreError(f"{self.path}: not a {_MAGIC.decode()} HashDB log")
        table: dict[bytes, bytes] = {}
        staged: list[tuple[bytes, bytes | None]] = []
        pos = committed = len(_MAGIC)
        while pos + _HEADER.size <= len(data):
            crc, keylen, vallen = _HEADER.unpack_from(data, pos)
            start = pos + _HEADER.size
            end = start + keylen + max(vallen, 0)
            if vallen < _COMMIT or end > len(data):
                break  # torn or corrupt: nothing from here on is trusted
            if zlib.crc32(data[pos + _CRC_SIZE : end]) != crc:
                break
            if vallen == _COMMIT:
                for key, value in staged:
                    if value is None:
                        table.pop(key, None)
                    else:
                        table[key] = value
                staged.clear()
                committed = end
            else:
                key = data[start : start + keylen]
                staged.append((key, None if vallen < 0 else data[start + keylen : end]))
            pos = end
        self._table = table
        return committed

    def close(self) -> None:
        """Close the log file; further mutation raises.  Every commit
        is already flushed (and fsynced in the durability mode)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "HashDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- mutation ------------------------------------------------------

    def _append(self, data: bytes) -> None:
        """Write ``data`` at the end of the last commit, in one write,
        then flush and (in the durability mode) fsync once."""
        if self._fh is None:
            raise KVStoreError("HashDB is closed")
        if self._damaged_tail:
            # an append behind a damaged tail would never replay
            self._fh.truncate(self._end)
            self._damaged_tail = False
        self._fh.write(data)
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._end += len(data)

    def _commit(self, ops: Sequence[tuple[bytes, bytes | None]]) -> None:
        """Make ``ops`` (``None`` deletes) durable as one commit, then
        apply them to the table."""
        records = [
            _record(key, b"", _TOMBSTONE)
            if value is None
            else _record(key, value, len(value))
            for key, value in ops
        ]
        records.append(_COMMIT_RECORD)
        self._append(b"".join(records))
        for key, value in ops:
            if value is None:
                self._table.pop(key, None)
            else:
                self._table[key] = value

    def _sync_dir(self) -> None:
        """Make the log's directory entry durable.

        A new log's name and compaction's rename live in the directory;
        until it is fsynced, a power failure can undo them and with them
        every later fsynced commit.
        """
        if not self.sync:
            return
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def put_all(self, pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Insert or overwrite every pair as one commit; durable before
        returning.  If any pair is not ``(bytes, bytes)``, nothing is
        written."""
        checked = list(pairs)
        for key, value in checked:
            if not isinstance(key, bytes) or not isinstance(value, bytes):
                raise KVStoreError("HashDB keys and values must be bytes")
        self._commit(checked)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``; durable before returning."""
        self.put_all([(key, value)])

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        """Fetch ``key`` or ``default``."""
        return self._table.get(key, default)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        if key not in self._table:
            return False
        self._commit([(key, None)])
        return True

    def compact(self) -> None:
        """Rewrite the log as one commit of the live entries (atomic
        rename)."""
        if self._fh is None:
            raise KVStoreError("HashDB is closed")
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "wb") as out:
            out.write(_MAGIC)
            for key, value in self._table.items():
                out.write(_record(key, value, len(value)))
            out.write(_COMMIT_RECORD)
            out.flush()
            os.fsync(out.fileno())
            size = out.tell()
        self._fh.close()
        os.replace(tmp, self.path)
        self._sync_dir()
        self._fh = open(self.path, "ab")
        self._end = size
        self._damaged_tail = False

    # -- mapping protocol ----------------------------------------------

    def __getitem__(self, key: bytes) -> bytes:
        try:
            return self._table[key]
        except KeyError:
            raise KVStoreError(f"key not found: {key!r}") from None

    def __setitem__(self, key: bytes, value: bytes) -> None:
        self.put(key, value)

    def __contains__(self, key: object) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._table)

    def items(self) -> ItemsView[bytes, bytes]:
        """Live ``(key, value)`` pairs."""
        return self._table.items()


#: key of the epoch stamp; DRT and RST keys are never empty
_EPOCH_KEY = b""
_EPOCH = struct.Struct("<Q")


class EpochDB:
    """A :class:`HashDB` table whose writes are staged in memory and
    made durable together, stamped with an epoch number.

    :meth:`stage` queues a record; :meth:`commit` writes every queued
    record plus the epoch stamp as one :meth:`HashDB.put_all` commit.
    :meth:`close` drops whatever was staged and not committed, like an
    aborted transaction.  :attr:`epoch` is the last committed stamp, 0
    when the log holds none.
    """

    def __init__(self, path: str | Path, sync: bool = True) -> None:
        self._db = HashDB(path, sync=sync)
        self._staged: list[tuple[bytes, bytes]] = []
        stamp = self._db.get(_EPOCH_KEY)
        if stamp is not None and len(stamp) != _EPOCH.size:
            self._db.close()
            raise KVStoreError(f"{self._db.path}: malformed epoch stamp {stamp!r}")
        self._epoch = 0 if stamp is None else _EPOCH.unpack(stamp)[0]

    @property
    def epoch(self) -> int:
        """The last committed epoch, 0 when none was committed."""
        return self._epoch

    def records(self) -> Iterator[tuple[bytes, bytes]]:
        """The committed ``(key, value)`` pairs, epoch stamp excluded."""
        return ((k, v) for k, v in self._db.items() if k != _EPOCH_KEY)

    def stage(self, key: bytes, value: bytes) -> None:
        """Queue a record for the next :meth:`commit`."""
        if key == _EPOCH_KEY:
            raise KVStoreError("the empty key holds the epoch stamp")
        self._staged.append((key, value))

    def commit(self, epoch: int) -> None:
        """Write the staged records and the epoch stamp as one durable
        commit."""
        self._db.put_all([*self._staged, (_EPOCH_KEY, _EPOCH.pack(epoch))])
        self._staged.clear()
        self._epoch = epoch

    def close(self) -> None:
        """Drop uncommitted records and close the log."""
        self._staged.clear()
        self._db.close()

"""A file-backed hash key-value store (the paper's Berkeley DB role).

The DRT and RST are "implemented as a database file stored in the same
directory as the MPI program", configured as a hash table of key-value
records, with in-memory changes "synchronously written to the storage
in order to survive power failures" (§IV-A).  :class:`HashDB`
reproduces those properties:

* an in-memory hash table for lookups;
* an append-only on-disk log, flushed + fsynced per mutation when
  ``sync=True`` (the paper's durability mode);
* crash recovery by log replay on open, tolerating a torn final record
  (the torn bytes are cut off before the next append);
* explicit :meth:`compact` to rewrite the log without superseded
  entries;
* in the durability mode, the directory fsynced after the log is
  created or renamed, so a power failure cannot undo either.

Keys and values are ``bytes``; higher layers (``repro.core.drt`` /
``rst``) define the encodings.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from ..exceptions import KVStoreError

__all__ = ["HashDB"]

_MAGIC = b"RKV1"
# record: crc32(u32) keylen(u32) vallen(i32, -1 = tombstone) key val
_HEADER = struct.Struct("<IIi")


class HashDB:
    """Persistent hash table with synchronous write-through.

    Usable as a context manager; supports ``db[key]``, ``key in db``,
    ``len(db)`` and iteration over keys.
    """

    def __init__(self, path: str | Path, sync: bool = True) -> None:
        self.path = Path(path)
        self.sync = sync
        self._table: dict[bytes, bytes] = {}
        self._fh = None
        self._open()

    # -- lifecycle -----------------------------------------------------

    def _open(self) -> None:
        exists = self.path.exists()
        if exists:
            intact = self._replay()
            self._fh = open(self.path, "ab")
            if intact < self.path.stat().st_size:
                # replay stops at a torn or corrupt record, so an append
                # behind it would be lost at the next open
                self._fh.truncate(intact)
                self._flush()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")
            self._fh.write(_MAGIC)
            self._flush()
            self._sync_dir()

    def _replay(self) -> int:
        """Load the table from the log; return the end of its last
        intact record."""
        data = self.path.read_bytes()
        if len(data) < len(_MAGIC) or data[: len(_MAGIC)] != _MAGIC:
            raise KVStoreError(f"{self.path}: not a HashDB file")
        pos = len(_MAGIC)
        table: dict[bytes, bytes] = {}
        while pos < len(data):
            if pos + _HEADER.size > len(data):
                break  # torn trailing record: drop it
            crc, keylen, vallen = _HEADER.unpack_from(data, pos)
            body_len = keylen + max(vallen, 0)
            end = pos + _HEADER.size + body_len
            if end > len(data):
                break  # torn record body
            body = data[pos + _HEADER.size : end]
            if zlib.crc32(body) != crc:
                break  # corrupt tail; everything before it is intact
            key = body[:keylen]
            if vallen < 0:
                table.pop(key, None)
            else:
                table[key] = body[keylen:]
            pos = end
        self._table = table
        return pos

    def close(self) -> None:
        """Flush and close the log file; further mutation raises."""
        if self._fh is not None:
            self._flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "HashDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- mutation ------------------------------------------------------

    def _append(self, key: bytes, value: bytes | None) -> None:
        if self._fh is None:
            raise KVStoreError("HashDB is closed")
        if value is None:
            body = key
            header = _HEADER.pack(zlib.crc32(body), len(key), -1)
        else:
            body = key + value
            header = _HEADER.pack(zlib.crc32(body), len(key), len(value))
        self._fh.write(header)
        self._fh.write(body)
        self._flush()

    def _flush(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())

    def _sync_dir(self) -> None:
        """Make the log's directory entry durable.

        A new log's name and compaction's rename live in the directory;
        until it is fsynced, a power failure can undo them and with them
        every later fsynced append.
        """
        if not self.sync:
            return
        fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``; durable before returning."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise KVStoreError("HashDB keys and values must be bytes")
        self._append(key, value)
        self._table[key] = value

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        """Fetch ``key`` or ``default``."""
        return self._table.get(key, default)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        if key not in self._table:
            return False
        self._append(key, None)
        del self._table[key]
        return True

    def compact(self) -> None:
        """Rewrite the log keeping only live entries (atomic rename)."""
        if self._fh is None:
            raise KVStoreError("HashDB is closed")
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "wb") as out:
            out.write(_MAGIC)
            for key, value in self._table.items():
                body = key + value
                out.write(_HEADER.pack(zlib.crc32(body), len(key), len(value)))
                out.write(body)
            out.flush()
            os.fsync(out.fileno())
        self._fh.close()
        os.replace(tmp, self.path)
        self._sync_dir()
        self._fh = open(self.path, "ab")

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

    def items(self):
        """Live ``(key, value)`` pairs."""
        return self._table.items()

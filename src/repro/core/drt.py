"""The Data Reordering Table (DRT).

§III-E: "Each entry in DRT includes five important variables. O_file
and O_offset are the file name and the offset of the data in the
original file, R_file and R_offset are the file name and the offset of
the data in the reordered region.  Length is the size of the data."

Each original file's entries are one table of offset-sorted columns
(entry starts and ends, region offsets, region-file codes) over a
per-file name table.  The table supports the access paths the paper
needs:

* the **Redirector**'s hot path — translate an original-file extent
  into region extents (range lookup, served from memory with an LRU
  list of hot entries, §IV-A).  Per-record lookups and inserts bisect
  and insert into the columns as Python int lists, several times
  cheaper per call than NumPy's ``searchsorted`` and ``np.insert``;
* batch translation and bulk insert — the planner's bulk insert
  (:meth:`DRT.add_all`), a reload and the batch lookups
  (:meth:`DRT.translate_many`) work on a NumPy copy of the columns,
  rebuilt lazily after a per-record insert;
* **durability** — a file-backed table stages its changes and makes
  them durable at :meth:`DRT.commit`, in one fsynced
  :class:`~repro.kvstore.hashdb.HashDB` commit stamped with the plan
  epoch, so a committed mapping survives power failures (§IV-A) and
  can be reloaded on the application's next run, while a half-written
  one cannot.

Entry encoding matches the paper's §V-E2 sizing: the numeric payload of
an entry (O_offset, Length, R_offset) packs into exactly ``6 * 4`` = 24
bytes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..contracts import twin_of
from ..exceptions import KVStoreError, RedirectionError
from ..kvstore import EpochDB, LRUCache
from ..numerics import unique_values
from .intervals import cut_extents

__all__ = [
    "DRTEntry",
    "TranslatedExtent",
    "TranslatedColumns",
    "DRT",
    "ENTRY_NUMERIC_BYTES",
    "UNMAPPED",
]

#: bytes of numeric payload per entry — the paper's "6 * 4 B" (§V-E2)
ENTRY_NUMERIC_BYTES = 24

_U8 = np.dtype("<u8")
_KEY_SIZE = _U8.itemsize
_VALUE_SIZE = 2 * _U8.itemsize

#: file code of a translated piece no entry maps: it stays in the
#: original file (:class:`TranslatedColumns`)
UNMAPPED = -1

_NO_ENTRIES = np.empty(0, dtype=np.int64)

#: a hot entry on the LRU list: (start, end, region file, region offset)
_Hot = tuple[int, int, str, int]
#: one file's entries as :meth:`DRT.add_all` takes them
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Sequence[str]]


@dataclass(frozen=True, order=True)
class DRTEntry:
    """One reordering record: original extent -> region extent."""

    o_file: str
    o_offset: int
    length: int
    r_file: str
    r_offset: int

    def __post_init__(self) -> None:
        if self.o_offset < 0 or self.r_offset < 0:
            raise RedirectionError("DRT offsets must be non-negative")
        if self.length <= 0:
            raise RedirectionError(f"DRT length must be > 0, got {self.length}")

    @property
    def o_end(self) -> int:
        return self.o_offset + self.length


@dataclass(frozen=True)
class TranslatedExtent:
    """One fragment of a translated request.

    ``file``/``offset`` give the *current* location: the region file
    when ``mapped`` is True, or the original file when the extent was
    never reordered (``mapped`` False) and the request falls through to
    the original layout.
    """

    file: str
    offset: int
    length: int
    logical_offset: int
    mapped: bool


@dataclass(frozen=True, eq=False)
class TranslatedColumns:
    """A batch's translation as piece columns (:meth:`DRT.translate_many`).

    Request ``k``'s pieces are ``[starts[k], starts[k+1])``, in
    ascending logical order; they tile the request exactly as
    :meth:`DRT.translate`'s fragments do, and a zero-length request has
    none.  A piece's ``files`` code indexes ``names`` (the region file
    holding it) or is :data:`UNMAPPED` when the piece stays in the
    original file ``o_file``, at its logical offset.
    """

    o_file: str
    names: tuple[str, ...]
    starts: np.ndarray
    files: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    logicals: np.ndarray

    def extents(self, k: int) -> list[TranslatedExtent]:
        """Request ``k``'s pieces as the fragments
        :meth:`DRT.translate` returns for it."""
        lo, hi = int(self.starts[k]), int(self.starts[k + 1])
        return [
            TranslatedExtent(
                file=self.o_file if code == UNMAPPED else self.names[code],
                offset=offset,
                length=length,
                logical_offset=logical,
                mapped=code != UNMAPPED,
            )
            for code, offset, length, logical in zip(
                self.files[lo:hi].tolist(),
                self.offsets[lo:hi].tolist(),
                self.lengths[lo:hi].tolist(),
                self.logicals[lo:hi].tolist(),
            )
        ]


@dataclass(frozen=True)
class _FileColumns:
    """One original file's entries as sorted columns: starts, ends,
    region offsets and region-file codes (indexes into ``names``)."""

    starts: np.ndarray
    ends: np.ndarray
    r_offsets: np.ndarray
    codes: np.ndarray
    names: tuple[str, ...]


_NO_COLUMNS = _FileColumns(_NO_ENTRIES, _NO_ENTRIES, _NO_ENTRIES, _NO_ENTRIES, ())


class _Table:
    """One original file's entries: the columns as int lists over the
    name table ``names``, and ``index``, their NumPy copy, or ``None``
    until a batch lookup needs it after a per-record insert."""

    __slots__ = ("starts", "ends", "r_offsets", "codes", "names", "index")

    def __init__(self, index: _FileColumns) -> None:
        self.index: _FileColumns | None = index
        self.starts: list[int] = index.starts.tolist()
        self.ends: list[int] = index.ends.tolist()
        self.r_offsets: list[int] = index.r_offsets.tolist()
        self.codes: list[int] = index.codes.tolist()
        self.names: list[str] = list(index.names)

    def columns(self) -> _FileColumns:
        if self.index is None:
            lists = self.starts, self.ends, self.r_offsets, self.codes
            arrays = (np.array(c, dtype=np.int64) for c in lists)
            self.index = _FileColumns(*arrays, tuple(self.names))
        return self.index


def _records(o_file: str, columns: _Columns) -> list[tuple[bytes, bytes]]:
    """The log records of one file's entries, in the given order.

    A record's key is the entry's original offset (``<u8``), then the
    original file's name; its value the length and the region offset,
    then the region file's name.  The offset goes first: the packed
    integer routinely contains NUL bytes, so no separator could safely
    delimit a name placed before it.
    """
    starts, lengths, r_offsets, codes, names = columns
    keys = starts.astype(_U8).tobytes()
    values = np.column_stack((lengths, r_offsets)).astype(_U8).tobytes()
    o_name = o_file.encode()
    r_names = [name.encode() for name in names]
    return [
        (
            keys[_KEY_SIZE * i : _KEY_SIZE * (i + 1)] + o_name,
            values[_VALUE_SIZE * i : _VALUE_SIZE * (i + 1)] + r_names[code],
        )
        for i, code in enumerate(codes.tolist())
    ]


def _record_columns(
    records: Sequence[tuple[bytes, bytes]],
) -> Iterator[tuple[str, _Columns]]:
    """Committed records as :meth:`DRT.add_all`'s columns, one
    original file at a time.

    The fixed-width prefixes decode through NumPy ``<u8`` in one pass
    and each distinct name once.  Raises :class:`KVStoreError` for a
    record too short to decode or a name that is not UTF-8; a number of
    2**63 or more comes out negative, for ``add_all`` to reject.
    """
    keys, values = [key for key, _ in records], [value for _, value in records]
    n = len(keys)
    short = np.minimum(
        np.fromiter(map(len, keys), np.int64, n) - _KEY_SIZE,
        np.fromiter(map(len, values), np.int64, n) - _VALUE_SIZE,
    )
    if n and short.min() < 0:
        raise KVStoreError(f"DRT record {keys[int(short.argmin())]!r} is too short")
    o_raw = [key[_KEY_SIZE:] for key in keys]
    r_raw = [value[_VALUE_SIZE:] for value in values]
    o_codes = {raw: code for code, raw in enumerate(dict.fromkeys(o_raw))}
    r_codes = {raw: code for code, raw in enumerate(dict.fromkeys(r_raw))}
    try:
        o_names = [raw.decode() for raw in o_codes]
        r_names = [raw.decode() for raw in r_codes]
    except UnicodeDecodeError as exc:
        raise KVStoreError(f"undecodable DRT name {exc.object!r}: {exc}") from exc
    starts = np.frombuffer(b"".join([key[:_KEY_SIZE] for key in keys]), _U8)
    numbers = np.frombuffer(b"".join([v[:_VALUE_SIZE] for v in values]), _U8)
    numbers = numbers.reshape(n, 2).astype(np.int64)
    o_code = np.fromiter(map(o_codes.__getitem__, o_raw), np.int64, n)
    r_code = np.fromiter(map(r_codes.__getitem__, r_raw), np.int64, n)
    for code, o_file in enumerate(o_names):
        rows = np.flatnonzero(o_code == code)
        columns = numbers[rows, 0], numbers[rows, 1], r_code[rows], r_names
        yield o_file, (starts[rows].astype(np.int64), *columns)


class DRT:
    """In-memory interval table with optional durable persistence."""

    def __init__(
        self,
        path: str | Path | None = None,
        cache_capacity: int = 4096,
        sync: bool = True,
    ) -> None:
        self._tables: dict[str, _Table] = {}
        self._count = 0
        self._cache: LRUCache[tuple[str, int], _Hot] = LRUCache(cache_capacity)
        # per original file: o_offset of the most recently served entry —
        # the probe key into the hot-entry list (§IV-A)
        self._hot: dict[str, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._db: EpochDB | None = None
        if path is not None:
            db = EpochDB(path, sync=sync)
            try:
                # filled before the log is attached, so nothing is staged
                for o_file, columns in _record_columns(list(db.records())):
                    self.add_all(o_file, *columns)
            except RedirectionError as exc:  # bad numbers or overlapping entries
                db.close()
                raise KVStoreError(f"{path}: {exc}") from exc
            except BaseException:
                db.close()
                raise
            self._db = db

    # -- mutation -------------------------------------------------------

    def add(self, entry: DRTEntry) -> None:
        """Insert an entry; staged for :meth:`commit` when backed by a
        file."""
        table = self._tables.get(entry.o_file)
        if table is None:
            table = self._tables[entry.o_file] = _Table(_NO_COLUMNS)
        at = bisect_right(table.starts, entry.o_offset)
        if (at and table.ends[at - 1] > entry.o_offset) or (
            at < len(table.starts) and entry.o_end > table.starts[at]
        ):
            raise RedirectionError(
                f"DRT entries overlap at {entry.o_file}:{entry.o_offset}"
            )
        if entry.r_file not in table.names:
            table.names.append(entry.r_file)
        table.starts.insert(at, entry.o_offset)
        table.ends.insert(at, entry.o_end)
        table.r_offsets.insert(at, entry.r_offset)
        table.codes.insert(at, table.names.index(entry.r_file))
        table.index = None
        self._count += 1
        if self._db is not None:
            one = np.array([entry.o_offset, entry.length, entry.r_offset, 0])
            row = one[:1], one[1:2], one[2:3], one[3:], [entry.r_file]
            self._db.stage(*_records(entry.o_file, row)[0])

    def add_all(
        self,
        o_file: str,
        o_offsets: np.ndarray,
        lengths: np.ndarray,
        r_offsets: np.ndarray,
        r_codes: np.ndarray,
        r_names: Sequence[str],
    ) -> None:
        """:meth:`add` for a batch of one original file's entries, as
        columns: entry ``i`` maps ``lengths[i]`` bytes at
        ``o_offsets[i]`` to ``r_offsets[i]`` of ``r_names[r_codes[i]]``.

        All or none: raises :class:`RedirectionError` and inserts
        nothing when an entry is invalid or overlaps another.  The
        merge, sort and overlap check run in NumPy; the batch is staged
        for :meth:`commit` in the given order.
        """
        given = o_offsets, lengths, r_offsets, r_codes
        starts, length, moved, codes = (np.asarray(c, dtype=np.int64) for c in given)
        if not starts.size:
            return
        ends = starts + length  # an end past 2**63 wraps negative
        if min(int(starts.min()), int(moved.min()), int(ends.min())) < 0:
            raise RedirectionError("DRT offsets must be non-negative")
        if int(length.min()) <= 0:
            raise RedirectionError(f"DRT length must be > 0, got {int(length.min())}")
        table = self._tables.get(o_file)
        old = _NO_COLUMNS if table is None else table.columns()
        # the region files the batch uses, as codes into the file's names
        names = list(old.names)
        recode = np.zeros(len(r_names), dtype=np.int64)
        for code in unique_values(codes).tolist():
            if r_names[code] not in names:
                names.append(r_names[code])
            recode[code] = names.index(r_names[code])
        olds = old.starts, old.ends, old.r_offsets, old.codes
        news = starts, ends, moved, recode[codes]
        merged = [np.concatenate(pair) for pair in zip(olds, news)]
        order = np.argsort(merged[0], kind="stable")
        columns = _FileColumns(*(column[order] for column in merged), tuple(names))
        clash = np.flatnonzero(columns.ends[:-1] > columns.starts[1:])
        if clash.size:
            at = columns.starts[clash[0] + 1]
            raise RedirectionError(f"DRT entries overlap at {o_file}:{at}")
        self._tables[o_file] = _Table(columns)
        self._count += starts.size
        if self._db is not None:
            batch = starts, length, moved, codes, r_names
            for key, value in _records(o_file, batch):
                self._db.stage(key, value)

    def commit(self, epoch: int) -> None:
        """Make every staged entry durable in one commit stamped with
        ``epoch``; an in-memory table writes nothing."""
        if self._db is not None:
            self._db.commit(epoch)

    @property
    def epoch(self) -> int:
        """The epoch last committed to the backing file, 0 when none
        was (or the table is in memory or closed)."""
        return 0 if self._db is None else self._db.epoch

    # -- lookup ---------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[DRTEntry]:
        for file in sorted(self._tables):
            yield from self.entries_for(file)

    def entries_for(self, o_file: str) -> list[DRTEntry]:
        """All entries of one original file, offset-sorted."""
        table = self._tables.get(o_file) or _Table(_NO_COLUMNS)
        columns = table.starts, table.ends, table.r_offsets, table.codes
        return [
            DRTEntry(o_file, start, end - start, table.names[code], r_offset)
            for start, end, r_offset, code in zip(*columns)
        ]

    def columns_for(self, o_file: str) -> _Columns:
        """All entries of one original file, offset-sorted, as
        :meth:`add_all`'s columns ``(o_offsets, lengths, r_offsets,
        r_codes, r_names)``: read-only, as the table's own arrays are
        among them."""
        table = self._tables.get(o_file)
        c = _NO_COLUMNS if table is None else table.columns()
        return c.starts, c.ends - c.starts, c.r_offsets, c.codes, c.names

    def files(self) -> list[str]:
        """The original files the table maps, sorted."""
        return sorted(self._tables)

    def _probe(self, o_file: str, offset: int) -> _Hot | None:
        """A hot entry covering ``offset``, if the LRU list has one.

        Two O(1) chances before the bisect walk: the file's most
        recently served entry (repeated/sequential lookups inside one
        entry), then the LRU list keyed by exact entry start (a lookup
        revisiting an entry served earlier — e.g. re-reading data —
        starts exactly where the entry does in the common aligned
        case).  Entries are never removed from the table, so a cached
        entry can never be stale; a successful probe short-circuits
        the walk entirely.
        """
        key = self._hot.get(o_file)
        if key is not None:
            hot = self._cache.get((o_file, key))
            if hot is not None and hot[0] <= offset < hot[1]:
                return hot
        hot = self._cache.get((o_file, offset))
        if hot is not None and offset < hot[1]:
            self._hot[o_file] = offset
            return hot
        return None

    def _remember(self, o_file: str, table: _Table, i: int) -> _Hot:
        start = table.starts[i]
        hot = (start, table.ends[i], table.names[table.codes[i]], table.r_offsets[i])
        self._cache.put((o_file, start), hot)
        self._hot[o_file] = start
        return hot

    def overlaps(self, o_file: str, offset: int, length: int) -> int:
        """How many entries map a byte of ``[offset, offset+length)``.

        Entries never overlap one another, so those overlapping the
        extent are the ones starting after ``offset`` and before its
        end, plus the last one starting at or before ``offset`` when it
        reaches past ``offset``: two bisects over the file's sorted
        entry starts.  Unlike :meth:`translate` it leaves the hot-entry
        list and its hit/miss counters untouched.
        """
        table = self._tables.get(o_file)
        if table is None or length <= 0:
            return 0
        hi = bisect_left(table.starts, offset + length)
        lo = bisect_right(table.starts, offset, 0, hi)
        if lo and table.ends[lo - 1] > offset:
            lo -= 1
        return hi - lo

    def entry_at(self, o_file: str, offset: int) -> DRTEntry | None:
        """The entry covering byte ``offset`` of ``o_file``, if any.

        Served through the hot-entry LRU list (§IV-A): a probe of the
        file's most recently served entry answers repeated/sequential
        lookups without touching the sorted table.
        """
        hot = self._probe(o_file, offset)
        if hot is not None:
            self._cache_hits += 1
        else:
            self._cache_misses += 1
            table = self._tables.get(o_file) or _Table(_NO_COLUMNS)
            i = bisect_right(table.starts, offset) - 1
            if i < 0 or offset >= table.ends[i]:
                return None
            hot = self._remember(o_file, table, i)
        start, end, r_file, r_offset = hot
        return DRTEntry(o_file, start, end - start, r_file, r_offset)

    def translate(self, o_file: str, offset: int, length: int) -> list[TranslatedExtent]:
        """Split ``[offset, offset+length)`` of the original file into
        current locations (region extents and unmapped fall-throughs).

        Fragments are returned in ascending ``logical_offset`` order and
        tile the request exactly.  Requests fully inside the file's hot
        entry are answered from the cache probe without a bisect; the
        others walk the file's entries from the last one starting at or
        before ``offset``, and the last entry served becomes hot.
        """
        if offset < 0 or length < 0:
            raise RedirectionError("offset and length must be non-negative")
        if length == 0:
            return []
        end = offset + length
        hot = self._probe(o_file, offset)
        if hot is not None and end <= hot[1]:
            self._cache_hits += 1
            start, _, r_file, r_offset = hot
            moved = r_offset + (offset - start)
            return [TranslatedExtent(r_file, moved, length, offset, True)]
        self._cache_misses += 1
        table = self._tables.get(o_file) or _Table(_NO_COLUMNS)
        result: list[TranslatedExtent] = []
        starts, ends = table.starts, table.ends
        i = max(bisect_right(starts, offset) - 1, 0)
        served = -1
        cursor = offset
        while cursor < end:
            if i < len(starts) and ends[i] <= cursor:
                i += 1
                continue
            if i >= len(starts) or starts[i] >= end:
                # no further mapping: the rest stays in the original file
                take = end - cursor
                result.append(TranslatedExtent(o_file, cursor, take, cursor, False))
                break
            if cursor < starts[i]:
                take = starts[i] - cursor
                result.append(TranslatedExtent(o_file, cursor, take, cursor, False))
                cursor += take
            take = min(ends[i], end) - cursor
            moved = table.r_offsets[i] + (cursor - starts[i])
            name = table.names[table.codes[i]]
            result.append(TranslatedExtent(name, moved, take, cursor, True))
            served = i
            cursor += take
            i += 1
        if served >= 0:
            self._remember(o_file, table, served)
        return result

    @twin_of(
        "repro.core.drt:DRT.translate",
        kind="reduction",
        param_map={"offset": "offsets", "length": "lengths"},
        harness="drt_translate",
    )
    def translate_many(
        self, o_file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> TranslatedColumns:
        """Batch :meth:`translate` over parallel offset/length arrays,
        as piece columns.

        Request ``k``'s pieces equal ``translate(o_file, offsets[k],
        lengths[k])``'s fragments.  The file's column index is cut at
        every request with :func:`~repro.core.intervals.cut_extents`
        (two ``searchsorted`` calls and a NumPy piece expansion).  The
        hot-entry list and its hit/miss counters belong to the
        per-record path (§IV-A) and are left untouched.
        """
        off = np.asarray(offsets, dtype=np.int64).reshape(-1)
        lng = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if off.shape != lng.shape:
            raise RedirectionError(
                f"offsets ({off.size}) and lengths ({lng.size}) must match"
            )
        if off.size and (int(off.min()) < 0 or int(lng.min()) < 0):
            raise RedirectionError("offset and length must be non-negative")
        table = self._tables.get(o_file)
        if table is None:
            extent, _, begin, end = cut_extents(_NO_ENTRIES, _NO_ENTRIES, off, off + lng)
            names: tuple[str, ...] = ()
            files = np.full(extent.size, UNMAPPED, dtype=np.int64)
            moved = begin
        else:
            columns = table.columns()
            extent, entry, begin, end = cut_extents(
                columns.starts, columns.ends, off, off + lng
            )
            names = columns.names
            # entry -1 (unmapped) indexes the last entry; np.where
            # discards it
            mapped = entry >= 0
            files = np.where(mapped, columns.codes[entry], UNMAPPED)
            moved = np.where(
                mapped,
                columns.r_offsets[entry] + (begin - columns.starts[entry]),
                begin,
            )
        starts = np.zeros(off.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(extent, minlength=off.size), out=starts[1:])
        return TranslatedColumns(
            o_file=o_file,
            names=names,
            starts=starts,
            files=files,
            offsets=moved,
            lengths=end - begin,
            logicals=begin,
        )

    def packed_regions(self) -> set[str]:
        """The region files the entries target, once each is checked to
        be packed: its targets tile ``[0, end)``, with no hole and no
        byte written twice.

        Reads every original file's column index, the one
        :meth:`translate_many` and the replay's premap search, so the
        check leaves those built.  Raises :class:`KVStoreError` naming
        the first region that is not packed.
        """
        names: dict[str, int] = {}
        codes, starts, lengths = [], [], []
        for table in self._tables.values():
            columns = table.columns()
            recode = np.array(
                [names.setdefault(name, len(names)) for name in columns.names],
                dtype=np.int64,
            )
            codes.append(recode[columns.codes])
            starts.append(columns.r_offsets)
            lengths.append(columns.ends - columns.starts)
        if not names:
            return set()
        code = np.concatenate(codes)
        start = np.concatenate(starts)
        order = np.lexsort((start, code))
        code, start = code[order], start[order]
        end = start + np.concatenate(lengths)[order]
        # a region's first target starts at 0, every other one where
        # the region's previous target ends
        expected = np.zeros_like(start)
        expected[1:] = np.where(code[1:] == code[:-1], end[:-1], 0)
        bad = np.flatnonzero(start != expected)
        if bad.size:
            i = int(bad[0])
            region = list(names)[int(code[i])]
            at, want = int(start[i]), int(expected[i])
            problem = f"a hole at {want}" if at > want else f"bytes written twice at {at}"
            raise KVStoreError(f"DRT targets of region {region!r} leave {problem}")
        return set(names)

    # -- stats / persistence ---------------------------------------------

    @property
    def cache(self) -> LRUCache[tuple[str, int], _Hot]:
        """The hot-entry list (for statistics)."""
        return self._cache

    @property
    def cache_hits(self) -> int:
        """Lookups fully served by the hot-entry probe."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Lookups that fell through to the sorted-table walk."""
        return self._cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Hot-probe hits / lookups, 0.0 before any lookup (Fig. 14)."""
        total = self._cache_hits + self._cache_misses
        return self._cache_hits / total if total else 0.0

    def numeric_bytes(self) -> int:
        """Total numeric payload, i.e. ``len(self) * 24`` bytes (§V-E2)."""
        return self._count * ENTRY_NUMERIC_BYTES

    def close(self) -> None:
        """Close the backing store, if any, dropping uncommitted
        entries from it; the table stays usable in memory."""
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self) -> "DRT":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

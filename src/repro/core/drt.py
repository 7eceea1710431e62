"""The Data Reordering Table (DRT).

§III-E: "Each entry in DRT includes five important variables. O_file
and O_offset are the file name and the offset of the data in the
original file, R_file and R_offset are the file name and the offset of
the data in the reordered region.  Length is the size of the data."

The table supports the access paths the paper needs:

* the **Redirector**'s hot path — translate an original-file extent
  into region extents (range lookup, served from memory with an LRU
  list of hot entries, §IV-A);
* batch translation for the off-line planner and the flat replay's
  premap — a whole batch of extents at once, through a sorted column
  index per original file (:meth:`DRT.translate_many`);
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

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..contracts import twin_of
from ..exceptions import KVStoreError, RedirectionError
from ..kvstore import EpochDB, LRUCache
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

_VALUE = struct.Struct("<QQ")  # length, r_offset  (r_file appended as text)
_KEY = struct.Struct("<Q")  # o_offset (o_file prepended as text)

#: file code of a translated piece no entry maps: it stays in the
#: original file (:class:`TranslatedColumns`)
UNMAPPED = -1

_O_OFFSET = attrgetter("o_offset")
_NO_ENTRIES = np.empty(0, dtype=np.int64)


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


class DRT:
    """In-memory interval table with optional durable persistence."""

    def __init__(
        self,
        path: str | Path | None = None,
        cache_capacity: int = 4096,
        sync: bool = True,
    ) -> None:
        # per original file: parallel sorted lists of entry starts & entries
        self._starts: dict[str, list[int]] = {}
        self._entries: dict[str, list[DRTEntry]] = {}
        # per original file: the column index batch lookups search,
        # dropped whenever the file's entries change
        self._columns: dict[str, _FileColumns] = {}
        self._count = 0
        self._cache: LRUCache[tuple[str, int], DRTEntry] = LRUCache(cache_capacity)
        # per original file: o_offset of the most recently served entry —
        # the probe key into the hot-entry list (§IV-A)
        self._hot: dict[str, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._db: EpochDB | None = None
        if path is not None:
            self._db = EpochDB(path, sync=sync)
            try:
                self._merge([self._decode(k, v) for k, v in self._db.records()])
            except RedirectionError as exc:  # committed entries overlap
                self._db.close()
                raise KVStoreError(f"{path}: {exc}") from exc
            except BaseException:
                self._db.close()
                raise

    # -- encoding -------------------------------------------------------

    @staticmethod
    def _encode_key(entry: DRTEntry) -> bytes:
        # fixed-width offset first, then the file name: the packed
        # integer routinely contains NUL bytes, so no separator could
        # safely delimit a name placed before it
        return _KEY.pack(entry.o_offset) + entry.o_file.encode()

    @staticmethod
    def _encode_value(entry: DRTEntry) -> bytes:
        return _VALUE.pack(entry.length, entry.r_offset) + entry.r_file.encode()

    @staticmethod
    def _decode(key: bytes, value: bytes) -> DRTEntry:
        if len(key) < _KEY.size or len(value) < _VALUE.size:
            raise KVStoreError(f"DRT record {key!r} is too short")
        (o_offset,) = _KEY.unpack(key[: _KEY.size])
        length, r_offset = _VALUE.unpack(value[: _VALUE.size])
        try:
            return DRTEntry(
                o_file=key[_KEY.size :].decode(),
                o_offset=o_offset,
                length=length,
                r_file=value[_VALUE.size :].decode(),
                r_offset=r_offset,
            )
        except (UnicodeDecodeError, RedirectionError) as exc:
            raise KVStoreError(f"undecodable DRT record {key!r}: {exc}") from exc

    # -- mutation -------------------------------------------------------

    def _insert(self, entry: DRTEntry) -> None:
        starts = self._starts.setdefault(entry.o_file, [])
        entries = self._entries.setdefault(entry.o_file, [])
        idx = bisect_right(starts, entry.o_offset)
        if idx > 0 and entries[idx - 1].o_end > entry.o_offset:
            raise RedirectionError(
                f"DRT entries overlap at {entry.o_file}:{entry.o_offset}"
            )
        if idx < len(entries) and entry.o_end > entries[idx].o_offset:
            raise RedirectionError(
                f"DRT entries overlap at {entry.o_file}:{entry.o_offset}"
            )
        starts.insert(idx, entry.o_offset)
        entries.insert(idx, entry)
        self._columns.pop(entry.o_file, None)
        self._count += 1

    def _merge(self, entries: Sequence[DRTEntry]) -> None:
        """Insert ``entries``, all or none: each file's table is sorted
        once with its new entries and checked for overlaps once."""
        by_file: dict[str, list[DRTEntry]] = {}
        for entry in entries:
            by_file.setdefault(entry.o_file, []).append(entry)
        tables: dict[str, list[DRTEntry]] = {}
        for o_file, new in by_file.items():
            table = sorted([*self._entries.get(o_file, ()), *new], key=_O_OFFSET)
            for prev, entry in zip(table, table[1:]):
                if prev.o_end > entry.o_offset:
                    raise RedirectionError(
                        f"DRT entries overlap at {o_file}:{entry.o_offset}"
                    )
            tables[o_file] = table
        for o_file, table in tables.items():
            self._entries[o_file] = table
            self._starts[o_file] = [e.o_offset for e in table]
            self._columns.pop(o_file, None)
        self._count += len(entries)

    def add(self, entry: DRTEntry) -> None:
        """Insert an entry; staged for :meth:`commit` when backed by a
        file."""
        self._insert(entry)
        if self._db is not None:
            self._db.stage(self._encode_key(entry), self._encode_value(entry))

    def add_all(self, entries: Sequence[DRTEntry]) -> None:
        """:meth:`add` for a batch, all or none: raises
        :class:`RedirectionError` and inserts nothing when an entry
        overlaps another; staged for :meth:`commit` in the given
        order."""
        self._merge(entries)
        if self._db is not None:
            for entry in entries:
                self._db.stage(self._encode_key(entry), self._encode_value(entry))

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
        for file in sorted(self._entries):
            yield from self._entries[file]

    def entries_for(self, o_file: str) -> list[DRTEntry]:
        """All entries of one original file, offset-sorted."""
        return list(self._entries.get(o_file, ()))

    def files(self) -> list[str]:
        """The original files the table maps, sorted."""
        return sorted(f for f, entries in self._entries.items() if entries)

    def _probe(self, o_file: str, offset: int) -> DRTEntry | None:
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
            entry = self._cache.get((o_file, key))
            if entry is not None and entry.o_offset <= offset < entry.o_end:
                return entry
        entry = self._cache.get((o_file, offset))
        if entry is not None and offset < entry.o_end:
            self._hot[o_file] = offset
            return entry
        return None

    def _remember(self, o_file: str, entry: DRTEntry) -> None:
        self._cache.put((o_file, entry.o_offset), entry)
        self._hot[o_file] = entry.o_offset

    def overlaps(self, o_file: str, offset: int, length: int) -> int:
        """How many entries map a byte of ``[offset, offset+length)``.

        Entries never overlap one another, so those overlapping the
        extent are the ones starting after ``offset`` and before its
        end, plus the last one starting at or before ``offset`` when it
        reaches past ``offset``: two bisects over the file's sorted
        entry starts.  Unlike :meth:`translate` it leaves the hot-entry
        list and its hit/miss counters untouched.
        """
        starts = self._starts.get(o_file)
        if not starts or length <= 0:
            return 0
        hi = bisect_left(starts, offset + length)
        lo = bisect_right(starts, offset, 0, hi)
        if lo and self._entries[o_file][lo - 1].o_end > offset:
            lo -= 1
        return hi - lo

    def entry_at(self, o_file: str, offset: int) -> DRTEntry | None:
        """The entry covering byte ``offset`` of ``o_file``, if any.

        Served through the hot-entry LRU list (§IV-A): a probe of the
        file's most recently served entry answers repeated/sequential
        lookups without touching the sorted table.
        """
        entry = self._probe(o_file, offset)
        if entry is not None:
            self._cache_hits += 1
            return entry
        self._cache_misses += 1
        starts = self._starts.get(o_file)
        if not starts:
            return None
        idx = bisect_right(starts, offset) - 1
        if idx < 0:
            return None
        entry = self._entries[o_file][idx]
        if offset < entry.o_end:
            self._remember(o_file, entry)
            return entry
        return None

    def _translate_walk(
        self, o_file: str, offset: int, end: int, idx: int
    ) -> list[TranslatedExtent]:
        """The slow translation path: walk entries from sorted index
        ``idx`` (pre-clamped to >= 0); caches the last entry served."""
        result: list[TranslatedExtent] = []
        entries = self._entries.get(o_file, [])
        served: DRTEntry | None = None
        cursor = offset
        while cursor < end:
            entry = entries[idx] if idx < len(entries) else None
            if entry is not None and entry.o_end <= cursor:
                idx += 1
                continue
            if entry is None or entry.o_offset >= end:
                # no further mapping: the rest stays in the original file
                result.append(
                    TranslatedExtent(
                        file=o_file,
                        offset=cursor,
                        length=end - cursor,
                        logical_offset=cursor,
                        mapped=False,
                    )
                )
                break
            if cursor < entry.o_offset:
                take = entry.o_offset - cursor
                result.append(
                    TranslatedExtent(
                        file=o_file,
                        offset=cursor,
                        length=take,
                        logical_offset=cursor,
                        mapped=False,
                    )
                )
                cursor += take
            take = min(entry.o_end, end) - cursor
            result.append(
                TranslatedExtent(
                    file=entry.r_file,
                    offset=entry.r_offset + (cursor - entry.o_offset),
                    length=take,
                    logical_offset=cursor,
                    mapped=True,
                )
            )
            served = entry
            cursor += take
            idx += 1
        if served is not None:
            self._remember(o_file, served)
        return result

    def translate(self, o_file: str, offset: int, length: int) -> list[TranslatedExtent]:
        """Split ``[offset, offset+length)`` of the original file into
        current locations (region extents and unmapped fall-throughs).

        Fragments are returned in ascending ``logical_offset`` order and
        tile the request exactly.  Requests fully inside the file's hot
        entry are answered from the cache probe without a bisect.
        """
        if offset < 0 or length < 0:
            raise RedirectionError("offset and length must be non-negative")
        if length == 0:
            return []
        end = offset + length
        entry = self._probe(o_file, offset)
        if entry is not None and end <= entry.o_end:
            self._cache_hits += 1
            return [
                TranslatedExtent(
                    file=entry.r_file,
                    offset=entry.r_offset + (offset - entry.o_offset),
                    length=length,
                    logical_offset=offset,
                    mapped=True,
                )
            ]
        self._cache_misses += 1
        starts = self._starts.get(o_file, [])
        idx = bisect_right(starts, offset) - 1
        if idx < 0:
            idx = 0
        return self._translate_walk(o_file, offset, end, idx)

    def _file_columns(self, o_file: str) -> _FileColumns | None:
        """The file's column index, rebuilt in one pass when its
        entries changed since the last batch lookup; ``None`` when the
        table maps nothing of the file."""
        columns = self._columns.get(o_file)
        if columns is None:
            entries = self._entries.get(o_file)
            if not entries:
                return None
            n = len(entries)
            names: dict[str, int] = {}
            columns = _FileColumns(
                starts=np.array(self._starts[o_file], dtype=np.int64),
                ends=np.fromiter((e.o_end for e in entries), np.int64, n),
                r_offsets=np.fromiter((e.r_offset for e in entries), np.int64, n),
                codes=np.fromiter(
                    (names.setdefault(e.r_file, len(names)) for e in entries),
                    np.int64,
                    n,
                ),
                names=tuple(names),
            )
            self._columns[o_file] = columns
        return columns

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
        columns = self._file_columns(o_file)
        if columns is None:
            extent, _, begin, end = cut_extents(_NO_ENTRIES, _NO_ENTRIES, off, off + lng)
            names: tuple[str, ...] = ()
            files = np.full(extent.size, UNMAPPED, dtype=np.int64)
            moved = begin
        else:
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
        for o_file in self._entries:
            columns = self._file_columns(o_file)
            if columns is None:
                continue
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
    def cache(self) -> LRUCache[tuple[str, int], DRTEntry]:
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

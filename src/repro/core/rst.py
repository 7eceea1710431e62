"""The Region Stripe Table (RST).

§III-G: "such stripe pairs of all the regions are stored into a global
Region Stripe Table (RST), which is managed by a Meta-Data Server".
Each record maps a region (storage object / file name) to its optimized
``<h, s>`` stripe pair.  Like the DRT it is persisted through the
Berkeley-DB stand-in, durable at :meth:`RST.commit`: one fsynced commit
per plan, stamped with the plan epoch (§IV-A).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..exceptions import KVStoreError, RedirectionError
from ..kvstore import EpochDB

__all__ = ["StripePair", "RST"]

_VALUE = struct.Struct("<QQ")


@dataclass(frozen=True)
class StripePair:
    """An optimized ``<h, s>`` layout decision for one region."""

    h: int
    s: int

    def __post_init__(self) -> None:
        if self.h < 0 or self.s < 0:
            raise RedirectionError(f"stripe sizes must be >= 0: <{self.h}, {self.s}>")
        if self.h == 0 and self.s == 0:
            raise RedirectionError("stripe pair <0, 0> places no data")

    def __str__(self) -> str:
        return f"<{self.h}, {self.s}>"


def _decode(key: bytes, value: bytes) -> tuple[str, StripePair]:
    if len(value) != _VALUE.size:
        raise KVStoreError(f"RST record {key!r}: value is {len(value)} bytes")
    try:
        return key.decode(), StripePair(*_VALUE.unpack(value))
    except (UnicodeDecodeError, RedirectionError) as exc:
        raise KVStoreError(f"undecodable RST record {key!r}: {exc}") from exc


class RST:
    """region/file name -> :class:`StripePair`, optionally persistent."""

    def __init__(self, path: str | Path | None = None, sync: bool = True) -> None:
        self._table: dict[str, StripePair] = {}
        self._db: EpochDB | None = None
        if path is not None:
            self._db = EpochDB(path, sync=sync)
            try:
                for key, value in self._db.records():
                    region, pair = _decode(key, value)
                    self._table[region] = pair
            except BaseException:
                self._db.close()
                raise

    def set(self, region: str, pair: StripePair) -> None:
        """Record the stripe pair for ``region``; staged for
        :meth:`commit` when backed by a file."""
        if self._db is not None:
            self._db.stage(region.encode(), _VALUE.pack(pair.h, pair.s))
        self._table[region] = pair

    def commit(self, epoch: int) -> None:
        """Make every staged pair durable in one commit stamped with
        ``epoch``; an in-memory table writes nothing."""
        if self._db is not None:
            self._db.commit(epoch)

    @property
    def epoch(self) -> int:
        """The epoch last committed to the backing file, 0 when none
        was (or the table is in memory or closed)."""
        return 0 if self._db is None else self._db.epoch

    def get(self, region: str) -> StripePair:
        """The stripe pair for ``region``; raises if unknown."""
        try:
            return self._table[region]
        except KeyError:
            raise RedirectionError(f"no RST entry for region {region!r}") from None

    def __contains__(self, region: str) -> bool:
        return region in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[tuple[str, StripePair]]:
        return iter(sorted(self._table.items()))

    def close(self) -> None:
        """Close the backing store, if any, dropping uncommitted pairs
        from it; the table stays usable in memory."""
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self) -> "RST":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

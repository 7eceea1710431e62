"""Fixed-size round-robin striping — the classic PFS layout (DEF).

A file is cut into ``stripe``-byte units distributed over the servers
in round-robin order (Fig. 1 of the paper).  This is the OrangeFS /
Lustre default that the DEF baseline uses with a 64 KB stripe.

A layout is a value: two layouts with the same servers, stripe and
object name map every extent the same way, compare equal and hash
alike, so a table of premapped runs can be keyed on them.  Nothing
changes a layout after construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import LayoutError
from .base import Layout, SubRequest
from .batch import MergedRuns, periodic_merged_runs

__all__ = ["FixedStripeLayout"]


class FixedStripeLayout(Layout):
    """Round-robin fixed striping over an ordered server list."""

    def __init__(self, servers: Sequence[int], stripe: int, obj: str = "file") -> None:
        if not servers:
            raise LayoutError("FixedStripeLayout needs at least one server")
        if len(set(servers)) != len(servers):
            raise LayoutError(f"duplicate server indices: {list(servers)}")
        if stripe <= 0:
            raise LayoutError(f"stripe must be > 0, got {stripe}")
        self._servers = tuple(servers)
        self.stripe = int(stripe)
        self.obj = obj

    @property
    def servers(self) -> Sequence[int]:
        return self._servers

    def map_extent(self, offset: int, length: int) -> list[SubRequest]:
        if offset < 0 or length < 0:
            raise LayoutError("offset and length must be non-negative")
        fragments: list[SubRequest] = []
        nservers = len(self._servers)
        cursor = offset
        end = offset + length
        while cursor < end:
            stripe_idx, within = divmod(cursor, self.stripe)
            take = min(self.stripe - within, end - cursor)
            server = self._servers[stripe_idx % nservers]
            server_offset = (stripe_idx // nservers) * self.stripe + within
            fragments.append(
                SubRequest(
                    server=server,
                    obj=self.obj,
                    offset=server_offset,
                    length=take,
                    logical_offset=cursor,
                )
            )
            cursor += take
        return fragments

    def merged_extent_runs(
        self, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        nservers = len(self._servers)
        return periodic_merged_runs(
            offsets,
            lengths,
            window_starts=np.arange(nservers, dtype=np.int64) * self.stripe,
            window_widths=np.full(nservers, self.stripe, dtype=np.int64),
            window_servers=np.asarray(self._servers, dtype=np.int64),
            cycle=nservers * self.stripe,
        )

    def _key(self) -> tuple[tuple[int, ...], int, str]:
        return (self._servers, self.stripe, self.obj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedStripeLayout):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"FixedStripeLayout(servers={list(self._servers)}, "
            f"stripe={self.stripe}, obj={self.obj!r})"
        )

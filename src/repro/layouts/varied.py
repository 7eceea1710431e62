"""Varied-size striping: stripe ``h`` on HServers, stripe ``s`` on SServers.

This is the layout shape MHA and HARL optimize (§II-A, §III-F).  One
*stripe cycle* covers ``M*h + N*s`` logical bytes: the first ``M*h``
bytes go round-robin (``h`` at a time) across the ``M`` HServers and
the next ``N*s`` bytes go round-robin (``s`` at a time) across the
``N`` SServers, then the cycle repeats.

The extreme configuration ``h == 0`` ("dispatching the data only on
SServer", Algorithm 2) is supported: HServers receive nothing and the
cycle is ``N*s``.  Symmetrically ``s == 0`` places data only on
HServers.  ``h == s == 0`` is invalid.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import LayoutError
from .base import Layout, SubRequest
from .batch import MergedRuns, periodic_merged_runs

__all__ = ["VariedStripeLayout"]


class VariedStripeLayout(Layout):
    """Two-class varied striping over HServers and SServers.

    Parameters
    ----------
    hservers / sservers:
        Cluster server indices of each class, in placement order.
    h / s:
        Stripe sizes in bytes for the respective class; either (but not
        both) may be 0 to exclude that class entirely.
    """

    def __init__(
        self,
        hservers: Sequence[int],
        sservers: Sequence[int],
        h: int,
        s: int,
        obj: str = "file",
    ) -> None:
        if h < 0 or s < 0:
            raise LayoutError(f"stripe sizes must be >= 0, got h={h}, s={s}")
        hs = tuple(hservers)
        ss = tuple(sservers)
        if len(set(hs) | set(ss)) != len(hs) + len(ss):
            raise LayoutError("server index appears twice across classes")
        if h > 0 and not hs:
            raise LayoutError("h > 0 but no HServers given")
        if s > 0 and not ss:
            raise LayoutError("s > 0 but no SServers given")
        effective_h = h if hs else 0
        effective_s = s if ss else 0
        if effective_h == 0 and effective_s == 0:
            raise LayoutError("layout places no data anywhere (h == s == 0)")
        self._hservers = hs
        self._sservers = ss
        self.h = int(effective_h)
        self.s = int(effective_s)
        self.obj = obj
        self._hspan = len(hs) * self.h
        self._cycle = self._hspan + len(ss) * self.s

    @property
    def hservers(self) -> Sequence[int]:
        """HServer indices (even if ``h == 0``)."""
        return self._hservers

    @property
    def sservers(self) -> Sequence[int]:
        """SServer indices (even if ``s == 0``)."""
        return self._sservers

    @property
    def servers(self) -> Sequence[int]:
        used: list[int] = []
        if self.h > 0:
            used.extend(self._hservers)
        if self.s > 0:
            used.extend(self._sservers)
        return tuple(used)

    @property
    def cycle(self) -> int:
        """Logical bytes covered by one full stripe cycle."""
        return self._cycle

    def map_extent(self, offset: int, length: int) -> list[SubRequest]:
        if offset < 0 or length < 0:
            raise LayoutError("offset and length must be non-negative")
        fragments: list[SubRequest] = []
        cursor = offset
        end = offset + length
        cycle = self._cycle
        hspan = self._hspan
        while cursor < end:
            cycle_idx, within_cycle = divmod(cursor, cycle)
            if within_cycle < hspan:
                slot, within = divmod(within_cycle, self.h)
                server = self._hservers[slot]
                stripe = self.h
                server_offset = cycle_idx * self.h + within
            else:
                slot, within = divmod(within_cycle - hspan, self.s)
                server = self._sservers[slot]
                stripe = self.s
                server_offset = cycle_idx * self.s + within
            take = min(stripe - within, end - cursor)
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
        starts: list[int] = []
        widths: list[int] = []
        servers: list[int] = []
        if self.h > 0:
            for slot, server in enumerate(self._hservers):
                starts.append(slot * self.h)
                widths.append(self.h)
                servers.append(server)
        if self.s > 0:
            for slot, server in enumerate(self._sservers):
                starts.append(self._hspan + slot * self.s)
                widths.append(self.s)
                servers.append(server)
        return periodic_merged_runs(
            offsets,
            lengths,
            window_starts=np.asarray(starts, dtype=np.int64),
            window_widths=np.asarray(widths, dtype=np.int64),
            window_servers=np.asarray(servers, dtype=np.int64),
            cycle=self._cycle,
        )

    def __repr__(self) -> str:
        return (
            f"VariedStripeLayout(h={self.h}, s={self.s}, "
            f"hservers={list(self._hservers)}, sservers={list(self._sservers)}, "
            f"obj={self.obj!r})"
        )

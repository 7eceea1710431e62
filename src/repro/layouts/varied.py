"""Varied-size striping: stripe ``h`` on HServers, stripe ``s`` on SServers.

This is the layout shape MHA and HARL optimize (§II-A, §III-F).  One
*stripe cycle* covers ``M*h + N*s`` logical bytes: the first ``M*h``
bytes go round-robin (``h`` at a time) across the ``M`` HServers and
the next ``N*s`` bytes go round-robin (``s`` at a time) across the
``N`` SServers, then the cycle repeats.

The extreme configuration ``h == 0`` ("dispatching the data only on
SServer", Algorithm 2) is supported: HServers receive nothing and the
cycle is ``N*s``.  Symmetrically ``s == 0`` places data only on
HServers.  ``h == s == 0`` is invalid.  Fixed striping (DEF's layout,
:class:`~repro.layouts.fixed.FixedStripeLayout`) is the one-class case:
every server an HServer, ``h`` the stripe and ``s == 0``.  This class
holds the one copy of the periodic stripe walk and of its batch
kernel.

A layout is a value: two layouts with the same classes, stripes and
object name map every extent the same way, compare equal and hash
alike, so a table of premapped runs can be keyed on them.  Nothing
changes a layout after construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import LayoutError
from .base import FragmentColumns, Layout
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
        if len(set(hs + ss)) != len(hs) + len(ss):
            raise LayoutError("server index appears twice across classes")
        if h > 0 and not hs:
            raise LayoutError("h > 0 but no HServers given")
        if s > 0 and not ss:
            raise LayoutError("s > 0 but no SServers given")
        h = int(h) if hs else 0
        s = int(s) if ss else 0
        if h == 0 and s == 0:
            raise LayoutError("layout places no data anywhere (h == s == 0)")
        self._hservers = hs
        self._sservers = ss
        self.h = h
        self.s = s
        self.obj = obj
        self._hspan = len(hs) * h
        self._cycle = self._hspan + len(ss) * s
        # what equality and hashing compare: the layout is immutable
        self._key = (hs, ss, h, s, obj)

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

    def fragment_columns(
        self, out: FragmentColumns, offset: int, length: int, shift: int = 0
    ) -> None:
        if offset < 0 or length < 0:
            raise LayoutError("offset and length must be non-negative")
        servers, offsets = out.servers, out.offsets
        lengths, logicals = out.lengths, out.logicals
        first = len(servers)
        hservers, sservers = self._hservers, self._sservers
        h, s = self.h, self.s
        cycle = self._cycle
        hspan = self._hspan
        cursor = offset
        end = offset + length
        while cursor < end:
            cycle_idx, within_cycle = divmod(cursor, cycle)
            if within_cycle < hspan:
                slot, within = divmod(within_cycle, h)
                servers.append(hservers[slot])
                stripe = h
            else:
                slot, within = divmod(within_cycle - hspan, s)
                servers.append(sservers[slot])
                stripe = s
            take = stripe - within
            if take > end - cursor:
                take = end - cursor
            offsets.append(cycle_idx * stripe + within)
            lengths.append(take)
            logicals.append(shift + cursor)
            cursor += take
        out.objs.extend([self.obj] * (len(servers) - first))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariedStripeLayout):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"VariedStripeLayout(h={self.h}, s={self.s}, "
            f"hservers={list(self._hservers)}, sservers={list(self._sservers)}, "
            f"obj={self.obj!r})"
        )

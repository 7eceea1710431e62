"""Batched request mapping: columnar merged sub-request runs.

The flat replay kernel (:mod:`repro.pfs.flat`) maps a whole trace
through a file view at once instead of one dataclass-heavy
``map_request``/``merge_fragments`` pass per request.  This module
holds the shared machinery:

* :class:`MergedRuns` — the columnar result: per-extent *merged* runs
  (one contiguous server-object range each, exactly what
  :func:`merge_fragments` would produce) stored as parallel lists with
  ``starts`` boundaries, plus the pre-merge fragment count;
* :func:`periodic_merged_runs` — the NumPy kernel for round-robin
  striping.  Both fixed and varied striping are periodic: server ``j``
  owns the window ``[a_j, a_j + w_j)`` of every ``cycle``-byte period,
  so a contiguous extent produces **at most one merged run per
  server**, whose length and object offset follow from the same
  cumulative-window closed form as :func:`repro.layouts.extents`;
* :func:`merged_runs_of` — dispatch: a layout's vectorized
  ``merged_extent_runs`` kernel when it has one, otherwise the exact
  per-extent object path (``map_extent`` + :func:`merge_fragments`);
* :func:`in_request_order` — the one gather that assembles runs mapped
  in groups (per file, or batch and fallback) back into request order:
  :meth:`MergedRuns.concat`, then :meth:`MergedRuns.take`;
* :func:`merge_fragments` — the order-preserving coalescer (moved here
  from :mod:`repro.pfs.system`, which re-exports it), rewritten to
  build one :class:`~repro.layouts.base.SubRequest` per *merged run*
  instead of one per absorbed fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..exceptions import LayoutError
from .base import SubRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .base import Layout

__all__ = [
    "MergedRuns",
    "RunColumns",
    "in_request_order",
    "merge_fragments",
    "merged_runs_of",
    "periodic_merged_runs",
    "run_columns",
    "runs_from_fragments",
]


def merge_fragments(fragments: Iterable[SubRequest]) -> list[SubRequest]:
    """Coalesce fragments that are contiguous on the same server object.

    A PFS client sends *one* sub-request per server covering all the
    stripes it needs there (list I/O); under round-robin striping those
    stripes are contiguous in the server object even though they
    interleave logically, so the merged run is what the server's disk
    actually sees.  Merging is order-preserving per server and requires
    contiguity in the *server object's* address space; the merged run
    keeps the logical offset of its first stripe.  Output is sorted by
    logical offset.
    """
    servers: list[int] = []
    objs: list[str] = []
    offsets: list[int] = []
    lengths: list[int] = []
    logicals: list[int] = []
    last_of: dict[tuple[int, str], int] = {}
    in_order = True
    for frag in fragments:
        key = (frag.server, frag.obj)
        i = last_of.get(key, -1)
        if i >= 0 and offsets[i] + lengths[i] == frag.offset:
            lengths[i] += frag.length
            continue
        if logicals and frag.logical_offset < logicals[-1]:
            in_order = False
        last_of[key] = len(offsets)
        servers.append(frag.server)
        objs.append(frag.obj)
        offsets.append(frag.offset)
        lengths.append(frag.length)
        logicals.append(frag.logical_offset)
    order: Iterable[int]
    if in_order:
        order = range(len(offsets))
    else:
        order = sorted(range(len(offsets)), key=logicals.__getitem__)
    return [
        SubRequest(
            server=servers[i],
            obj=objs[i],
            offset=offsets[i],
            length=lengths[i],
            logical_offset=logicals[i],
        )
        for i in order
    ]


#: one request's merged runs as columns: servers, objects, object
#: offsets, lengths and first logical offsets
RunColumns = tuple[list[int], list[str], list[int], list[int], list[int]]


def run_columns(runs: Sequence[SubRequest]) -> RunColumns:
    """Merged runs as :data:`RunColumns`, in the order given."""
    return (
        [f.server for f in runs],
        [f.obj for f in runs],
        [f.offset for f in runs],
        [f.length for f in runs],
        [f.logical_offset for f in runs],
    )


@dataclass
class MergedRuns:
    """Columnar merged sub-requests for a batch of extents.

    Run ``j`` is one contiguous range of a server object; the runs of
    extent ``k`` occupy ``[starts[k], starts[k+1])`` and are sorted by
    ``first_logicals`` (the logical offset of the run's first byte) —
    exactly the fragments :func:`merge_fragments` would return for the
    same extent, as columns instead of dataclasses.  ``n_fragments``
    counts the *pre-merge* fragments across the whole batch (what
    ``map_extent`` would have produced), preserving the redirector's
    overhead accounting.
    """

    servers: list[int]
    objs: list[str]
    offsets: list[int]
    lengths: list[int]
    first_logicals: list[int]
    starts: list[int]
    n_fragments: int

    @property
    def n_extents(self) -> int:
        return len(self.starts) - 1

    def subrequests(self, k: int) -> list[SubRequest]:
        """Extent ``k``'s merged runs as :class:`SubRequest` objects."""
        lo, hi = self.starts[k], self.starts[k + 1]
        return [
            SubRequest(
                server=self.servers[j],
                obj=self.objs[j],
                offset=self.offsets[j],
                length=self.lengths[j],
                logical_offset=self.first_logicals[j],
            )
            for j in range(lo, hi)
        ]

    @classmethod
    def concat(cls, parts: Sequence["MergedRuns"]) -> "MergedRuns":
        """The batch holding every part's extents, part after part;
        its pre-merge fragment count is the parts' sum."""
        servers: list[int] = []
        objs: list[str] = []
        offsets: list[int] = []
        lengths: list[int] = []
        firsts: list[int] = []
        starts: list[int] = [0]
        for part in parts:
            shift = len(servers)
            starts.extend(s + shift for s in part.starts[1:])
            servers.extend(part.servers)
            objs.extend(part.objs)
            offsets.extend(part.offsets)
            lengths.extend(part.lengths)
            firsts.extend(part.first_logicals)
        return cls(
            servers=servers,
            objs=objs,
            offsets=offsets,
            lengths=lengths,
            first_logicals=firsts,
            starts=starts,
            n_fragments=sum(part.n_fragments for part in parts),
        )

    def take(
        self,
        extents: Sequence[int] | np.ndarray,
        n_fragments: int,
        shifts: np.ndarray | None = None,
    ) -> "MergedRuns":
        """The batch whose extent ``i`` has extent ``extents[i]``'s runs,
        their first logical offsets moved by ``shifts[i]`` when given
        (a region or DRT coordinate shift).

        ``n_fragments`` is the new batch's pre-merge fragment count,
        which only the caller knows: this batch holds a total, not a
        count per extent.
        """
        index = np.asarray(extents, dtype=np.intp).reshape(-1)
        bounds = np.asarray(self.starts, dtype=np.intp)
        lo = bounds[index]
        counts = bounds[index + 1] - lo
        starts = np.zeros(index.size + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        # run j of the new batch is run runs[j] of this one
        runs = np.repeat(lo - starts[:-1], counts) + np.arange(starts[-1])
        firsts = np.asarray(self.first_logicals, dtype=np.int64)[runs]
        if shifts is not None:
            firsts += np.repeat(np.asarray(shifts, dtype=np.int64), counts)
        return MergedRuns(
            servers=np.asarray(self.servers, dtype=np.int64)[runs].tolist(),
            objs=np.asarray(self.objs, dtype=object)[runs].tolist(),
            offsets=np.asarray(self.offsets, dtype=np.int64)[runs].tolist(),
            lengths=np.asarray(self.lengths, dtype=np.int64)[runs].tolist(),
            first_logicals=firsts.tolist(),
            starts=starts.tolist(),
            n_fragments=n_fragments,
        )


def runs_from_fragments(fragments: Sequence[SubRequest]) -> MergedRuns:
    """A single-extent :class:`MergedRuns` from an explicit fragment list."""
    merged = merge_fragments(fragments)
    return MergedRuns(
        *run_columns(merged), starts=[0, len(merged)], n_fragments=len(fragments)
    )


def in_request_order(
    parts: Sequence[MergedRuns], rows: Sequence[Sequence[int] | np.ndarray]
) -> MergedRuns:
    """One batch from runs mapped in groups: request ``rows[p][k]`` gets
    extent ``k`` of ``parts[p]``.

    ``rows`` partitions the request indices ``0..n-1``.  The parts are
    concatenated and taken back into request order in one gather; the
    pre-merge fragment count is the parts' sum.
    """
    merged = MergedRuns.concat(parts)
    n = merged.n_extents
    position = np.empty(n, dtype=np.intp)
    if n:
        position[np.concatenate(rows)] = np.arange(n)
    return merged.take(position, merged.n_fragments)


def periodic_merged_runs(
    offsets: Sequence[int] | np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    *,
    window_starts: np.ndarray,
    window_widths: np.ndarray,
    window_servers: np.ndarray,
    cycle: int,
    obj: str,
) -> MergedRuns:
    """Vectorized merged-run mapping for periodic round-robin striping.

    Server window ``j`` occupies ``[a_j, a_j + w_j)`` of every
    ``cycle``-byte period (fixed striping: ``a_j = j*stripe``,
    ``w_j = stripe``; varied striping: the H windows then the S
    windows).  For a contiguous extent every touched window yields one
    merged run, because the extent covers a suffix of its first window
    instance, every full instance between, and a prefix of its last —
    ranges that are contiguous in the server object.  Hence, with
    ``cum_j(y)`` = bytes of ``[0, y)`` landing in window ``j`` (the
    :func:`repro.layouts.extents.bytes_in_window` closed form):

    * run length  = ``cum_j(end) - cum_j(offset)``;
    * run object offset = ``cum_j(offset)``;
    * run first logical byte = ``offset`` if ``offset`` lies in the
      window, else ``offset + ((a_j - offset) mod cycle)``;
    * pre-merge fragment count = windows-touched
      (:func:`repro.layouts.extents.windows_touched`).

    Runs per extent are emitted in ascending first-logical order — the
    exact output order of ``merge_fragments(map_extent(...))``.
    """
    if cycle <= 0:
        raise LayoutError(f"cycle must be > 0, got {cycle}")
    off = np.asarray(offsets, dtype=np.int64).reshape(-1)
    lng = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if off.shape != lng.shape:
        raise LayoutError(
            f"offsets ({off.size}) and lengths ({lng.size}) must match"
        )
    n = off.size
    if n == 0:
        return MergedRuns([], [], [], [], [], [0], 0)
    if int(off.min()) < 0 or int(lng.min()) < 0:
        raise LayoutError("offset and length must be non-negative")
    a = window_starts[None, :]
    w = window_widths[None, :]
    lo = off[:, None]
    hi = (off + lng)[:, None]
    full_hi, rem_hi = np.divmod(hi, cycle)
    full_lo, rem_lo = np.divmod(lo, cycle)
    cum_hi = full_hi * w + np.clip(rem_hi - a, 0, w)
    cum_lo = full_lo * w + np.clip(rem_lo - a, 0, w)
    run_len = cum_hi - cum_lo
    first = lo + np.where(
        (rem_lo >= a) & (rem_lo < a + w), 0, (a - rem_lo) % cycle
    )
    mask = run_len > 0
    counts = mask.sum(axis=1)
    total = int(counts.sum())
    # order each extent's runs by first logical byte (unique per run)
    sort_key = np.where(mask, first, np.iinfo(np.int64).max)
    order = np.argsort(sort_key, axis=1, kind="stable")
    row_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=row_starts[1:])
    rows = np.repeat(np.arange(n), counts)
    cols = order[rows, np.arange(total) - row_starts[rows]]
    # pre-merge fragment count == distinct window instances intersected
    k_max = (hi - a - 1) // cycle
    k_lo = -((-(lo - a - w + 1)) // cycle)  # ceil division
    touched = np.where(mask, k_max - k_lo + 1, 0)
    return MergedRuns(
        servers=window_servers[cols].tolist(),
        objs=[obj] * total,
        offsets=cum_lo[rows, cols].tolist(),
        lengths=run_len[rows, cols].tolist(),
        first_logicals=first[rows, cols].tolist(),
        starts=row_starts.tolist(),
        n_fragments=int(touched.sum()),
    )


def generic_merged_runs(
    map_extent: Callable[[int, int], list[SubRequest]],
    offsets: Sequence[int],
    lengths: Sequence[int],
) -> MergedRuns:
    """Exact per-extent fallback: ``map_extent`` + :func:`merge_fragments`."""
    servers: list[int] = []
    objs: list[str] = []
    offs: list[int] = []
    lens: list[int] = []
    firsts: list[int] = []
    starts: list[int] = [0]
    n_fragments = 0
    for offset, length in zip(offsets, lengths):
        fragments = map_extent(int(offset), int(length))
        n_fragments += len(fragments)
        for frag in merge_fragments(fragments):
            servers.append(frag.server)
            objs.append(frag.obj)
            offs.append(frag.offset)
            lens.append(frag.length)
            firsts.append(frag.logical_offset)
        starts.append(len(servers))
    return MergedRuns(
        servers=servers,
        objs=objs,
        offsets=offs,
        lengths=lens,
        first_logicals=firsts,
        starts=starts,
        n_fragments=n_fragments,
    )


def merged_runs_of(
    layout: "Layout", offsets: Sequence[int], lengths: Sequence[int]
) -> MergedRuns:
    """Batch-map extents through ``layout`` into merged runs.

    Uses the layout's vectorized ``merged_extent_runs`` kernel when it
    provides one (fixed/varied/region striping), otherwise the exact
    object path.  Both produce identical runs — property-tested in
    ``tests/layouts/test_batch.py``.
    """
    fast = layout.merged_extent_runs(offsets, lengths)
    if fast is not None:
        return fast
    return generic_merged_runs(layout.map_extent, offsets, lengths)

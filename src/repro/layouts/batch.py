"""Batched request mapping: columnar merged sub-request runs.

The flat replay kernel (:mod:`repro.pfs.flat`) maps a whole trace
through a file view at once instead of one dataclass-heavy
``map_request``/``merge_fragments`` pass per request.  This module
holds the shared machinery:

* :class:`MergedRuns` — the columnar result: per-extent *merged* runs
  (one contiguous server-object range each, exactly what
  :func:`merge_fragments` would produce) as server and length lists
  with ``starts`` boundaries.  A run's service time depends on its
  server and its byte count alone (Eq. 2, and the simulator's one
  service law), so those are all a premapped run keeps;
* :func:`periodic_merged_runs` — the NumPy kernel behind
  :meth:`repro.layouts.varied.VariedStripeLayout.merged_extent_runs`
  (fixed striping is its one-class case).  Striping is periodic:
  server ``j`` owns the window ``[a_j, a_j + w_j)`` of every
  ``cycle``-byte period, so a contiguous extent produces **at most one
  merged run per server**, whose length follows from the same
  cumulative-window closed form as
  :func:`repro.layouts.extents.bytes_in_window`.  Every layout has a
  batch kernel (``Layout.merged_extent_runs``): region layouts split
  extents at region boundaries and call their regions' kernels;
* :func:`in_request_order` — the one gather that assembles runs mapped
  in groups (per file) back into request order:
  :meth:`MergedRuns.concat`, then :meth:`MergedRuns.take`;
* :func:`merge_fragments` — the order-preserving coalescer (moved here
  from :mod:`repro.pfs.system`, which re-exports it), which builds one
  :class:`~repro.layouts.base.SubRequest` per *merged run*;
  :func:`merge_columns` is the same merge over
  :class:`~repro.layouts.base.FragmentColumns`, building none, and
  :func:`runs_from_columns` turns one extent's merged fragments into a
  :class:`MergedRuns` (the redirector's multi-piece extents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import LayoutError
from .base import FragmentColumns, SubRequest

__all__ = [
    "MergedRuns",
    "in_request_order",
    "merge_columns",
    "merge_fragments",
    "periodic_merged_runs",
    "runs_from_columns",
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
    rows = ((f.server, f.obj, f.offset, f.length, f.logical_offset) for f in fragments)
    return _merge(rows).subrequests()


def merge_columns(fragments: FragmentColumns) -> FragmentColumns:
    """:func:`merge_fragments` for fragments given as columns."""
    f = fragments
    return _merge(zip(f.servers, f.objs, f.offsets, f.lengths, f.logicals))


def _merge(rows: Iterable[tuple[int, str, int, int, int]]) -> FragmentColumns:
    """The merged runs of fragment rows ``(server, obj, offset, length,
    logical offset)``, sorted by logical offset."""
    merged = FragmentColumns()
    servers, objs, offsets = merged.servers, merged.objs, merged.offsets
    lengths, logicals = merged.lengths, merged.logicals
    last_of: dict[tuple[int, str], int] = {}
    in_order = True
    for server, obj, offset, length, logical in rows:
        key = (server, obj)
        i = last_of.get(key, -1)
        if i >= 0 and offsets[i] + lengths[i] == offset:
            lengths[i] += length
            continue
        if logicals and logical < logicals[-1]:
            in_order = False
        last_of[key] = len(offsets)
        servers.append(server)
        objs.append(obj)
        offsets.append(offset)
        lengths.append(length)
        logicals.append(logical)
    if not in_order:
        order = sorted(range(len(offsets)), key=logicals.__getitem__)
        servers[:] = [servers[i] for i in order]
        objs[:] = [objs[i] for i in order]
        offsets[:] = [offsets[i] for i in order]
        lengths[:] = [lengths[i] for i in order]
        logicals[:] = [logicals[i] for i in order]
    return merged


@dataclass
class MergedRuns:
    """Columnar merged sub-requests for a batch of extents.

    Run ``j`` is one contiguous range of a server object, ``lengths[j]``
    bytes on server ``servers[j]``; the runs of extent ``k`` occupy
    ``[starts[k], starts[k+1])`` in ascending order of their first
    logical byte — exactly the servers and lengths of the fragments
    :func:`merge_fragments` would return for the same extent, in the
    same order.
    """

    servers: list[int]
    lengths: list[int]
    starts: list[int]

    @property
    def n_extents(self) -> int:
        return len(self.starts) - 1

    @classmethod
    def concat(cls, parts: Sequence["MergedRuns"]) -> "MergedRuns":
        """The batch holding every part's extents, part after part."""
        servers: list[int] = []
        lengths: list[int] = []
        starts: list[int] = [0]
        for part in parts:
            shift = len(servers)
            starts.extend(s + shift for s in part.starts[1:])
            servers.extend(part.servers)
            lengths.extend(part.lengths)
        return cls(servers=servers, lengths=lengths, starts=starts)

    def take(self, extents: Sequence[int] | np.ndarray) -> "MergedRuns":
        """The batch whose extent ``i`` has extent ``extents[i]``'s runs."""
        index = np.asarray(extents, dtype=np.intp).reshape(-1)
        bounds = np.asarray(self.starts, dtype=np.intp)
        lo = bounds[index]
        counts = bounds[index + 1] - lo
        starts = np.zeros(index.size + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        # run j of the new batch is run runs[j] of this one
        runs = np.repeat(lo - starts[:-1], counts) + np.arange(starts[-1])
        return MergedRuns(
            servers=np.asarray(self.servers, dtype=np.int64)[runs].tolist(),
            lengths=np.asarray(self.lengths, dtype=np.int64)[runs].tolist(),
            starts=starts.tolist(),
        )


def runs_from_columns(fragments: FragmentColumns) -> MergedRuns:
    """A single-extent :class:`MergedRuns`: the merged runs of one
    extent's fragments, given as columns."""
    merged = merge_columns(fragments)
    return MergedRuns(merged.servers, merged.lengths, [0, len(merged)])


def in_request_order(
    parts: Sequence[MergedRuns], rows: Sequence[Sequence[int] | np.ndarray]
) -> MergedRuns:
    """One batch from runs mapped in groups: request ``rows[p][k]`` gets
    extent ``k`` of ``parts[p]``.

    ``rows`` partitions the request indices ``0..n-1``.  The parts are
    concatenated and taken back into request order in one gather.
    """
    merged = MergedRuns.concat(parts)
    n = merged.n_extents
    position = np.empty(n, dtype=np.intp)
    if n:
        position[np.concatenate(rows)] = np.arange(n)
    return merged.take(position)


def periodic_merged_runs(
    offsets: Sequence[int] | np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    *,
    window_starts: np.ndarray,
    window_widths: np.ndarray,
    window_servers: np.ndarray,
    cycle: int,
) -> MergedRuns:
    """Vectorized merged-run mapping for periodic round-robin striping.

    Server window ``j`` occupies ``[a_j, a_j + w_j)`` of every
    ``cycle``-byte period (varied striping: the H windows then the S
    windows; fixed striping has only the H windows).  For a contiguous
    extent every touched window yields one merged run, because the
    extent covers a suffix of its first window instance, every full
    instance between, and a prefix of its last — ranges that are
    contiguous in the server object.  Hence, with
    ``cum_j(y)`` = bytes of ``[0, y)`` landing in window ``j`` (the
    :func:`repro.layouts.extents.bytes_in_window` closed form):

    * run length  = ``cum_j(end) - cum_j(offset)``;
    * run first logical byte = ``offset`` if ``offset`` lies in the
      window, else ``offset + ((a_j - offset) mod cycle)``.

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
        return MergedRuns([], [], [0])
    if int(off.min()) < 0 or int(lng.min()) < 0:
        raise LayoutError("offset and length must be non-negative")
    a = window_starts[None, :]
    w = window_widths[None, :]
    lo = off[:, None]
    full_hi, rem_hi = np.divmod((off + lng)[:, None], cycle)
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
    return MergedRuns(
        servers=window_servers[cols].tolist(),
        lengths=run_len[rows, cols].tolist(),
        starts=row_starts.tolist(),
    )

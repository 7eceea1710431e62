"""The Data Reorganizer — MHA's reordering phase (§III-E).

Given a trace and a request grouping, the reorganizer:

1. walks each group's requests **ordered by their offsets within the
   original file** and appends each request's not-yet-claimed bytes to
   the group's region, so "a later data block is moved to be adjacent
   to the first data block it is similar to";
2. emits one DRT entry per migrated extent, producing the complete
   Data Reordering Table;
3. re-expresses every request in region coordinates (each
   :class:`RegionPlan`'s request columns), which is what the Layout
   Determinator evaluates the cost model over — the whole point of
   reordering is that those post-migration offsets are contiguous per
   pattern.

Bytes accessed by requests from several groups are claimed by the first
group that reaches them (earlier groups hold requests the clustering
deemed denser/first); later requests still find them through the DRT,
just in a foreign region.  Bytes never accessed stay in the original
file and fall through the redirector unmapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..devices.base import READ
from ..exceptions import ConfigurationError
from ..tracing.columnar import OP_NAMES, ColumnarTrace
from ..tracing.record import Trace, TraceRecord
from .drt import DRT, UNMAPPED, DRTEntry
from .grouping import GroupingResult
from .intervals import IntervalSet, cut_extents

__all__ = [
    "RegionPlan",
    "ReorderPlan",
    "reorganize",
    "reorganize_arrays",
]


@dataclass(eq=False)
class RegionPlan:
    """One reordered region: its identity, size, and resident requests.

    The requests are the determinator's columns
    (:meth:`request_arrays`): request ``i`` is ``lengths[i]`` bytes at
    region offset ``offsets[i]``.  ``bursts[i]`` identifies the
    simultaneous request group its original record belonged to (see
    :func:`repro.tracing.analysis.burst_ids_of`); fragments of records
    issued together share an id, letting the determinator evaluate the
    exact burst completion times, and a request in no burst (id below
    0) gets ``-(i + 1)``, a burst of its own.
    """

    name: str
    group: int
    size: int
    offsets: np.ndarray
    lengths: np.ndarray
    is_read: np.ndarray
    bursts: np.ndarray

    def __post_init__(self) -> None:
        own = -1 - np.arange(self.bursts.size, dtype=np.int64)
        self.bursts = np.where(self.bursts >= 0, self.bursts, own)

    def request_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The determinator's input: (offsets, lengths, is_read, burst_ids)."""
        return self.offsets, self.lengths, self.is_read, self.bursts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionPlan):
            return NotImplemented
        return (
            (self.name, self.group, self.size) == (other.name, other.group, other.size)
            and all(
                a.dtype == b.dtype and np.array_equal(a, b)
                for a, b in zip(self.request_arrays(), other.request_arrays())
            )
        )


@dataclass
class ReorderPlan:
    """Everything the reordering phase produces for one original file."""

    o_file: str
    regions: list[RegionPlan]
    drt: DRT
    #: bytes that were migrated (the placement phase must copy these)
    migrated_bytes: int = 0

    def region_names(self) -> list[str]:
        return [r.name for r in self.regions]


def region_name(o_file: str, group: int) -> str:
    """Naming convention for region files: ``{original}.region{g}``."""
    return f"{o_file}.region{group}"


def _target(
    trace: Trace | ColumnarTrace,
    grouping: GroupingResult,
    o_file: str | None,
    drt: DRT | None,
) -> tuple[str, DRT]:
    """The original file's name and the DRT to fill, once the grouping
    is checked to label every request of a single-file trace."""
    if len(grouping.labels) != len(trace):
        raise ConfigurationError(
            f"grouping labels ({len(grouping.labels)}) do not match trace "
            f"({len(trace)} records)"
        )
    files = trace.files()
    if len(files) > 1:
        raise ConfigurationError(
            f"reorganize expects a single-file trace, got files {files}"
        )
    if o_file is None:
        o_file = files[0] if files else "file"
    return o_file, DRT() if drt is None else drt


def reorganize(
    trace: Trace,
    grouping: GroupingResult,
    o_file: str | None = None,
    drt: DRT | None = None,
    bursts: Mapping[TraceRecord, int] | None = None,
) -> ReorderPlan:
    """Build regions + DRT from a grouped trace.

    Parameters
    ----------
    trace:
        The requests being reordered, in the exact order the grouping
        labels refer to (``grouping.labels[i]`` labels ``trace[i]``).
        Must touch a single file.
    grouping:
        Output of :func:`repro.core.grouping.group_requests`.
    o_file:
        Original file name; defaults to the trace's single file.
    drt:
        An existing (possibly persistent) DRT to fill; a fresh
        in-memory one is created when omitted.
    bursts:
        Optional per-record burst ids
        (:func:`repro.tracing.analysis.burst_ids_of`); carried onto the
        region requests for exact burst-level cost evaluation.
    """
    o_file, drt = _target(trace, grouping, o_file, drt)

    claimed = IntervalSet()
    names = [region_name(o_file, g) for g in range(grouping.k)]
    sizes = [0] * grouping.k

    # Phase 1 — claim bytes group by group, offset order inside a group.
    for g, name in enumerate(names):
        members = sorted((trace[int(i)] for i in grouping.members(g)),
                         key=lambda r: (r.offset, r.timestamp))
        for record in members:
            for gap_start, gap_end in claimed.add(record.offset, record.end):
                length = gap_end - gap_start
                drt.add(DRTEntry(o_file, gap_start, length, name, sizes[g]))
                sizes[g] += length

    # Phase 2 — express every request in region coordinates via the DRT.
    rows: dict[str, list[tuple[int, int, bool, int]]] = {name: [] for name in names}
    for record in trace:
        burst = bursts.get(record, -1) if bursts else -1
        is_read = record.op == READ
        # accumulate this record's fragments per region, merging extents
        # that stay contiguous within the same region
        pending: dict[str, list[int]] = {}
        for extent in drt.translate(o_file, record.offset, record.size):
            if not extent.mapped:
                continue  # cannot happen here: every byte was claimed above
            prev = pending.get(extent.file)
            if prev is not None and prev[0] + prev[1] == extent.offset:
                prev[1] += extent.length
            else:
                if prev is not None:
                    rows[extent.file].append((prev[0], prev[1], is_read, burst))
                pending[extent.file] = [extent.offset, extent.length]
        for name, (offset, length) in pending.items():
            rows[name].append((offset, length, is_read, burst))

    # drop regions that ended up empty (possible when another group
    # claimed every byte the group touched)
    regions = []
    for g, name in enumerate(names):
        if sizes[g] or rows[name]:
            table = np.array(rows[name], dtype=np.int64).reshape(-1, 4).T.copy()
            columns = table[0], table[1], table[2].astype(bool), table[3]
            regions.append(RegionPlan(name, g, sizes[g], *columns))
    return ReorderPlan(o_file, regions, drt, migrated_bytes=sum(sizes))


def reorganize_arrays(
    trace: ColumnarTrace,
    grouping: GroupingResult,
    o_file: str | None = None,
    drt: DRT | None = None,
    bursts: np.ndarray | None = None,
) -> ReorderPlan:
    """:func:`reorganize` over a columnar trace — same plan, no records.

    ``bursts`` is an index-aligned per-request array (the columnar
    stand-in for the reference's record-keyed mapping).  The output
    :class:`ReorderPlan` — regions, requests, DRT entries and their
    order, migrated bytes — is identical to the record path's; the
    DRT's hot-entry counters are not touched.

    Phase 1 claims each group's bytes with NumPy.  In the group's
    offset order, a record's bytes below the running maximum of the
    earlier records' ends are already the group's, and
    :func:`~repro.core.intervals.cut_extents` finds the gaps earlier
    groups left in the rest; the claims are checked against this
    call's own claims only, as the reference's fresh interval set
    does, and the DRT rejects any that overlap its existing entries.
    Phase 2 translates the whole trace with
    :meth:`~repro.core.drt.DRT.translate_many` and merges each
    request's contiguous pieces per region.
    """
    o_file, drt = _target(trace, grouping, o_file, drt)

    d = trace.data
    off = d["offset"]
    size = d["size"]
    ts = d["timestamp"]
    names = [region_name(o_file, g) for g in range(grouping.k)]
    sizes = np.zeros(grouping.k, dtype=np.int64)

    # Phase 1 — claim bytes group by group, offset order inside a group.
    # np.lexsort is stable, matching the reference's sorted() on the
    # (offset, timestamp) key over ascending member indices.
    claimed_lo = np.empty(0, dtype=np.int64)
    claimed_hi = np.empty(0, dtype=np.int64)
    # each group's entries: (o_offsets, lengths, r_offsets, region codes)
    entries = [np.empty((4, 0), dtype=np.int64)]
    for g in range(grouping.k):
        members = grouping.members(g)
        if not members.size:
            continue
        members = members[np.lexsort((ts[members], off[members]))]
        lo = off[members]
        hi = lo + size[members]
        # earlier records of the group start no later than this one,
        # so of its bytes they claimed exactly those below their
        # highest end
        reach = np.empty_like(hi)
        reach[0] = lo[0]
        np.maximum.accumulate(hi[:-1], out=reach[1:])
        _, inside, gap_lo, gap_hi = cut_extents(
            claimed_lo, claimed_hi, np.maximum(lo, reach), hi
        )
        gap = inside < 0
        gap_lo = gap_lo[gap]
        gap_hi = gap_hi[gap]
        lengths = gap_hi - gap_lo
        sizes[g] = lengths.sum()
        r_offsets = np.cumsum(lengths) - lengths
        entries.append(np.stack((gap_lo, lengths, r_offsets, np.full_like(gap_lo, g))))
        # claims never overlap, so sorting by start keeps ends sorted
        claimed_lo = np.concatenate((claimed_lo, gap_lo))
        claimed_hi = np.concatenate((claimed_hi, gap_hi))
        order = np.argsort(claimed_lo, kind="stable")
        claimed_lo = claimed_lo[order]
        claimed_hi = claimed_hi[order]
    drt.add_all(o_file, *np.concatenate(entries, axis=1), names)

    # Phase 2 — express every request in region coordinates via the DRT:
    # a stable sort by region keeps each region's pieces in request and
    # logical order, and contiguous pieces of one request merge.
    pieces = drt.translate_many(o_file, off, size)
    position = {name: g for g, name in enumerate(names)}
    mapped = pieces.files != UNMAPPED  # every byte was claimed above
    request = np.repeat(np.arange(len(trace)), np.diff(pieces.starts))[mapped]
    region_of = np.array([position[name] for name in pieces.names], dtype=np.int64)
    where = region_of[pieces.files[mapped]]
    order = np.argsort(where, kind="stable")
    where = where[order]
    request = request[order]
    starts = pieces.offsets[mapped][order]
    lengths = pieces.lengths[mapped][order]
    head = np.ones(where.size, dtype=bool)
    head[1:] = (
        (where[1:] != where[:-1])
        | (request[1:] != request[:-1])
        | (starts[:-1] + lengths[:-1] != starts[1:])
    )
    heads = np.flatnonzero(head)
    if heads.size:
        lengths = np.add.reduceat(lengths, heads)
    request = request[heads]
    is_read = d["op"][request] == OP_NAMES.index(READ)
    ids = np.full(request.size, -1) if bursts is None else bursts[request]
    columns = starts[heads], lengths, is_read, ids.astype(np.int64)
    bounds = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(np.bincount(where[heads], minlength=len(names)), out=bounds[1:])
    regions = [
        RegionPlan(name, g, int(sizes[g]), *(c[lo:hi] for c in columns))
        for g, (name, lo, hi) in enumerate(zip(names, bounds[:-1], bounds[1:]))
        if sizes[g] or hi > lo
    ]
    migrated = int(sizes.sum())
    return ReorderPlan(o_file=o_file, regions=regions, drt=drt, migrated_bytes=migrated)

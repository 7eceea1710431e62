"""The Data Reorganizer — MHA's reordering phase (§III-E).

Given a trace and a request grouping, the reorganizer:

1. walks each group's requests **ordered by their offsets within the
   original file** and appends each request's not-yet-claimed bytes to
   the group's region, so "a later data block is moved to be adjacent
   to the first data block it is similar to";
2. emits a :class:`~repro.core.drt.DRTEntry` per migrated extent,
   producing the complete Data Reordering Table;
3. re-expresses every request in region coordinates (the
   :class:`RegionRequest` lists), which is what the Layout Determinator
   evaluates the cost model over — the whole point of reordering is
   that those post-migration offsets are contiguous per pattern.

Bytes accessed by requests from several groups are claimed by the first
group that reaches them (earlier groups hold requests the clustering
deemed denser/first); later requests still find them through the DRT,
just in a foreign region.  Bytes never accessed stay in the original
file and fall through the redirector unmapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "RegionRequest",
    "RegionPlan",
    "ReorderPlan",
    "reorganize",
    "reorganize_arrays",
]


@dataclass(frozen=True)
class RegionRequest:
    """A request (fragment) expressed in region-local coordinates.

    ``burst`` identifies the simultaneous request group the original
    record belonged to (see
    :func:`repro.tracing.analysis.burst_ids_of`); fragments of records
    issued together share an id, letting the determinator evaluate the
    exact burst completion times.
    """

    offset: int
    length: int
    op: str
    burst: int = -1

    @property
    def is_read(self) -> bool:
        return self.op == READ


@dataclass
class RegionPlan:
    """One reordered region: its identity, size, and resident requests."""

    name: str
    group: int
    size: int = 0
    requests: list[RegionRequest] = field(default_factory=list)

    def request_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The determinator's input: (offsets, lengths, is_read, burst_ids)."""
        k = len(self.requests)
        offsets = np.empty(k, dtype=np.int64)
        lengths = np.empty(k, dtype=np.int64)
        is_read = np.empty(k, dtype=bool)
        bursts = np.empty(k, dtype=np.int64)
        for i, r in enumerate(self.requests):
            offsets[i] = r.offset
            lengths[i] = r.length
            is_read[i] = r.is_read
            bursts[i] = r.burst if r.burst >= 0 else -(i + 1)  # singleton
        return offsets, lengths, is_read, bursts

    def max_request(self) -> int:
        """Largest resident request fragment (``r_max`` for RSSD)."""
        return max((r.length for r in self.requests), default=0)


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
    if drt is None:
        drt = DRT()

    claimed = IntervalSet()
    regions = [
        RegionPlan(name=region_name(o_file, g), group=g)
        for g in range(grouping.k)
    ]
    migrated = 0

    # Phase 1 — claim bytes group by group, offset order inside a group.
    for region in regions:
        member_indices = grouping.members(region.group)
        members = sorted((trace[int(i)] for i in member_indices),
                         key=lambda r: (r.offset, r.timestamp))
        for record in members:
            for gap_start, gap_end in claimed.add(record.offset, record.end):
                entry = DRTEntry(
                    o_file=o_file,
                    o_offset=gap_start,
                    length=gap_end - gap_start,
                    r_file=region.name,
                    r_offset=region.size,
                )
                drt.add(entry)
                region.size += entry.length
                migrated += entry.length

    # Phase 2 — express every request in region coordinates via the DRT.
    by_name = {r.name: r for r in regions}
    for record in trace:
        burst = bursts.get(record, -1) if bursts else -1
        # accumulate this record's fragments per region, merging extents
        # that stay contiguous within the same region
        pending: dict[str, RegionRequest] = {}
        for extent in drt.translate(o_file, record.offset, record.size):
            if not extent.mapped:
                continue  # cannot happen here: every byte was claimed above
            prev = pending.get(extent.file)
            if prev is not None and prev.offset + prev.length == extent.offset:
                pending[extent.file] = RegionRequest(
                    offset=prev.offset,
                    length=prev.length + extent.length,
                    op=record.op,
                    burst=burst,
                )
            else:
                if prev is not None:
                    by_name[extent.file].requests.append(prev)
                pending[extent.file] = RegionRequest(
                    offset=extent.offset,
                    length=extent.length,
                    op=record.op,
                    burst=burst,
                )
        for name, fragment in pending.items():
            by_name[name].requests.append(fragment)

    # drop regions that ended up empty (possible when another group
    # claimed every byte the group touched)
    regions = [r for r in regions if r.size > 0 or r.requests]
    return ReorderPlan(o_file=o_file, regions=regions, drt=drt, migrated_bytes=migrated)


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
    if drt is None:
        drt = DRT()

    d = trace.data
    off = d["offset"]
    size = d["size"]
    ts = d["timestamp"]
    regions = [
        RegionPlan(name=region_name(o_file, g), group=g)
        for g in range(grouping.k)
    ]

    # Phase 1 — claim bytes group by group, offset order inside a group.
    # np.lexsort is stable, matching the reference's sorted() on the
    # (offset, timestamp) key over ascending member indices.
    claimed_lo = np.empty(0, dtype=np.int64)
    claimed_hi = np.empty(0, dtype=np.int64)
    entries: list[DRTEntry] = []
    for region in regions:
        members = grouping.members(region.group)
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
        r_offsets = np.cumsum(lengths) - lengths
        region.size = int(lengths.sum())
        entries.extend(
            DRTEntry(
                o_file=o_file,
                o_offset=start,
                length=length,
                r_file=region.name,
                r_offset=r_offset,
            )
            for start, length, r_offset in zip(
                gap_lo.tolist(), lengths.tolist(), r_offsets.tolist()
            )
        )
        # claims never overlap, so sorting by start keeps ends sorted
        claimed_lo = np.concatenate((claimed_lo, gap_lo))
        claimed_hi = np.concatenate((claimed_hi, gap_hi))
        order = np.argsort(claimed_lo, kind="stable")
        claimed_lo = claimed_lo[order]
        claimed_hi = claimed_hi[order]
    drt.add_all(entries)
    migrated = sum(r.size for r in regions)

    # Phase 2 — express every request in region coordinates via the DRT:
    # a stable sort by region keeps each region's pieces in request and
    # logical order, and contiguous pieces of one request merge.
    pieces = drt.translate_many(o_file, off, size)
    position = {r.name: i for i, r in enumerate(regions)}
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
    ops = d["op"][request].tolist()
    burst_ids = bursts[request].tolist() if bursts is not None else [-1] * heads.size
    fragments = [
        RegionRequest(offset=o, length=n, op=OP_NAMES[op], burst=b)
        for o, n, op, b in zip(starts[heads].tolist(), lengths.tolist(), ops, burst_ids)
    ]
    bounds = np.zeros(len(regions) + 1, dtype=np.int64)
    np.cumsum(np.bincount(where[heads], minlength=len(regions)), out=bounds[1:])
    for g, region in enumerate(regions):
        region.requests = fragments[bounds[g] : bounds[g + 1]]

    regions = [r for r in regions if r.size > 0 or r.requests]
    return ReorderPlan(o_file=o_file, regions=regions, drt=drt, migrated_bytes=migrated)

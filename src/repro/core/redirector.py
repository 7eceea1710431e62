"""The I/O Redirector — MHA's runtime phase (§III-G, §IV-B).

On every file request the redirector (1) determines the requested
regions from the offset/size, (2) looks the extents up in the DRT, and
(3) forwards the operation to the target regions on the underlying
servers.  Extents the DRT does not map fall through to the original
file's layout, so a partially reordered file keeps working — and a DRT
that maps every extent back to the original file (an *identity* DRT)
reproduces the paper's redirection-overhead experiment (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..contracts import twin_of
from ..exceptions import RedirectionError
from ..layouts.base import Layout, SubRequest
from ..layouts.batch import MergedRuns, RunsBuilder, merged_runs_of
from .drt import DRT, TranslatedExtent

__all__ = ["Redirector", "RedirectorStats", "distinct_extents"]


@dataclass
class RedirectorStats:
    """Operation counters for overhead analysis (Fig. 14)."""

    requests: int = 0
    translated_extents: int = 0
    fallthrough_extents: int = 0
    fragments: int = 0

    def reset(self) -> None:
        self.requests = 0
        self.translated_extents = 0
        self.fallthrough_extents = 0
        self.fragments = 0


class Redirector:
    """Translates original-file requests into per-server fragments.

    Parameters
    ----------
    drt:
        The Data Reordering Table.
    region_layouts:
        Layout for each reordered region file (from the Placer).
    original_layouts:
        Layout for each *original* file, used for unmapped extents.
    """

    def __init__(
        self,
        drt: DRT,
        region_layouts: dict[str, Layout],
        original_layouts: dict[str, Layout],
    ) -> None:
        self._drt = drt
        self._regions = dict(region_layouts)
        self._originals = dict(original_layouts)
        self.stats = RedirectorStats()

    @property
    def drt(self) -> DRT:
        return self._drt

    def layout_for(self, file: str) -> Layout:
        """The fall-through layout of an original file."""
        try:
            return self._originals[file]
        except KeyError:
            raise RedirectionError(f"no original layout for file {file!r}") from None

    def _target_layout(
        self, file: str, extent: TranslatedExtent, weight: int = 1
    ) -> Layout:
        """The layout serving one translated extent; counts its kind
        ``weight`` times (once per request that repeats the extent)."""
        if extent.mapped:
            self.stats.translated_extents += weight
            try:
                return self._regions[extent.file]
            except KeyError:
                raise RedirectionError(
                    f"DRT points to region {extent.file!r} with no layout"
                ) from None
        self.stats.fallthrough_extents += weight
        return self.layout_for(file)

    def _assemble(
        self, file: str, extents: Sequence[TranslatedExtent], weight: int = 1
    ) -> list[SubRequest]:
        """Map translated extents through their layouts, rebasing the
        fragments into the original file's coordinate space; counts
        them ``weight`` times."""
        fragments: list[SubRequest] = []
        for extent in extents:
            layout = self._target_layout(file, extent, weight)
            base = extent.logical_offset - extent.offset
            for frag in layout.map_extent(extent.offset, extent.length):
                fragments.append(
                    SubRequest(
                        server=frag.server,
                        obj=frag.obj,
                        offset=frag.offset,
                        length=frag.length,
                        logical_offset=base + frag.logical_offset,
                    )
                )
        self.stats.fragments += weight * len(fragments)
        return fragments

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Resolve a request into server fragments, via the DRT.

        Fragment ``logical_offset`` values are in the *original* file's
        coordinate space, so callers can verify tiling and reassemble
        data irrespective of where the bytes physically moved.
        """
        self.stats.requests += 1
        return self._assemble(file, self._drt.translate(file, offset, length))

    @twin_of(
        "repro.core.redirector:Redirector.map_request",
        kind="reduction",
        param_map={"offset": "offsets", "length": "lengths"},
        harness="redirector_runs",
    )
    def merged_runs(
        self, file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        """Batch-map requests straight to columnar *merged* runs.

        Each distinct ``(offset, length)`` extent of the batch is
        translated and mapped once, and every request repeating it gets
        its runs: an application's subsequent runs revisit the extents
        its profiled run touched.  Extents whose translation is a
        single piece — the common case once a file is fully reordered,
        and always the case for an identity DRT — are grouped per
        target layout and pushed through its vectorized kernel.
        Multi-piece extents take the exact object path.  Statistics
        count every request, as :meth:`map_request` does; the DRT's
        hot-entry counters count distinct extents.
        """
        off = np.asarray(offsets, dtype=np.int64).reshape(-1)
        lng = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if off.shape != lng.shape:
            raise RedirectionError(
                f"offsets ({off.size}) and lengths ({lng.size}) must match"
            )
        repeats = distinct_extents(off, lng)
        if repeats is None:
            return self._distinct_runs(file, off, lng, np.ones(off.size, np.int64))
        first, inverse = repeats
        weights = np.bincount(inverse)
        distinct = self._distinct_runs(file, off[first], lng[first], weights)
        return distinct.take(inverse, distinct.n_fragments)

    def _distinct_runs(
        self, file: str, off: np.ndarray, lng: np.ndarray, weights: np.ndarray
    ) -> MergedRuns:
        """Merged runs of distinct extents, extent ``k`` standing for
        ``weights[k]`` requests in the statistics and in
        ``n_fragments``."""
        extents_per = self._drt.translate_many(file, off, lng)
        counts = weights.tolist()
        self.stats.requests += sum(counts)
        builder = RunsBuilder(len(extents_per))
        # one kernel call per (layout, weight): the kernels report
        # pre-merge fragments per call, not per extent
        groups: dict[
            tuple[int, int], tuple[Layout, list[int], list[int], list[int], list[int]]
        ] = {}
        for item, extents in enumerate(extents_per):
            if not extents:
                continue
            weight = counts[item]
            if len(extents) > 1:
                fragments = self._assemble(file, extents, weight)
                builder.place_fragments(item, fragments)  # counts them once
                builder.add_fragments((weight - 1) * len(fragments))
                continue
            extent = extents[0]
            layout = self._target_layout(file, extent, weight)
            key = (id(layout), weight)
            group = groups.get(key)
            if group is None:
                group = (layout, [], [], [], [])
                groups[key] = group
            group[1].append(item)
            group[2].append(extent.offset)
            group[3].append(extent.length)
            group[4].append(extent.logical_offset - extent.offset)
        for (_, weight), (layout, items, offs, lens, bases) in groups.items():
            runs = merged_runs_of(layout, offs, lens)
            self.stats.fragments += weight * runs.n_fragments
            builder.add_fragments(weight * runs.n_fragments)
            for k, item in enumerate(items):
                builder.place(item, runs, k, bases[k])
        return builder.build()


def distinct_extents(
    offsets: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct ``(offset, length)`` pairs of a batch, or ``None``
    when no pair repeats.

    Returns ``(first, inverse)``: ``first[k]`` is the index of the
    ``k``-th distinct pair's first occurrence, in order of first
    occurrence, and ``inverse[i]`` is request ``i``'s distinct pair.
    """
    n = offsets.size
    if n < 2:
        return None
    order = np.lexsort((lengths, offsets))
    so = offsets[order]
    sl = lengths[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(so[1:], so[:-1], out=new[1:])
    new[1:] |= sl[1:] != sl[:-1]
    if new.all():
        return None
    # lexsort is stable, so a run of equal pairs starts at its first
    # occurrence; rank the runs by it
    firsts = order[new]
    rank = np.argsort(firsts, kind="stable")
    relabel = np.empty(rank.size, dtype=np.int64)
    relabel[rank] = np.arange(rank.size)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = relabel[np.cumsum(new) - 1]
    return firsts[rank], inverse

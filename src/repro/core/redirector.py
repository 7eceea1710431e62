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

from ..contracts import twin_of
from ..exceptions import RedirectionError
from ..layouts.base import Layout, SubRequest
from ..layouts.batch import MergedRuns, RunsBuilder, merged_runs_of
from .drt import DRT, TranslatedExtent

__all__ = ["Redirector", "RedirectorStats"]


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

    def _target_layout(self, file: str, extent: TranslatedExtent) -> Layout:
        """The layout serving one translated extent (counts its kind)."""
        if extent.mapped:
            self.stats.translated_extents += 1
            try:
                return self._regions[extent.file]
            except KeyError:
                raise RedirectionError(
                    f"DRT points to region {extent.file!r} with no layout"
                ) from None
        self.stats.fallthrough_extents += 1
        return self.layout_for(file)

    def _assemble(
        self, file: str, extents: Sequence[TranslatedExtent]
    ) -> list[SubRequest]:
        """Map translated extents through their layouts, rebasing the
        fragments into the original file's coordinate space."""
        fragments: list[SubRequest] = []
        for extent in extents:
            layout = self._target_layout(file, extent)
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
        self.stats.fragments += len(fragments)
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

        Records whose translation is a single extent — the common case
        once a file is fully reordered, and always the case for an
        identity DRT — are grouped per target layout and pushed through
        its vectorized kernel.  Multi-extent records take the exact
        object path.  Statistics totals match :meth:`map_request`.
        """
        extents_per = self._drt.translate_many(file, offsets, lengths)
        self.stats.requests += len(extents_per)
        builder = RunsBuilder(len(extents_per))
        groups: dict[
            int, tuple[Layout, list[int], list[int], list[int], list[int]]
        ] = {}
        for item, extents in enumerate(extents_per):
            if not extents:
                continue
            if len(extents) > 1:
                builder.place_fragments(item, self._assemble(file, extents))
                continue
            extent = extents[0]
            layout = self._target_layout(file, extent)
            group = groups.get(id(layout))
            if group is None:
                group = (layout, [], [], [], [])
                groups[id(layout)] = group
            group[1].append(item)
            group[2].append(extent.offset)
            group[3].append(extent.length)
            group[4].append(extent.logical_offset - extent.offset)
        for layout, items, offs, lens, bases in groups.values():
            runs = merged_runs_of(layout, offs, lens)
            self.stats.fragments += runs.n_fragments
            builder.add_fragments(runs.n_fragments)
            for k, item in enumerate(items):
                builder.place(item, runs, k, bases[k])
        return builder.build()

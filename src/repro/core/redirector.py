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

from typing import Sequence

import numpy as np

from ..contracts import twin_of
from ..exceptions import RedirectionError
from ..layouts.base import FragmentColumns, Layout, SubRequest
from ..layouts.batch import MergedRuns, merged_runs_of, runs_from_columns
from .drt import DRT, UNMAPPED, TranslatedExtent

__all__ = ["Redirector", "distinct_extents"]


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

    @property
    def drt(self) -> DRT:
        return self._drt

    def layout_for(self, file: str) -> Layout:
        """The fall-through layout of an original file."""
        try:
            return self._originals[file]
        except KeyError:
            raise RedirectionError(f"no original layout for file {file!r}") from None

    def _region_layout(self, region: str) -> Layout:
        """The layout of a region file the DRT points to."""
        try:
            return self._regions[region]
        except KeyError:
            raise RedirectionError(
                f"DRT points to region {region!r} with no layout"
            ) from None

    def _assemble(
        self, out: FragmentColumns, file: str, extents: Sequence[TranslatedExtent]
    ) -> None:
        """Map translated extents through their layouts into ``out``,
        rebasing the fragments into the original file's coordinate
        space."""
        for extent in extents:
            layout = (
                self._region_layout(extent.file)
                if extent.mapped
                else self.layout_for(file)
            )
            shift = extent.logical_offset - extent.offset
            layout.fragment_columns(out, extent.offset, extent.length, shift)

    def fragment_columns(
        self, out: FragmentColumns, file: str, offset: int, length: int
    ) -> None:
        """:meth:`map_request`'s fragments, appended to ``out``."""
        self._assemble(out, file, self._drt.translate(file, offset, length))

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Resolve a request into server fragments, via the DRT.

        Fragment ``logical_offset`` values are in the *original* file's
        coordinate space, so callers can verify tiling and reassemble
        data irrespective of where the bytes physically moved.
        """
        out = FragmentColumns()
        self.fragment_columns(out, file, offset, length)
        return out.subrequests()

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
        Multi-piece extents take the exact object path.  The DRT's
        hot-entry counters are left to the per-record path.
        """
        off = np.asarray(offsets, dtype=np.int64).reshape(-1)
        lng = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if off.shape != lng.shape:
            raise RedirectionError(
                f"offsets ({off.size}) and lengths ({lng.size}) must match"
            )
        repeats = distinct_extents(off, lng)
        if repeats is None:
            runs, owner = self._distinct_runs(file, off, lng)
            return runs.take(owner)
        first, inverse = repeats
        runs, owner = self._distinct_runs(file, off[first], lng[first])
        return runs.take(owner[inverse])

    def _distinct_runs(
        self, file: str, off: np.ndarray, lng: np.ndarray
    ) -> tuple[MergedRuns, np.ndarray]:
        """Merged runs of distinct extents: extent ``k``'s runs are
        extent ``owner[k]`` of the returned batch.

        The batch concatenates the single-piece extents' kernel calls,
        one per target file (a single piece's runs do not depend on
        where it sits in the original file), then the multi-piece
        extents' object-path runs.
        """
        pieces = self._drt.translate_many(file, off, lng)
        per_extent = np.diff(pieces.starts)
        owner = np.zeros(off.size, dtype=np.int64)
        parts: list[MergedRuns] = []
        n_extents = 0

        single = np.flatnonzero(per_extent == 1)
        piece = pieces.starts[single]
        code = pieces.files[piece]
        order = np.argsort(code, kind="stable")
        code = code[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = code[1:] != code[:-1]
        bounds = [*np.flatnonzero(head).tolist(), order.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            c = int(code[lo])
            layout = (
                self.layout_for(file)
                if c == UNMAPPED
                else self._region_layout(pieces.names[c])
            )
            at = piece[order[lo:hi]]
            parts.append(
                merged_runs_of(
                    layout, pieces.offsets[at].tolist(), pieces.lengths[at].tolist()
                )
            )
            owner[single[order[lo:hi]]] = n_extents + np.arange(hi - lo)
            n_extents += hi - lo

        for item in np.flatnonzero(per_extent > 1).tolist():
            fragments = FragmentColumns()
            self._assemble(fragments, file, pieces.extents(item))
            parts.append(runs_from_columns(fragments))
            owner[item] = n_extents
            n_extents += 1

        empty = per_extent == 0
        if empty.any():
            parts.append(MergedRuns([], [], [0, 0]))
            owner[empty] = n_extents

        return MergedRuns.concat(parts), owner


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

"""Layout interface: mapping logical file extents to per-server fragments.

A *layout* answers the question a PFS client asks on every request:
which servers hold the bytes ``[offset, offset + length)`` of this
file/region, and at what offsets inside each server's storage object?
The answer is a list of :class:`SubRequest` fragments that **tile** the
request: contiguous in logical order, non-overlapping, covering every
byte exactly once.  Those tiling invariants are property-tested in
``tests/layouts``.  Each layout does its stripe arithmetic once, in
:meth:`Layout.fragment_columns`, which appends the fragments to a
:class:`FragmentColumns`; ``map_extent`` wraps it.  Each layout also
has a batch kernel, :meth:`Layout.merged_extent_runs`, which maps many
extents straight to their merged runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..exceptions import LayoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .batch import MergedRuns

__all__ = ["FragmentColumns", "SubRequest", "Layout", "check_tiling"]


@dataclass(frozen=True)
class SubRequest:
    """One contiguous fragment of a request on one server.

    Attributes
    ----------
    server:
        Index of the data server in the cluster's server list.
    obj:
        Storage-object identifier on that server.  Each logical file or
        reordered region is a distinct object, so different regions
        never collide in a server's address space (in OrangeFS terms,
        each is a separate datafile handle).
    offset:
        Byte offset inside the server object.
    length:
        Fragment length in bytes (> 0).
    logical_offset:
        Offset in the logical file/region this fragment covers; used to
        verify tiling and to re-assemble read data.
    """

    server: int
    obj: str
    offset: int
    length: int
    logical_offset: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise LayoutError(f"fragment length must be > 0, got {self.length}")
        if self.offset < 0 or self.logical_offset < 0:
            raise LayoutError("fragment offsets must be non-negative")


class FragmentColumns:
    """Fragments as columns, one list per :class:`SubRequest` field.

    Layouts and file views append to it (``fragment_columns``), so a
    caller that only needs some fields builds no object per fragment.
    """

    __slots__ = ("servers", "objs", "offsets", "lengths", "logicals")

    def __init__(self) -> None:
        self.servers: list[int] = []
        self.objs: list[str] = []
        self.offsets: list[int] = []
        self.lengths: list[int] = []
        self.logicals: list[int] = []

    def __len__(self) -> int:
        return len(self.servers)

    def subrequests(self) -> list[SubRequest]:
        """The fragments as :class:`SubRequest` objects, in order."""
        return [
            SubRequest(*row)
            for row in zip(
                self.servers, self.objs, self.offsets, self.lengths, self.logicals
            )
        ]


class Layout(abc.ABC):
    """Maps logical extents of one file/region onto server objects."""

    #: storage-object label fragments from this layout carry
    obj: str

    @property
    @abc.abstractmethod
    def servers(self) -> Sequence[int]:
        """Indices of the servers this layout may place data on."""

    @abc.abstractmethod
    def fragment_columns(
        self, out: FragmentColumns, offset: int, length: int, shift: int = 0
    ) -> None:
        """Append the fragments of ``[offset, offset+length)`` to ``out``,
        each logical offset raised by ``shift``.

        Fragments come in ascending logical order and tile the extent
        exactly; a zero-length extent appends nothing.  Raises
        :class:`LayoutError` for a negative offset or length.
        """

    def map_extent(self, offset: int, length: int) -> list[SubRequest]:
        """Split ``[offset, offset+length)`` into per-server fragments.

        Fragments are returned in ascending ``logical_offset`` order and
        tile the extent exactly.  A zero-length extent maps to ``[]``.
        """
        out = FragmentColumns()
        self.fragment_columns(out, offset, length)
        return out.subrequests()

    @abc.abstractmethod
    def merged_extent_runs(
        self, offsets: Sequence[int], lengths: Sequence[int]
    ) -> "MergedRuns":
        """Columnar *merged* runs for a batch of extents.

        Extent ``k``'s runs have the servers and lengths, in order, of
        ``merge_fragments(map_extent(offsets[k], lengths[k]))``.  Raises
        :class:`LayoutError` when the two columns differ in length or
        hold a negative value.
        """


def check_tiling(offset: int, length: int, fragments: Iterable[SubRequest]) -> None:
    """Raise :class:`LayoutError` unless ``fragments`` tile the extent.

    Used by tests and by :class:`repro.pfs.storage.DataClient`, which
    checks every fragment list it moves a payload through.
    """
    cursor = offset
    for frag in fragments:
        if frag.logical_offset != cursor:
            raise LayoutError(
                f"tiling gap/overlap at logical offset {cursor}: fragment "
                f"starts at {frag.logical_offset}"
            )
        cursor += frag.length
    if cursor != offset + length:
        raise LayoutError(
            f"tiling covers [{offset}, {cursor}) but extent is "
            f"[{offset}, {offset + length})"
        )

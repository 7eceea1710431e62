"""Scheme interface: from a (cluster, trace) pair to a runtime file view.

A *scheme* is a layout policy — DEF, AAL, HARL or MHA.  Building a
scheme performs whatever off-line analysis the policy calls for and
returns a *file view*: the runtime object the PFS client maps requests
through (see :class:`repro.pfs.replay.FileView`).
"""

from __future__ import annotations

import abc
from typing import Sequence

from ..cluster import ClusterSpec
from ..contracts import twin_of
from ..exceptions import LayoutError
from ..layouts.base import FragmentColumns, Layout, SubRequest
from ..layouts.batch import MergedRuns, merged_runs_of
from ..tracing.columnar import ColumnarTrace
from ..tracing.record import Trace

__all__ = ["LayoutView", "Scheme"]


class LayoutView:
    """A static per-file layout table (what DEF/AAL/HARL resolve to)."""

    def __init__(self, layouts: dict[str, Layout], default: Layout | None = None) -> None:
        self._layouts = dict(layouts)
        self._default = default

    def layout_for(self, file: str) -> Layout:
        layout = self._layouts.get(file, self._default)
        if layout is None:
            raise LayoutError(f"no layout for file {file!r} and no default")
        return layout

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Resolve a request through the file's static layout."""
        return self.layout_for(file).map_extent(offset, length)

    def fragment_columns(
        self, out: FragmentColumns, file: str, offset: int, length: int
    ) -> None:
        """:meth:`map_request`'s fragments, appended to ``out``."""
        self.layout_for(file).fragment_columns(out, offset, length)

    @twin_of(
        "repro.schemes.base:LayoutView.map_request",
        kind="reduction",
        param_map={"offset": "offsets", "length": "lengths"},
        harness="layout_view_runs",
    )
    def merged_runs(
        self, file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        """Columnar merged runs for a batch of requests against one file."""
        return merged_runs_of(self.layout_for(file), offsets, lengths)

    def files(self) -> tuple[str, ...]:
        return tuple(self._layouts)


class Scheme(abc.ABC):
    """A data layout policy with an off-line build step."""

    #: short identifier used in reports ("DEF", "AAL", "HARL", "MHA")
    name: str = "?"

    @abc.abstractmethod
    def build(self, spec: ClusterSpec, trace: Trace | ColumnarTrace):
        """Analyze ``trace`` for ``spec`` and return a file view."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

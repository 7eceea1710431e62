"""The composite routing view: premapped per-file runs, one cluster.

Each tenant's layout view is built (and its requests premapped into
columnar :class:`~repro.layouts.batch.MergedRuns`) inside its own
build shard; the shared replay then needs *one* file-view object over
all tenants.  :class:`TenantRoutingView` is that object.  It never
recomputes a mapping: per-file runs arrive precomputed, and the view
just hands them back — valid because tenant namespaces make every file
belong to exactly one tenant, and because every stage of the front end
(admission shift, token-bucket shaping, SCFQ dispatch) preserves each
tenant's internal record order, so the merged trace's per-file request
sequence equals the premapped one.  Both engine entry points verify
that equality instead of assuming it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import LayoutError
from ..layouts.base import SubRequest
from ..layouts.batch import MergedRuns

__all__ = ["TenantRoutingView"]

#: one file's premapped requests: offset and size columns
RequestColumns = tuple[np.ndarray, np.ndarray]


class TenantRoutingView:
    """Serve premapped per-file merged runs to either replay engine.

    ``runs_by_file`` maps each namespaced file to the MergedRuns of its
    requests *in trace record order*; ``requests_by_file`` carries the
    matching offset and size columns for verification.  The flat
    kernel calls :meth:`merged_runs` once per file and gets the stored
    columns back after an order check.  The event engine calls
    :meth:`map_request` record by record in *simulation* order (ranks
    interleave however the queues play out), so that path searches the
    columns for the request's first occurrence instead — valid because
    a layout mapping is a pure function of the request, so identical
    requests share identical runs.
    """

    def __init__(
        self,
        runs_by_file: Mapping[str, MergedRuns],
        requests_by_file: Mapping[str, RequestColumns],
    ) -> None:
        if set(runs_by_file) != set(requests_by_file):
            raise LayoutError("runs and request sequences must cover the same files")
        self._runs = dict(runs_by_file)
        self._requests = dict(requests_by_file)
        for file, runs in self._runs.items():
            offsets, sizes = self._requests[file]
            if not runs.n_extents == len(offsets) == len(sizes):
                raise LayoutError(
                    f"file {file!r}: {runs.n_extents} premapped extents for "
                    f"{len(offsets)} offsets and {len(sizes)} sizes"
                )

    def files(self) -> tuple[str, ...]:
        return tuple(self._runs)

    def _premapped(self, file: str) -> tuple[MergedRuns, RequestColumns]:
        runs = self._runs.get(file)
        if runs is None:
            raise LayoutError(f"no premapped runs for file {file!r}")
        return runs, self._requests[file]

    def merged_runs(
        self, file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        """The premapped columnar runs for one file's full batch."""
        runs, (expected_offsets, expected_sizes) = self._premapped(file)
        if not (
            np.array_equal(offsets, expected_offsets)
            and np.array_equal(lengths, expected_sizes)
        ):
            raise LayoutError(
                f"file {file!r}: replayed request batch diverged from the "
                "premapped sequence (front end reordered a tenant's records?)"
            )
        return runs

    def map_request(self, file: str, offset: int, length: int) -> list[SubRequest]:
        """Order-free per-record mapping (event-engine path)."""
        runs, (offsets, sizes) = self._premapped(file)
        (match,) = np.nonzero((offsets == offset) & (sizes == length))
        if match.size == 0:
            raise LayoutError(
                f"file {file!r}: request ({offset}, {length}) was never premapped"
            )
        return runs.subrequests(int(match[0]))

"""The composite routing view: premapped per-file runs, one cluster.

Each tenant's layout view is built (and its requests premapped into
columnar :class:`~repro.layouts.batch.MergedRuns`) inside its own
build shard; the shared replay then needs *one* file-view object over
all tenants.  :class:`TenantRoutingView` is that object.  The flat
kernel never recomputes a mapping: per-file runs arrive precomputed,
and the view just hands them back — valid because tenant namespaces
make every file belong to exactly one tenant, and because every stage
of the front end (admission shift, token-bucket shaping, SCFQ
dispatch) preserves each tenant's internal record order, so the
merged trace's per-file request sequence equals the premapped one.
The flat entry point verifies that equality instead of assuming it.
The event engine maps each request through the owning tenant's own
view instead.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import LayoutError
from ..layouts.base import SubRequest
from ..layouts.batch import MergedRuns
from ..pfs.replay import FileView
from .namespace import tenant_of_file

__all__ = ["TenantRoutingView"]

#: one file's premapped requests: offset and size columns
RequestColumns = tuple[np.ndarray, np.ndarray]


class TenantRoutingView:
    """Serve premapped per-file merged runs to either replay engine.

    ``runs_by_file`` maps each namespaced file to the MergedRuns of its
    requests *in trace record order*; ``requests_by_file`` carries the
    matching offset and size columns for verification; ``views`` maps
    each tenant to the file view its runs were mapped through, over
    tenant-local file names.  The flat kernel calls
    :meth:`merged_runs` once per file and gets the stored columns back
    after an order check.  The event engine calls :meth:`map_request`
    record by record in *simulation* order (ranks interleave however
    the queues play out), so that path maps the request through its
    tenant's view under the tenant-local name.  All of a request's
    fragments belong to one tenant, and object names only decide which
    of them merge, so the merged runs equal the premapped ones.
    """

    def __init__(
        self,
        runs_by_file: Mapping[str, MergedRuns],
        requests_by_file: Mapping[str, RequestColumns],
        views: Mapping[int, FileView],
    ) -> None:
        if set(runs_by_file) != set(requests_by_file):
            raise LayoutError("runs and request sequences must cover the same files")
        self._runs = dict(runs_by_file)
        self._requests = dict(requests_by_file)
        # namespaced file -> (its tenant's view, tenant-local name)
        self._local: dict[str, tuple[FileView, str]] = {}
        for file, runs in self._runs.items():
            offsets, sizes = self._requests[file]
            if not runs.n_extents == len(offsets) == len(sizes):
                raise LayoutError(
                    f"file {file!r}: {runs.n_extents} premapped extents for "
                    f"{len(offsets)} offsets and {len(sizes)} sizes"
                )
            tenant = tenant_of_file(file)
            view = views.get(tenant) if tenant is not None else None
            if view is None:
                raise LayoutError(f"file {file!r}: no tenant view maps it")
            self._local[file] = (view, file.partition("/")[2])

    def merged_runs(
        self, file: str, offsets: Sequence[int], lengths: Sequence[int]
    ) -> MergedRuns:
        """The premapped columnar runs for one file's full batch."""
        runs = self._runs.get(file)
        if runs is None:
            raise LayoutError(f"no premapped runs for file {file!r}")
        expected_offsets, expected_sizes = self._requests[file]
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
        """Order-free per-record mapping (event-engine path), through
        the owning tenant's view."""
        local = self._local.get(file)
        if local is None:
            raise LayoutError(f"no premapped runs for file {file!r}")
        view, name = local
        return view.map_request(name, offset, length)

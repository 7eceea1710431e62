"""HARL — the heterogeneity-aware region-level layout baseline.

The authors' prior scheme ([8], summarized in §II-B): divide the file
into several *fixed* consecutive regions, and for each region pick the
``<h, s>`` stripe pair minimizing the cost-model time of the requests
that **inherently** fall in that region — no grouping, no migration.
Fidelity notes:

* HARL "uses the average request size as the upper bounds for the
  potential stripe sizes" (§III-F), i.e. the ``"average"`` bound
  policy;
* all schemes share the burst-aware cost evaluation, so the
  MHA-over-HARL delta isolates what the paper presents as the
  contribution: request grouping + data reordering + adaptive search
  bounds (§V-A: HARL "takes both access pattern and server
  heterogeneity into account but without data grouping and
  migration").
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..core.determinator import (
    DEFAULT_STEP,
    check_search_settings,
    determine_stripes,
)
from ..core.params import CostModelParams
from ..core.rst import StripePair
from ..exceptions import ConfigurationError
from ..layouts.base import Layout
from ..layouts.fixed import FixedStripeLayout
from ..layouts.region import Region, RegionLayout
from ..layouts.varied import VariedStripeLayout
from ..tracing.columnar import (
    OP_NAMES,
    ColumnarTrace,
    as_columnar_trace,
    burst_ids_columnar,
)
from ..tracing.record import Trace
from ..units import KiB
from .base import LayoutView, Scheme
from .default import DEFAULT_STRIPE

__all__ = ["HARLScheme"]


class HARLScheme(Scheme):
    """Fixed-region, cost-model-optimized varied striping (no reordering)."""

    name = "HARL"

    def __init__(
        self,
        num_regions: int = 16,
        step: int = DEFAULT_STEP,
        max_eval_requests: int = 4096,
        seed: int = 0,
    ) -> None:
        if num_regions < 1:
            raise ConfigurationError(f"num_regions must be >= 1, got {num_regions}")
        check_search_settings(step=step, max_eval_requests=max_eval_requests)
        self.num_regions = num_regions
        self.step = step
        self.max_eval_requests = max_eval_requests
        self.seed = seed

    def _region_bounds(
        self, extent_end: int, max_request: int = 0
    ) -> list[tuple[int, int]]:
        """Equal consecutive regions covering ``[0, extent_end)``.

        Region boundaries snap to the 4 KB placement granularity and
        the region size is floored at ``8 * max_request`` — a region
        must be much larger than the requests that fall in it, or the
        clipping chops requests into fragments and the per-region
        optimization sees sizes the application never issues.  The last
        region absorbs the remainder.
        """
        if extent_end <= 0:
            return [(0, 4 * KiB)]
        raw = max(1, extent_end // self.num_regions, 8 * max_request)
        size = max(4 * KiB, (raw // (4 * KiB)) * (4 * KiB) or 4 * KiB)
        bounds: list[tuple[int, int]] = []
        start = 0
        while len(bounds) < self.num_regions - 1 and start + size < extent_end:
            bounds.append((start, start + size))
            start += size
        bounds.append((start, max(extent_end, start + size)))
        return bounds

    def build(self, spec: ClusterSpec, trace: Trace | ColumnarTrace) -> LayoutView:
        params = CostModelParams.from_cluster(spec)
        self.decisions: dict[str, StripePair] = {}
        columns = as_columnar_trace(trace)
        layouts: dict[str, Layout] = {}
        for file, indices in columns.file_partition().items():
            sub = columns.take(indices).sorted_by_offset()
            bursts = burst_ids_columnar(sub)
            data = sub.data
            offsets = data["offset"]
            ends = offsets + data["size"]
            is_read = data["op"] == OP_NAMES.index("read")
            _, extent_end = sub.extent()
            bounds = self._region_bounds(extent_end, sub.max_size())
            regions = []
            for idx, (start, end) in enumerate(bounds):
                obj = f"{file}/r{idx}"
                # requests clipped to the region, in region-local
                # coordinates; an untouched region keeps the PFS default
                lo = np.maximum(offsets, start)
                hi = np.minimum(ends, end)
                inside = lo < hi
                if inside.any():
                    pair = determine_stripes(
                        params,
                        lo[inside] - start,
                        hi[inside] - lo[inside],
                        is_read[inside],
                        bursts[inside],
                        step=self.step,
                        bound_policy="average",
                        max_eval_requests=self.max_eval_requests,
                        seed=self.seed,
                    ).pair
                    layout = VariedStripeLayout(
                        spec.hserver_ids, spec.sserver_ids, h=pair.h, s=pair.s, obj=obj
                    )
                    self.decisions[obj] = StripePair(layout.h, layout.s)
                else:
                    layout = VariedStripeLayout(
                        spec.hserver_ids,
                        spec.sserver_ids,
                        h=DEFAULT_STRIPE if spec.num_hservers else 0,
                        s=DEFAULT_STRIPE if spec.num_sservers else 0,
                        obj=obj,
                    )
                regions.append(Region(start=start, end=end, layout=layout))
            layouts[file] = RegionLayout(regions, obj=file)
        default = FixedStripeLayout(spec.server_ids, DEFAULT_STRIPE, obj="file")
        return LayoutView(layouts, default=default)

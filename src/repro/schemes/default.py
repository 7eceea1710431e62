"""DEF — the default PFS layout baseline.

"For DEF, the data are placed on servers with the default stripe size
of 64KB" (§V-A): fixed 64 KB round-robin striping over every server,
oblivious to both the access pattern and the server types.
"""

from __future__ import annotations

from ..cluster import ClusterSpec
from ..layouts.fixed import FixedStripeLayout
from ..tracing.columnar import ColumnarTrace
from ..tracing.record import Trace
from ..units import KiB
from .base import LayoutView, Scheme

__all__ = ["DEFScheme", "DEFAULT_STRIPE"]

#: OrangeFS's default stripe size
DEFAULT_STRIPE = 64 * KiB


class DEFScheme(Scheme):
    """Fixed 64 KB round-robin striping (pattern- and server-oblivious)."""

    name = "DEF"

    def __init__(self, stripe: int = DEFAULT_STRIPE) -> None:
        if stripe <= 0:
            raise ValueError(f"stripe must be > 0, got {stripe}")
        self.stripe = stripe

    def build(self, spec: ClusterSpec, trace: Trace | ColumnarTrace) -> LayoutView:
        layouts = {
            file: FixedStripeLayout(spec.server_ids, self.stripe, obj=file)
            for file in trace.files()
        }
        # unseen files get the same policy
        default = FixedStripeLayout(spec.server_ids, self.stripe, obj="file")
        return LayoutView(layouts, default=default)

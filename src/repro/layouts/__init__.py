"""Striping math: layout interfaces, fixed/varied/region striping.

These modules are pure offset arithmetic with no dependency on the
cost model or the simulator; the DEF/AAL/HARL/MHA *schemes* that decide
which layout to build live in :mod:`repro.schemes`.
"""

from .base import Layout, SubRequest, check_tiling
from .extents import bytes_in_window, per_server_bytes, per_server_bytes_batch
from .fixed import FixedStripeLayout
from .region import Region, RegionLayout
from .varied import VariedStripeLayout

__all__ = [
    "Layout",
    "SubRequest",
    "check_tiling",
    "FixedStripeLayout",
    "VariedStripeLayout",
    "Region",
    "RegionLayout",
    "bytes_in_window",
    "per_server_bytes",
    "per_server_bytes_batch",
]

"""The paper's contribution: the MHA layout optimizer.

Cost model (Eq. 2 / Table I), request grouping (Algorithm 1), data
reordering + DRT, stripe-size determination (Algorithm 2 / RSSD) + RST,
placement, runtime redirection, and the five-phase pipeline tying them
together.
"""

from .cost_model import region_cost, request_cost, request_costs
from .determinator import (
    DEFAULT_STEP,
    StripeDecision,
    determine_stripes,
    search_bounds,
)
from .drt import DRT, DRTEntry, ENTRY_NUMERIC_BYTES, TranslatedExtent
from .features import FeatureSet, extract_features, normalized_distances
from .grouping import (
    DEFAULT_MAX_GROUPS,
    GroupingResult,
    group_requests,
    suggest_k,
)
from .intervals import IntervalSet
from .params import CostModelParams
from .pipeline import (
    MHAPipeline,
    MHAPlan,
    identity_redirector,
    load_plan,
)
from .placer import (
    MigrationStep,
    build_region_layout,
    estimate_migration_time,
    migration_schedule,
    place_regions,
)
from .redirector import Redirector, RedirectorStats
from .reorganizer import RegionPlan, RegionRequest, ReorderPlan, reorganize
from .rst import RST, StripePair

__all__ = [
    "CostModelParams",
    "request_costs",
    "request_cost",
    "region_cost",
    "FeatureSet",
    "extract_features",
    "normalized_distances",
    "GroupingResult",
    "group_requests",
    "suggest_k",
    "DEFAULT_MAX_GROUPS",
    "IntervalSet",
    "DRT",
    "DRTEntry",
    "TranslatedExtent",
    "ENTRY_NUMERIC_BYTES",
    "RST",
    "StripePair",
    "RegionPlan",
    "RegionRequest",
    "ReorderPlan",
    "reorganize",
    "StripeDecision",
    "determine_stripes",
    "search_bounds",
    "DEFAULT_STEP",
    "build_region_layout",
    "place_regions",
    "MigrationStep",
    "migration_schedule",
    "estimate_migration_time",
    "Redirector",
    "RedirectorStats",
    "MHAPipeline",
    "MHAPlan",
    "identity_redirector",
    "load_plan",
]

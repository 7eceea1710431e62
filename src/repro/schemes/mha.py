"""MHA — the paper's migratory heterogeneity-aware scheme.

A thin scheme wrapper over :class:`repro.core.pipeline.MHAPipeline`:
building it runs the full reordering + determination + placement
workflow and returns the runtime :class:`~repro.core.redirector.Redirector`
(which satisfies the replay engine's file-view protocol).  The last
built :class:`~repro.core.pipeline.MHAPlan` stays available on
``self.plan`` for inspection (regions, stripe pairs, DRT size,
migration volume).
"""

from __future__ import annotations

from ..cluster import ClusterSpec
from ..core.pipeline import MHAPipeline, MHAPlan
from ..core.redirector import Redirector
from ..tracing.columnar import ColumnarTrace
from ..tracing.record import Trace
from .base import Scheme

__all__ = ["MHAScheme"]


class MHAScheme(Scheme):
    """Data reordering + adaptive varied striping (the contribution)."""

    name = "MHA"

    def __init__(self, **pipeline_kwargs) -> None:
        self.pipeline_kwargs = pipeline_kwargs
        self.plan: MHAPlan | None = None

    def build(self, spec: ClusterSpec, trace: Trace | ColumnarTrace) -> Redirector:
        pipeline = MHAPipeline(spec, **self.pipeline_kwargs)
        self.plan = pipeline.plan(trace)
        return self.plan.redirector

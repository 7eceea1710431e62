"""Drift detection: does live traffic still match the active plan?

Every region of an MHA plan was sized for one cluster of similar
requests — the grouping centroid (Algorithm 1) recorded when the plan
was built.  A region has **drifted** when the live feature point its
sketch accumulated sits too far from that centroid: the stripe pair the
RSSD search chose was optimal for traffic that no longer arrives.

Distances are *relative* per axis rather than the literal Eq. 1
normalization: Eq. 1 divides by the spread of the whole feature
population, which the off-line pipeline has and a streaming observer
does not (the population is the future).  Dividing each axis deviation
by the centroid coordinate itself gives a scale-free stand-in — a
threshold of 0.5 means "sizes or concurrency moved ~50 % away from
what this region was built for" regardless of whether the region serves
1 KB headers or 64 MB dumps.

A second, independent signal is the **unmapped fraction**: bytes the
active DRT cannot translate fall through to the original layout, so a
workload that starts touching never-reordered ranges degrades without
moving any region's centroid.  Files whose unmapped share exceeds the
threshold are flagged wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.pipeline import MHAPlan
from ..exceptions import ConfigurationError
from .sketch import StreamingSketch

__all__ = ["DriftReport", "DriftDetector", "plan_centroids", "relative_distance"]


def plan_centroids(plan: MHAPlan) -> dict[str, tuple[float, float]]:
    """Per-region ``(size, concurrency)`` centroid of an MHA plan.

    Region *r* of file *f* holds the requests of grouping group
    ``r.group``, so its centroid is ``groupings[f].centers[r.group]``.
    Plans restored from persisted metadata
    (:func:`repro.core.pipeline.load_plan`) carry no groupings and
    yield an empty map — the detector then falls back to the unmapped
    signal only.
    """
    centroids: dict[str, tuple[float, float]] = {}
    for file, reorder in plan.reorder_plans.items():
        grouping = plan.groupings.get(file)
        if grouping is None:
            continue
        for region in reorder.regions:
            if region.group < grouping.centers.shape[0]:
                center = grouping.centers[region.group]
                centroids[region.name] = (float(center[0]), float(center[1]))
    return centroids


def relative_distance(
    point: tuple[float, float], center: tuple[float, float]
) -> float:
    """Scale-free distance between a live feature point and a centroid.

    Each axis deviation is normalized by the centroid coordinate
    (floored at 1.0 so a zero-concurrency axis cannot divide by zero);
    the result is the Euclidean norm of the two relative deviations.
    """
    ds = (point[0] - center[0]) / max(abs(center[0]), 1.0)
    dc = (point[1] - center[1]) / max(abs(center[1]), 1.0)
    return math.hypot(ds, dc)


@dataclass
class DriftReport:
    """Everything one drift check concluded."""

    drifted_regions: list[str] = field(default_factory=list)
    drifted_files: list[str] = field(default_factory=list)
    distances: dict[str, float] = field(default_factory=dict)
    unmapped_fractions: dict[str, float] = field(default_factory=dict)

    @property
    def drifted(self) -> bool:
        return bool(self.drifted_files)

    def __str__(self) -> str:
        if not self.drifted:
            return "no drift"
        parts = [f"files={','.join(self.drifted_files)}"]
        if self.drifted_regions:
            parts.append(f"regions={','.join(self.drifted_regions)}")
        return "drift: " + " ".join(parts)


def _check_detector_settings(
    threshold: float, min_samples: int, unmapped_threshold: float
) -> None:
    """Raise :class:`ConfigurationError` unless ``threshold`` is finite
    and > 0, ``min_samples`` finite and >= 1 and ``unmapped_threshold``
    in (0, 1]."""
    if not 0 < threshold < math.inf:
        raise ConfigurationError(f"threshold must be finite and > 0, got {threshold}")
    if not 1 <= min_samples < math.inf:
        raise ConfigurationError(
            f"min_samples must be finite and >= 1, got {min_samples}"
        )
    if not 0.0 < unmapped_threshold <= 1.0:
        raise ConfigurationError(
            f"unmapped_threshold must be in (0, 1], got {unmapped_threshold}"
        )


class DriftDetector:
    """Compares a :class:`StreamingSketch` against the active plan.

    Parameters
    ----------
    threshold:
        Relative feature distance above which a region counts as
        drifted.
    min_samples:
        Regions with fewer windowed samples are never flagged —
        protects against judging a region on one stray request.
    unmapped_threshold:
        Per-file unmapped byte fraction above which the whole file is
        flagged.
    """

    def __init__(
        self,
        threshold: float = 0.5,
        min_samples: int = 8,
        unmapped_threshold: float = 0.25,
    ) -> None:
        _check_detector_settings(threshold, min_samples, unmapped_threshold)
        self.threshold = threshold
        self.min_samples = min_samples
        self.unmapped_threshold = unmapped_threshold

    def check(self, sketch: StreamingSketch, plan: MHAPlan) -> DriftReport:
        """One drift check; flags drifted regions and their files."""
        report = DriftReport()
        centroids = plan_centroids(plan)
        drifted_files: set[str] = set()
        for region, region_sketch in sorted(sketch.regions.items()):
            center = centroids.get(region)
            if center is None or region_sketch.n < self.min_samples:
                continue
            distance = relative_distance(region_sketch.feature_point(), center)
            report.distances[region] = distance
            if distance > self.threshold:
                report.drifted_regions.append(region)
                drifted_files.add(_region_file(plan, region))
        for file in sketch.files():
            fraction = sketch.unmapped_fraction(file)
            report.unmapped_fractions[file] = fraction
            traffic = sketch.traffic[file]
            observed = traffic.mapped_bytes + traffic.unmapped_bytes
            if fraction > self.unmapped_threshold and observed > 0:
                drifted_files.add(file)
        report.drifted_files = sorted(drifted_files)
        return report


def _region_file(plan: MHAPlan, region: str) -> str:
    """The original file a region belongs to."""
    for file, reorder in plan.reorder_plans.items():
        if any(r.name == region for r in reorder.regions):
            return file
    # regions are named "{file}.region{g}" by convention
    return region.rsplit(".region", 1)[0]

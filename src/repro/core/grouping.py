"""Algorithm 1 — Iterative Request Grouping.

A k-means-style refinement (the paper cites Hartigan & Wong) over the
normalized 2-D feature space of :mod:`repro.core.features`:

* if there are at most ``k`` requests, each center is a randomly
  selected request point (degenerate case of Algorithm 1's first
  branch; every request then forms its own group);
* otherwise, repeat (assign each point to the closest center, recompute
  centers as group means) until the centers stop changing **or three
  iterations have run** — the paper bounds the refinement at three
  passes to keep the off-line cost low;
* ``k`` is capped by ``max_groups`` so the number of regions (and hence
  DRT/RST metadata) stays bounded, per the §III-D tuning note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..numerics import unique_values
from .features import FeatureSet, normalized_distances

__all__ = ["GroupingResult", "group_requests", "suggest_k"]

#: default bound on the number of groups, equal to the region count the
#: fixed-size division of HARL would produce on the paper's workloads
DEFAULT_MAX_GROUPS = 16


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of Algorithm 1.

    ``labels[i]`` is the group index of request ``i`` (always in
    ``0..k-1`` with every group non-empty); ``centers`` are the final
    group centers in raw feature units; ``iterations`` counts refinement
    passes actually run.
    """

    labels: np.ndarray
    centers: np.ndarray
    iterations: int

    @property
    def k(self) -> int:
        """Number of (non-empty) groups."""
        return self.centers.shape[0]

    def members(self, group: int) -> np.ndarray:
        """Indices of the requests assigned to ``group``."""
        return np.flatnonzero(self.labels == group)

    def group_sizes(self) -> np.ndarray:
        """Request count per group."""
        return np.bincount(self.labels, minlength=self.k)


def _compact(labels: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty groups and renumber labels densely."""
    used, new_labels = np.unique(labels, return_inverse=True)
    return new_labels, centers[used]


def group_requests(
    features: FeatureSet,
    k: int,
    seed: int = 0,
    max_iterations: int = 3,
) -> GroupingResult:
    """Run Algorithm 1 on a feature set.

    Parameters
    ----------
    features:
        The ``(size, concurrency)`` points.
    k:
        Requested number of groups (before the non-empty compaction).
    seed:
        RNG seed for the random center initialization, making the whole
        pipeline deterministic.
    max_iterations:
        The paper's refinement bound (3).
    """
    if k <= 0:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    n = len(features)
    if n == 0:
        return GroupingResult(
            labels=np.zeros(0, dtype=np.intp),
            centers=np.zeros((0, 2)),
            iterations=0,
        )
    rng = np.random.default_rng(seed)
    points = features.points

    if n <= k:
        # Algorithm 1 line 2-5: with <= k requests every request point
        # can seed its own center; each request is its own group.
        order = rng.permutation(n)
        centers = points[order]
        labels = np.empty(n, dtype=np.intp)
        labels[order] = np.arange(n)
        return GroupingResult(labels=labels, centers=centers, iterations=0)

    # Distinct random request points as initial centers.  Choosing
    # duplicated points would create dead centers, so prefer unique
    # feature rows when enough exist.
    unique_points = unique_values(points, axis=0)
    if unique_points.shape[0] >= k:
        idx = rng.choice(unique_points.shape[0], size=k, replace=False)
        centers = unique_points[idx].astype(np.float64)
    else:
        idx = rng.choice(n, size=k, replace=False)
        centers = points[idx].astype(np.float64)

    labels = np.zeros(n, dtype=np.intp)
    iterations = 0
    for _ in range(max_iterations):
        distances = normalized_distances(features, centers)
        labels = distances.argmin(axis=1).astype(np.intp)
        new_centers = centers.copy()
        for g in range(centers.shape[0]):
            members = labels == g
            if members.any():
                new_centers[g] = points[members].mean(axis=0)
        iterations += 1
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers

    labels, centers = _compact(labels, centers)
    return GroupingResult(labels=labels, centers=centers, iterations=iterations)


def suggest_k(n_requests: int, distinct_patterns: int, max_groups: int = DEFAULT_MAX_GROUPS) -> int:
    """Pick ``k`` bounded by the §III-D metadata cap.

    Uses the number of distinct feature patterns as the natural group
    count, clamped to ``[1, max_groups]`` and to the request count.
    """
    if max_groups <= 0:
        raise ConfigurationError(f"max_groups must be >= 1, got {max_groups}")
    if n_requests <= 0:
        return 1
    return max(1, min(distinct_patterns, max_groups, n_requests))

"""The Layout Determinator — Algorithm 2 (RSSD, Region Stripe Size
Determination).

For each region, iterate candidate stripe pairs ``<h, s>``:

* ``h`` runs from 0 to an upper bound ``B_h`` in ``step`` (4 KB)
  increments — ``h == 0`` is the extreme configuration that places data
  only on SServers;
* ``s`` runs from ``h + step`` to ``B_s`` — SServers never get smaller
  stripes than HServers, "to avoid load imbalance among heterogeneous
  servers";
* each pair's ``Reg_cost`` is the summed cost-model time of every
  request in the region (reads through :math:`T_R`, writes through
  :math:`T_W`), and the cheapest pair wins.

**Bound policies** (the paper's §III-F refinement over HARL):

* ``"adaptive"`` (MHA): when the region's largest request ``r_max`` is
  smaller than ``(M + N) * 64KB`` the bounds are ``B_h = B_s = r_max``
  (search widely, the space is small anyway); otherwise
  ``B_h = r_max / M`` and ``B_s = r_max / N`` (push large requests to
  span all servers, prune the rest of the space).
* ``"average"`` (HARL): both bounds are the region's *average* request
  size, the earlier work's policy MHA improves on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_SAMPLE_SEED
from ..exceptions import ConfigurationError
from ..layouts.extents import length_bands
from ..units import KiB
from .cost_model import (
    BurstCostKernel,
    burst_bound_slack,
    burst_cost_bounds,
    burst_costs,
    burst_costs_grid,
    grid_chunks,
)
from .params import CostModelParams
from .rst import StripePair

__all__ = [
    "StripeDecision",
    "check_search_settings",
    "determine_stripes",
    "search_bounds",
    "stripe_candidates",
]

#: Algorithm 2's default step (user-configurable)
DEFAULT_STEP = 4 * KiB

#: per-server unit of Algorithm 2's bound threshold (line 3).  The
#: paper uses the PFS default stripe, 64 KB; our calibrated cluster
#: model has a higher startup share per sub-request, which moves the
#: point where striping a request over every server stops paying off,
#: so the default here is one notch higher.  Pass ``threshold_unit``
#: to :func:`search_bounds` / ``determine_stripes`` to restore the
#: paper's literal constant.
BOUND_THRESHOLD_UNIT = 128 * KiB

#: the search engines :func:`determine_stripes` accepts
ENGINES = ("grid", "scalar")
#: the bound policies :func:`search_bounds` accepts
BOUND_POLICIES = ("adaptive", "average")

#: fewest requests per (op, power-of-two length band) group for which
#: the burst-mode grid search computes its lower bound.  The bound costs
#: a few lookups per candidate, server and group, the grid kernel work
#: per candidate and server grows with the requests, so thin groups do
#: not pay.  Measured per search, bound on against off (2-vCPU VM): the
#: RSSD microbench's random region (128 requests, 13 groups) took 1.4x
#: as long; fig07's multi-block regions of 30 and 34 one-group requests
#: 1.1-1.2x, of 82 on a 560-candidate grid 1.1x, and of 78 and 159
#: 0.6-0.8x.  The crossover lies between 34 and 78.
MIN_GROUP_REQUESTS = 64


@dataclass(frozen=True)
class StripeDecision:
    """The outcome of one RSSD search."""

    pair: StripePair
    cost: float
    candidates: int
    bound_h: int
    bound_s: int
    #: candidates the cost kernel scored; below ``candidates`` only when
    #: the grid engine's lower bound ruled the rest out
    evaluated: int

    @property
    def h(self) -> int:
        return self.pair.h

    @property
    def s(self) -> int:
        return self.pair.s


def search_bounds(
    params: CostModelParams,
    r_max: int,
    mean_size: float,
    step: int,
    policy: str,
    threshold_unit: int = BOUND_THRESHOLD_UNIT,
) -> tuple[int, int]:
    """Upper bounds ``(B_h, B_s)`` for the stripe search."""
    if policy == "adaptive":
        if r_max < (params.M + params.N) * threshold_unit:
            b_h = b_s = r_max
        else:
            b_h = r_max // max(params.M, 1)
            b_s = r_max // max(params.N, 1)
    elif policy == "average":
        b_h = b_s = int(mean_size)
    else:
        raise ConfigurationError(
            f"unknown bound policy {policy!r}; expected 'adaptive' or 'average'"
        )
    # guarantee a non-empty candidate set even for tiny requests
    b_s = max(b_s, step)
    b_h = max(b_h, 0)
    return b_h, b_s


def check_search_settings(
    engine: str = "grid",
    step: int = DEFAULT_STEP,
    bound_policy: str = "adaptive",
    max_eval_requests: int = 4096,
    max_axis_candidates: int = 64,
) -> None:
    """Raise :class:`ConfigurationError` for RSSD settings no search can
    run with.  :func:`determine_stripes` checks its own arguments here
    before any array work; the pipeline and scheme constructors call it
    too, so a bad setting fails before any file is touched."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown search engine {engine!r}; expected 'grid' or 'scalar'"
        )
    if step <= 0:
        raise ConfigurationError(f"step must be > 0, got {step}")
    if bound_policy not in BOUND_POLICIES:
        raise ConfigurationError(
            f"unknown bound policy {bound_policy!r}; expected 'adaptive' or 'average'"
        )
    if max_eval_requests < 1:
        raise ConfigurationError(
            f"max_eval_requests must be >= 1, got {max_eval_requests}"
        )
    if max_axis_candidates < 1:
        raise ConfigurationError(
            f"max_axis_candidates must be >= 1, got {max_axis_candidates}"
        )


def _bound_pays(lengths: np.ndarray, is_read: np.ndarray, n_candidates: int) -> bool:
    """Whether a burst-mode grid search computes its lower bound: the
    grid spans more than one kernel block, and the region has at least
    :data:`MIN_GROUP_REQUESTS` requests per (op, length band) group."""
    if len(grid_chunks(n_candidates, lengths.shape[0])) < 2:
        return False
    groups = np.unique(2 * length_bands(lengths) + is_read).shape[0]
    return lengths.shape[0] >= MIN_GROUP_REQUESTS * groups


def _pruned_burst_costs(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    burst_ids: np.ndarray,
    h_arr: np.ndarray,
    s_arr: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Summed burst costs of every candidate that could still win.

    Scores candidates in blocks of :func:`grid_chunks` size, in stable
    ascending order of :func:`burst_cost_bounds`, through one
    :class:`BurstCostKernel` (the kernel of :func:`burst_costs_grid`,
    whose buffers every block reuses), and stops before the first block
    whose smallest bound, times ``1 − δ`` (:func:`burst_bound_slack`),
    exceeds the best sum found.  Each skipped candidate's sum is then
    strictly above that best, even after scaling, so it is returned as
    ``inf`` and the first minimum is the full grid's.  Returns the
    ``(G,)`` sums and the number of candidates scored.
    """
    G, K = h_arr.shape[0], offsets.shape[0]
    bound = burst_cost_bounds(params, offsets, lengths, is_read, h_arr, s_arr)
    order = np.argsort(bound, kind="stable")
    kernel = BurstCostKernel(params, offsets, lengths, is_read, burst_ids, G)
    keep = 1.0 - burst_bound_slack(K, kernel.n_bursts)
    sums = np.full(G, np.inf)
    best = np.inf
    scored = 0
    for block in kernel.chunks:
        pick = order[block]
        if bound[pick[0]] * keep > best:
            break
        # contiguous (block, B) rows: the sums' bits are the full grid's
        sums[pick] = kernel.costs(h_arr[pick], s_arr[pick]).sum(axis=1)
        # np.minimum keeps a NaN, and a NaN best never stops the loop
        best = np.minimum(best, sums[pick].min())
        scored += pick.shape[0]
    return sums, scored


def stripe_candidates(
    M: int,
    N: int,
    b_h: int,
    b_s: int,
    h_step: int,
    s_step: int,
    allow_h_zero: bool = True,
    allow_equal_stripes: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 2's ``<h, s>`` candidates as two int64 columns, h-major.

    ``h`` steps from 0 (``h_step`` without ``allow_h_zero``) to ``b_h``,
    keeping that first ``h`` alone when ``b_h`` is below it; for each
    ``h``, ``s`` steps from ``max(h, s_step)`` (``h + s_step`` without
    ``allow_equal_stripes``) to ``b_s``.  With no HServers (``M == 0``)
    only ``h = 0`` exists; with no SServers (``N == 0``) ``s`` is 0 and
    ``h`` steps from ``h_step`` to ``b_h`` rounded up to a step.
    """
    if N == 0:
        h_arr = np.arange(h_step, b_h + h_step, h_step, dtype=np.int64)
        return h_arr, np.zeros_like(h_arr)
    h_start = 0 if allow_h_zero else h_step
    h_values = np.arange(h_start, b_h + 1, h_step, dtype=np.int64)
    if M == 0:
        h_values = np.zeros(1, dtype=np.int64)
    elif h_values.size == 0:
        h_values = np.array([h_start], dtype=np.int64)
    s_first = np.maximum(h_values, s_step) if allow_equal_stripes else h_values + s_step
    counts = np.maximum((b_s - s_first) // s_step + 1, 0)
    # each h's block of s values counts up from its s_first
    in_block = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(h_values, counts), np.repeat(s_first, counts) + s_step * in_block


def determine_stripes(
    params: CostModelParams,
    offsets: np.ndarray,
    lengths: np.ndarray,
    is_read: np.ndarray,
    burst_ids: np.ndarray,
    step: int = DEFAULT_STEP,
    bound_policy: str = "adaptive",
    max_eval_requests: int = 4096,
    seed: int = DEFAULT_SAMPLE_SEED,
    allow_h_zero: bool = True,
    allow_equal_stripes: bool = True,
    max_axis_candidates: int = 64,
    threshold_unit: int = BOUND_THRESHOLD_UNIT,
    engine: str = "grid",
) -> StripeDecision:
    """Run RSSD over one region's requests.

    ``burst_ids`` holds one id per request; requests sharing an id were
    issued simultaneously.  Each candidate's ``Reg_cost`` is the sum of
    the **exact** burst completion times of
    :func:`repro.core.cost_model.burst_costs` — for singleton bursts
    this is literally Algorithm 2 summing Eq. 2 over the requests.

    ``max_eval_requests`` bounds the number of bursts evaluated per
    candidate pair: beyond it, a seeded uniform sample of bursts (with
    re-weighting) approximates ``Reg_cost``.  Since a region holds
    requests the grouping deemed similar, sampling error is small; set
    it very large to force the exact search.

    ``allow_h_zero`` enables Algorithm 2's extreme configuration
    (placing a region only on SServers).

    ``allow_equal_stripes`` additionally admits ``s == h`` candidates.
    Algorithm 2's inner loop starts at ``s = h + step`` as a pruning
    heuristic ("to avoid load imbalance among heterogeneous servers"),
    but when a region's requests match the stripe size exactly the
    balanced point ``s == h`` can be optimal, so the default search
    includes it; pass ``False`` for the paper's literal loop.

    ``max_axis_candidates`` bounds each axis of the search grid: for
    multi-megabyte ``r_max`` the 4 KB grid would hold thousands of
    values per axis, so the effective step is coarsened (in multiples
    of ``step``) to keep at most this many candidates per axis — the
    "finer step = more precise but more calculation" trade-off the
    paper leaves to the user (§III-F).

    ``engine`` selects the search implementation: ``"grid"`` (default)
    evaluates the whole ``<h, s>`` candidate grid at once with
    :func:`~repro.core.cost_model.burst_costs_grid`, which blocks the
    candidate axis itself, while ``"scalar"`` is the literal Algorithm 2
    loop evaluating one candidate at a time.  Both walk the identical
    candidate sequence and produce bit-identical costs, so they return
    the same winning pair; the scalar path is kept as the reference
    implementation for the equivalence tests and the RSSD microbench.

    The grid engine skips candidates that provably cannot win once the
    grid spans several kernel blocks and the region has at least
    :data:`MIN_GROUP_REQUESTS` requests per (op, length band) group:
    :func:`~repro.core.cost_model.burst_cost_bounds` gives each
    candidate an exact lower bound, and candidates are scored in
    ascending-bound order until no remaining bound can beat the best
    cost found.  The pair, its cost bits and ``candidates`` are those of
    the full grid; ``evaluated`` counts the candidates scored.
    """
    check_search_settings(
        engine, step, bound_policy, max_eval_requests, max_axis_candidates
    )
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    burst_ids = np.asarray(burst_ids)
    if not (offsets.shape == lengths.shape == is_read.shape == burst_ids.shape):
        raise ConfigurationError("request arrays and burst_ids must share one shape")
    if offsets.size == 0:
        raise ConfigurationError("cannot determine stripes for an empty region")
    if (lengths <= 0).any():
        raise ConfigurationError("request lengths must be positive")

    r_max = int(lengths.max())
    mean_size = float(lengths.mean())
    b_h, b_s = search_bounds(
        params, r_max, mean_size, step, bound_policy, threshold_unit
    )

    uniq = np.unique(burst_ids)
    weight_scale = 1.0
    if uniq.size > max_eval_requests:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(uniq, size=max_eval_requests, replace=False)
        mask = np.isin(burst_ids, chosen)
        offsets, lengths, is_read, burst_ids = (
            offsets[mask], lengths[mask], is_read[mask], burst_ids[mask],
        )
        weight_scale = uniq.size / max_eval_requests

    # group requests by burst id up front, so that the scalar engine's
    # per-candidate evaluations skip the gather (the costs do not
    # depend on the order of requests within a burst)
    if not np.all(burst_ids[:-1] <= burst_ids[1:]):
        order = np.argsort(burst_ids, kind="stable")
        offsets, lengths, is_read, burst_ids = (
            offsets[order], lengths[order], is_read[order], burst_ids[order],
        )

    def evaluate(h: int, s: int) -> float:
        return float(
            burst_costs(params, offsets, lengths, is_read, burst_ids, h, s).sum()
            * weight_scale
        )

    best_pair: StripePair | None = None
    best_cost = np.inf
    # coarsen the grid (in multiples of `step`) for very large bounds
    h_step = step * max(1, -(-(b_h // step) // max_axis_candidates))
    s_step = step * max(1, -(-(b_s // step) // max_axis_candidates))

    # enumerate the candidate sequence once, in Algorithm 2's loop
    # order — both engines walk exactly these columns, which (with their
    # bit-identical costs) pins down identical tie-breaking
    h_arr, s_arr = stripe_candidates(
        params.M, params.N, b_h, b_s, h_step, s_step, allow_h_zero, allow_equal_stripes
    )
    candidates = evaluated = int(h_arr.shape[0])

    if candidates and engine == "grid":
        if _bound_pays(lengths, is_read, candidates):
            sums, evaluated = _pruned_burst_costs(
                params, offsets, lengths, is_read, burst_ids, h_arr, s_arr
            )
        else:
            sums = burst_costs_grid(
                params, offsets, lengths, is_read, burst_ids, h_arr, s_arr
            ).sum(axis=1)
        costs = sums * weight_scale
        idx = int(np.argmin(costs))  # first minimum, like the loop's strict <
        best_cost = float(costs[idx])
        best_pair = StripePair(int(h_arr[idx]), int(s_arr[idx]))
    elif candidates:
        for h, s in zip(h_arr.tolist(), s_arr.tolist()):
            cost = evaluate(h, s)
            if cost < best_cost:
                best_cost, best_pair = cost, StripePair(h, s)

    if best_pair is None:
        # every candidate was pruned (e.g. b_s <= step with large h
        # bounds); fall back to the smallest legal pair
        if params.N == 0:
            best_pair = StripePair(step, 0)
        elif allow_h_zero:
            best_pair = StripePair(0, step)
        else:
            best_pair = StripePair(step, 2 * step)
        best_cost = evaluate(best_pair.h, best_pair.s)
        candidates += 1
        evaluated += 1

    return StripeDecision(
        pair=best_pair,
        cost=float(best_cost),
        candidates=candidates,
        bound_h=b_h,
        bound_s=b_s,
        evaluated=evaluated,
    )

"""The RSSD lower bound and the pruned grid search.

``burst_cost_bounds`` must stay below every candidate's summed burst
costs, and the grid engine, which skips candidates whose bound cannot
beat the best cost found, must return the scalar loop's decision bit
for bit.  The regions here are sized and banded so that the bound
actually runs: the random regions of ``test_grid_equivalence.py`` mostly
fall below its thresholds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, cost_model, determinator, determine_stripes
from repro.core.cost_model import (
    burst_bound_slack,
    burst_cost_bounds,
    burst_costs_grid,
    grid_chunks,
)
from repro.units import KiB

_alphas = st.floats(min_value=0.0, max_value=2e-2)
_betas = st.floats(min_value=0.0, max_value=4e-8)


@st.composite
def cost_params(draw):
    M = draw(st.integers(min_value=0, max_value=6))
    N = draw(st.integers(min_value=0 if M else 1, max_value=4))
    return CostModelParams(
        M=M,
        N=N,
        t=draw(_betas),
        alpha_h=draw(_alphas),
        beta_h=draw(_betas),
        alpha_sr=draw(_alphas),
        beta_sr=draw(_betas),
        alpha_sw=draw(_alphas),
        beta_sw=draw(_betas),
        net_latency=draw(st.floats(min_value=0.0, max_value=1e-3)),
    )


@st.composite
def regions(draw):
    """Mixed-op requests of one to four lengths, with burst ids spread
    over the whole region (not one burst per contiguous run)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    K = draw(st.integers(min_value=16, max_value=300))
    menu = rng.integers(1, 65, draw(st.integers(min_value=1, max_value=4))) * 4 * KiB
    lengths = rng.choice(menu, K)
    if draw(st.booleans()):
        offsets = np.cumsum(lengths) - lengths  # one contiguous tiling
    else:
        offsets = rng.integers(0, 1 << 24, K)
    is_read = rng.random(K) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    n_bursts = draw(st.integers(min_value=1, max_value=max(1, K // 4)))
    bursts = rng.permutation(K) % n_bursts * 3 + 1
    return offsets, lengths, is_read, bursts


def _grid(rng, G=48):
    h = rng.integers(0, 64, G) * 4 * KiB
    s = np.maximum(rng.integers(1, 64, G) * 4 * KiB, h)
    return np.r_[h, 0, 16 * KiB], np.r_[s, 4 * KiB, 16 * KiB]


@given(params=cost_params(), region=regions(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_bound_never_exceeds_summed_burst_costs(params, region, seed):
    offsets, lengths, is_read, bursts = region
    h_arr, s_arr = _grid(np.random.default_rng(seed))
    bound = burst_cost_bounds(params, offsets, lengths, is_read, h_arr, s_arr)
    costs = burst_costs_grid(
        params, offsets, lengths, is_read, bursts, h_arr, s_arr
    ).sum(axis=1)
    slack = burst_bound_slack(offsets.shape[0], np.unique(bursts).shape[0])
    assert (bound >= 0).all()
    assert (bound * (1.0 - slack) <= costs).all()


@given(
    params=cost_params(),
    region=regions(),
    per_block=st.sampled_from([1, 3, 7]),
    axis=st.sampled_from([4, 8, 16]),
    min_group=st.sampled_from([1, 16, determinator.MIN_GROUP_REQUESTS]),
    max_eval=st.sampled_from([4096, 3, 7]),
)
@settings(max_examples=30, deadline=None)
def test_pruned_search_matches_scalar(
    params, region, per_block, axis, min_group, max_eval
):
    offsets, lengths, is_read, bursts = region
    # a small max_eval_requests samples bursts, so costs carry a weight
    kw = dict(max_axis_candidates=axis, max_eval_requests=max_eval)
    # a few candidates per kernel block, so that small grids span
    # several blocks, and thresholds low enough that most of these
    # regions run the bound: both only decide when it runs
    budget = cost_model.GRID_CHUNK_ELEMS
    threshold = determinator.MIN_GROUP_REQUESTS
    cost_model.GRID_CHUNK_ELEMS = per_block * offsets.shape[0]
    determinator.MIN_GROUP_REQUESTS = min_group
    try:
        grid = determine_stripes(params, offsets, lengths, is_read, bursts, **kw)
    finally:
        cost_model.GRID_CHUNK_ELEMS = budget
        determinator.MIN_GROUP_REQUESTS = threshold
    scalar = determine_stripes(
        params, offsets, lengths, is_read, bursts, engine="scalar", **kw
    )
    assert grid.pair == scalar.pair
    assert grid.cost == scalar.cost  # bit-identical, no tolerance
    assert grid.candidates == scalar.candidates
    assert (grid.bound_h, grid.bound_s) == (scalar.bound_h, scalar.bound_s)
    assert grid.evaluated <= grid.candidates
    assert scalar.evaluated == scalar.candidates


def _plan_large_shaped(K=512, bursts=24):
    """Contiguous 256 KiB writes whose bursts each span the region, as
    IOR ranks send them: burst ``b`` holds requests ``b, b + 24, ...``."""
    lengths = np.full(K, 256 * KiB, dtype=np.int64)
    offsets = np.arange(K, dtype=np.int64) * 256 * KiB
    is_read = np.zeros(K, dtype=bool)
    return offsets, lengths, is_read, np.arange(K) % bursts


class TestPlanLargeShapedRegion:
    params = CostModelParams.from_cluster(ClusterSpec())

    def search(self, engine, **kw):
        return determine_stripes(
            self.params, *_plan_large_shaped(), engine=engine, **kw
        )

    def test_pruned_search_scores_fewer_candidates_and_matches_scalar(self):
        grid, scalar = self.search("grid"), self.search("scalar")
        assert len(grid_chunks(grid.candidates, 512)) > 1
        assert grid.evaluated < grid.candidates
        assert (grid.pair, grid.cost, grid.candidates) == (
            scalar.pair, scalar.cost, scalar.candidates
        )
        assert scalar.evaluated == scalar.candidates

    @pytest.mark.parametrize("engine", ["grid", "scalar"])
    def test_one_block_grid_scores_every_candidate(self, engine):
        decision = self.search(engine, max_axis_candidates=4)
        assert len(grid_chunks(decision.candidates, 512)) == 1
        assert decision.evaluated == decision.candidates

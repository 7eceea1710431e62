"""Grid-engine equivalence: the vectorized RSSD search must be
*bit-identical* to the scalar Algorithm 2 loop.

The vectorized engine only reorganizes the same IEEE operations
(broadcast axes, exact integer kernels, order-preserving reductions),
so there is no tolerance anywhere in this file: winning pairs, costs
and per-candidate cost rows are compared with ``==`` /
``array_equal``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, cost_model, determine_stripes
from repro.core.cost_model import burst_costs, burst_costs_grid
from repro.exceptions import ConfigurationError
from repro.units import KiB

SPECS = [
    ClusterSpec(),
    ClusterSpec(num_hservers=3, num_sservers=3),
    ClusterSpec(num_sservers=0),
    ClusterSpec(num_hservers=0, num_sservers=2),
]


def random_region(rng, max_len=1 << 18):
    K = int(rng.integers(1, 48))
    offsets = rng.integers(0, 1 << 21, K)
    lengths = rng.integers(1, max_len, K)
    is_read = rng.random(K) < 0.5
    rng.integers(1, 16, K)  # unused, but drawn: later draws depend on it
    bursts = rng.integers(0, max(1, K // 3), K)
    return offsets, lengths, is_read, bursts


def candidate_grid(rng, G=24):
    h = rng.integers(0, 64, G) * 4096
    s = np.maximum(rng.integers(1, 64, G) * 4096, h)
    return h, s


class TestKernelEquivalence:
    """The grid burst-cost kernel row-for-row against the scalar one."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_burst_costs_grid_rows_match_scalar(self, spec):
        rng = np.random.default_rng(4)
        params = CostModelParams.from_cluster(spec)
        for _ in range(3):
            offsets, lengths, is_read, bursts = random_region(rng)
            h_arr, s_arr = candidate_grid(rng)
            grid = burst_costs_grid(
                params, offsets, lengths, is_read, bursts, h_arr, s_arr
            )
            for g in range(h_arr.shape[0]):
                row = burst_costs(
                    params, offsets, lengths, is_read, bursts,
                    int(h_arr[g]), int(s_arr[g]),
                )
                assert np.array_equal(grid[g], row)

    def test_burst_kernel_streams_one_server_at_a_time(self):
        """No ``(G, K, M + N)`` tensor: the kernel's peak memory stays far
        below even one ``(G, K)`` int64 server slice of it."""
        params = CostModelParams.from_cluster(ClusterSpec())
        K, G = 2048, 512
        offsets = np.arange(K, dtype=np.int64) * 256 * KiB
        lengths = np.full(K, 256 * KiB, dtype=np.int64)
        is_read = np.arange(K) % 2 == 0
        bursts = np.arange(K) // 16
        h_arr = np.arange(G, dtype=np.int64) % 64 * 4 * KiB
        s_arr = h_arr + 4 * KiB
        tracemalloc.start()
        try:
            grid = burst_costs_grid(
                params, offsets, lengths, is_read, bursts, h_arr, s_arr
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.shape == (G, K // 16)
        assert peak < G * K * 8

    def test_zero_length_requests_cost_nothing_in_grid(self):
        params = CostModelParams.from_cluster(ClusterSpec())
        offsets = np.array([0, 4096])
        lengths = np.array([0, 8192])
        is_read = np.array([True, False])
        bursts = np.array([0, 1])
        h_arr = np.array([4096, 8192])
        s_arr = np.array([8192, 8192])
        grid = burst_costs_grid(params, offsets, lengths, is_read, bursts, h_arr, s_arr)
        assert (grid[:, 0] == 0).all()
        assert (grid[:, 1] > 0).all()

    def test_empty_grid_and_empty_requests(self):
        params = CostModelParams.from_cluster(ClusterSpec())
        none = np.array([], dtype=np.int64)
        out = burst_costs_grid(params, none, none, none.astype(bool), none, none, none)
        assert out.shape == (0, 0)


def burst_ids(mode, bursts):
    """The region's drawn burst ids, or one burst per request (Algorithm
    2's literal per-request Eq. 2 sum)."""
    return bursts if mode == "burst" else np.arange(bursts.shape[0])


class TestSearchEquivalence:
    """Seeded property-style sweep: the two engines return the identical
    ``StripeDecision`` on random regions, with drawn and with singleton
    bursts."""

    @pytest.mark.parametrize("mode", ["burst", "singleton"])
    def test_engines_agree_on_random_regions(self, mode):
        rng = np.random.default_rng(42)
        for trial in range(24):
            spec = SPECS[trial % len(SPECS)]
            params = CostModelParams.from_cluster(spec)
            offsets, lengths, is_read, bursts = random_region(rng)
            bursts = burst_ids(mode, bursts)
            kw = dict(
                step=4096,
                max_eval_requests=48,
                seed=trial,
                max_axis_candidates=16,
            )
            if trial % 5 == 0:
                kw["bound_policy"] = "average"
            if trial % 7 == 0:
                kw["allow_equal_stripes"] = False
            if trial % 11 == 0:
                kw["allow_h_zero"] = False
            a = determine_stripes(
                params, offsets, lengths, is_read, bursts, engine="grid", **kw
            )
            b = determine_stripes(
                params, offsets, lengths, is_read, bursts, engine="scalar", **kw
            )
            assert a.pair == b.pair, f"trial {trial}: {a.pair} != {b.pair}"
            assert a.cost == b.cost  # bit-identical, no approx
            assert a.candidates == b.candidates
            assert (a.bound_h, a.bound_s) == (b.bound_h, b.bound_s)

    @pytest.mark.parametrize("mode", ["burst", "singleton"])
    def test_engines_agree_across_chunk_boundaries(self, monkeypatch, mode):
        """Blocked grid evaluation must not depend on the block size."""
        params = CostModelParams.from_cluster(ClusterSpec())
        rng = np.random.default_rng(9)
        offsets, lengths, is_read, bursts = random_region(rng)
        bursts = burst_ids(mode, bursts)
        baseline = determine_stripes(params, offsets, lengths, is_read, bursts)
        reference = determine_stripes(
            params, offsets, lengths, is_read, bursts, engine="scalar"
        )
        K = offsets.shape[0]
        assert baseline.candidates % 7 != 0  # 7 per block leaves a ragged tail
        for budget in (1, 7 * K):  # one candidate per block, then seven
            monkeypatch.setattr(cost_model, "GRID_CHUNK_ELEMS", budget)
            blocked = determine_stripes(params, offsets, lengths, is_read, bursts)
            assert blocked.pair == baseline.pair == reference.pair
            assert blocked.cost == baseline.cost == reference.cost

    def test_unknown_engine_rejected(self):
        params = CostModelParams.from_cluster(ClusterSpec())
        with pytest.raises(ConfigurationError):
            determine_stripes(
                params,
                np.array([0]),
                np.array([4096]),
                np.array([True]),
                np.array([1]),
                engine="simd",
            )

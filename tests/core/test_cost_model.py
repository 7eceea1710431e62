"""Tests for the Eq. 2 data-access cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, region_cost, request_cost, request_costs
from repro.core.cost_model import burst_costs
from repro.layouts.extents import per_server_bytes_batch
from repro.units import KiB


#: the cluster shapes of tests/core/test_grid_equivalence.py
SPECS = [
    ClusterSpec(),
    ClusterSpec(num_hservers=3, num_sservers=3),
    ClusterSpec(num_sservers=0),
    ClusterSpec(num_hservers=0, num_sservers=2),
]


@pytest.fixture
def params():
    return CostModelParams.from_cluster(ClusterSpec())


class TestRequestCost:
    def test_zero_length_free(self, params):
        assert request_cost(params, "read", 0, 0, 64 * KiB, 64 * KiB) == 0.0

    def test_cost_positive(self, params):
        assert request_cost(params, "read", 0, 64 * KiB, 32 * KiB, 96 * KiB) > 0

    def test_monotone_in_length_on_fixed_parallelism(self, params):
        # single-SServer placement: more bytes must cost strictly more
        costs = [
            request_cost(params, "read", 0, n * 64 * KiB, 0, 4096 * KiB)
            for n in (1, 2, 4, 8)
        ]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]

    def test_parallelism_absorbs_length(self, params):
        # with h == s == 64K, a 512K request has 64K on every server:
        # its completion equals a single 64K sub-request's time (Eq. 2)
        small = request_cost(params, "read", 0, 64 * KiB, 64 * KiB, 64 * KiB)
        large = request_cost(params, "read", 0, 512 * KiB, 64 * KiB, 64 * KiB)
        assert large == pytest.approx(small)

    def test_writes_cost_at_least_reads_on_sservers(self, params):
        # SSD write bandwidth < read bandwidth, startup higher
        r = request_cost(params, "read", 0, 256 * KiB, 0, 64 * KiB)
        w = request_cost(params, "write", 0, 256 * KiB, 0, 64 * KiB)
        assert w >= r

    def test_ssd_only_cheaper_for_small_requests(self, params):
        # the hybrid-PFS premise: small requests belong on SServers
        on_ssd = request_cost(params, "read", 0, 16 * KiB, 0, 16 * KiB)
        on_hdd = request_cost(params, "read", 0, 16 * KiB, 16 * KiB, 0)
        assert on_ssd < on_hdd

    def test_invalid_op(self, params):
        with pytest.raises(ValueError):
            request_cost(params, "fsync", 0, 1024, 4096, 8192)

    def test_eq2_shape_single_request(self, params):
        """With c == 1, the cost is max over involved servers of
        p·α + s_i·(t + β), p == 1."""
        h, s = 64 * KiB, 64 * KiB
        length = 64 * KiB  # lands on exactly one HServer at offset 0
        got = request_cost(params, "read", 0, length, h, s)
        expected = (
            params.alpha_h
            + params.net_latency
            + length * (params.t + params.beta_h)
        )
        assert got == pytest.approx(expected)

    def test_concurrency_increases_cost(self, params):
        low = request_cost(params, "read", 0, 256 * KiB, 0, 4 * KiB, concurrency=1)
        high = request_cost(params, "read", 0, 256 * KiB, 0, 4 * KiB, concurrency=16)
        assert high > low


class TestBatchCosts:
    """``request_costs``: the statistical model over a batch of requests."""

    def test_matches_scalar(self, params):
        offsets = np.array([0, 128 * KiB, 1 * KiB])
        lengths = np.array([64 * KiB, 256 * KiB, 512])
        is_read = np.array([True, False, True])
        conc = np.array([1, 4, 2])
        batch = request_costs(
            params, offsets, lengths, is_read, conc, 32 * KiB, 96 * KiB
        )
        for i in range(3):
            got = request_cost(
                params,
                "read" if is_read[i] else "write",
                int(offsets[i]),
                int(lengths[i]),
                32 * KiB,
                96 * KiB,
                concurrency=int(conc[i]),
            )
            assert batch[i] == pytest.approx(got)

    def test_region_cost_is_sum(self, params):
        offsets = np.array([0, 64 * KiB])
        lengths = np.array([64 * KiB, 64 * KiB])
        is_read = np.array([True, True])
        conc = np.array([1, 1])
        total = region_cost(params, offsets, lengths, is_read, conc, 16 * KiB, 48 * KiB)
        each = request_costs(
            params, offsets, lengths, is_read, conc, 16 * KiB, 48 * KiB
        )
        assert total == pytest.approx(each.sum())

    @given(
        h=st.integers(min_value=0, max_value=32) | st.just(0),
        s=st.integers(min_value=1, max_value=64),
        length=st.integers(min_value=1, max_value=1 << 20),
        conc=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_costs_always_positive_and_finite(self, h, s, length, conc):
        params = CostModelParams.from_cluster(ClusterSpec())
        cost = request_costs(
            params,
            np.array([0]),
            np.array([length]),
            np.array([True]),
            np.array([conc]),
            h * 4096,
            s * 4096,
        )[0]
        assert np.isfinite(cost) and cost > 0


def mixed_burst_region(rng, trial):
    """Mixed-op requests in bursts of several members, with unsorted,
    sparse burst ids, and a candidate; every third draw puts nothing on
    the HServers (``h = 0``)."""
    K = int(rng.integers(2, 64))
    offsets = rng.integers(0, 1 << 22, K)
    lengths = rng.integers(1, 1 << 18, K)
    is_read = rng.random(K) < 0.5
    ids = rng.integers(0, max(1, K // 4), K) * 5 + 2
    h = 0 if trial % 3 == 0 else int(rng.integers(1, 64)) * 4 * KiB
    s = max(int(rng.integers(1, 64)) * 4 * KiB, h)
    return offsets, lengths, is_read, ids, h, s


class TestBurstCosts:
    def test_costs_ignore_request_order(self):
        """Permuting a region's rows, each burst id moving with its row,
        leaves every burst's cost bit-identical: the per-server touches
        and bytes are summed exactly."""
        rng = np.random.default_rng(11)
        for trial in range(300):
            params = CostModelParams.from_cluster(SPECS[trial % len(SPECS)])
            offsets, lengths, is_read, ids, h, s = mixed_burst_region(rng, trial)
            perm = rng.permutation(ids.shape[0])
            base = burst_costs(params, offsets, lengths, is_read, ids, h, s)
            moved = burst_costs(
                params, offsets[perm], lengths[perm], is_read[perm], ids[perm], h, s
            )
            assert np.array_equal(base, moved), f"trial {trial}"

    def test_costs_are_eq2_of_exact_sums(self):
        """Each burst's cost is Eq. 2 evaluated directly: per server,
        integer touches ``P`` and bytes ``L`` priced once as
        ``P·(α + λ) + L·(t + β)``, an SServer's read term before its
        write term, and the slowest server wins."""
        rng = np.random.default_rng(12)
        for trial in range(300):
            params = CostModelParams.from_cluster(SPECS[trial % len(SPECS)])
            offsets, lengths, is_read, ids, h, s = mixed_burst_region(rng, trial)
            h_bytes, s_bytes = per_server_bytes_batch(
                offsets, lengths, params.M, params.N,
                h if params.M else 0, s if params.N else 0,
            )
            lam = params.net_latency
            expected = []
            for burst in np.unique(ids):
                mine = ids == burst
                hb = h_bytes[mine]
                times = list(
                    (hb > 0).sum(axis=0) * (params.alpha_h + lam)
                    + hb.sum(axis=0) * (params.t + params.beta_h)
                )
                s_time = 0.0
                for op, alpha, beta in (
                    (is_read, params.alpha_sr, params.beta_sr),
                    (~is_read, params.alpha_sw, params.beta_sw),
                ):
                    sb = s_bytes[mine & op]
                    s_time = s_time + (
                        (sb > 0).sum(axis=0) * (alpha + lam)
                        + sb.sum(axis=0) * (params.t + beta)
                    )
                times.extend(np.broadcast_to(s_time, (params.N,)))
                expected.append(max(times, default=0.0))
            got = burst_costs(params, offsets, lengths, is_read, ids, h, s)
            assert np.array_equal(got, expected), f"trial {trial}"

    def test_singleton_bursts_equal_eq2(self):
        """One request per burst is the paper's per-request Eq. 2, which
        is ``request_costs`` at c = 1: bit for bit, on random regions
        and candidates over every cluster shape."""
        rng = np.random.default_rng(5)
        for trial in range(200):
            params = CostModelParams.from_cluster(SPECS[trial % len(SPECS)])
            K = int(rng.integers(1, 48))
            offsets = rng.integers(0, 1 << 21, K)
            lengths = rng.integers(1, 1 << 18, K)
            is_read = rng.random(K) < 0.5
            ids = rng.permutation(K) * 3 + 1  # shuffled, sparse, all distinct
            h = int(rng.integers(0, 64)) * 4 * KiB
            s = max(int(rng.integers(1, 64)) * 4 * KiB, h)
            per_burst = burst_costs(params, offsets, lengths, is_read, ids, h, s)
            per_req = request_costs(
                params, offsets, lengths, is_read, np.ones(K, dtype=np.int64), h, s
            )
            # burst_costs orders its bursts by id
            rank = np.argsort(np.argsort(ids))
            assert np.array_equal(per_burst[rank], per_req), f"trial {trial}"

    def test_burst_completes_at_slowest_server(self, params):
        # two requests in one burst landing on the same HServer: the
        # burst pays two startups there
        h, s = 64 * KiB, 64 * KiB
        cycle = 6 * h + 2 * s
        offsets = np.array([0, cycle])  # same HServer, consecutive cycles
        lengths = np.array([64 * KiB, 64 * KiB])
        is_read = np.array([True, True])
        one_burst = burst_costs(
            params, offsets, lengths, is_read, np.array([7, 7]), h, s
        )
        assert len(one_burst) == 1
        expected = 2 * (params.alpha_h + params.net_latency) + 2 * 64 * KiB * (
            params.t + params.beta_h
        )
        assert one_burst[0] == pytest.approx(expected)

    def test_burst_spread_over_servers_is_cheaper(self, params):
        # same total bytes; spread burst touches different servers
        h, s = 64 * KiB, 64 * KiB
        lengths = np.array([64 * KiB] * 4)
        is_read = np.array([True] * 4)
        ids = np.zeros(4, dtype=int)
        spread = burst_costs(
            params, np.arange(4) * 64 * KiB, lengths, is_read, ids, h, s
        )[0]
        cycle = 6 * h + 2 * s
        clumped = burst_costs(
            params, np.arange(4) * cycle, lengths, is_read, ids, h, s
        )[0]
        assert spread < clumped

    def test_empty_input(self, params):
        out = burst_costs(
            params,
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=bool),
            np.array([], dtype=np.int64),
            4096,
            8192,
        )
        assert out.shape == (0,)

    def test_mixed_ops_in_one_burst(self, params):
        # a read and a write on SServers: each contributes its own alpha/beta
        offsets = np.array([0, 4096])
        lengths = np.array([4096, 4096])
        is_read = np.array([True, False])
        ids = np.array([0, 0])
        cost = burst_costs(params, offsets, lengths, is_read, ids, 0, 4096)[0]
        lam = params.net_latency
        s0 = (params.alpha_sr + lam) + 4096 * (params.t + params.beta_sr)
        s1 = (params.alpha_sw + lam) + 4096 * (params.t + params.beta_sw)
        assert cost == pytest.approx(max(s0, s1))

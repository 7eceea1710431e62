"""QoS kernels: shaping, fair queueing, capacity — pure and fair."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.exceptions import ConfigurationError
from repro.tenancy import (
    admission_offsets,
    nominal_bandwidth,
    token_bucket_release,
    wfq_emission,
)
from repro.units import KiB, MiB


class TestNominalBandwidth:
    def test_positive_and_monotone_in_servers(self):
        small = nominal_bandwidth(ClusterSpec(num_hservers=2, num_sservers=1))
        large = nominal_bandwidth(ClusterSpec(num_hservers=4, num_sservers=2))
        assert 0.0 < small < large

    def test_link_caps_fast_devices(self):
        spec = ClusterSpec(num_hservers=0, num_sservers=2)
        # SSD streams faster than GigE: the link is the binding term
        assert nominal_bandwidth(spec) <= 2 * spec.link.bandwidth + 1e-9


class TestTokenBucket:
    def test_burst_passes_through_then_rate_limits(self):
        size = 64 * KiB
        arrivals = [0.0] * 8
        release = token_bucket_release(arrivals, [size] * 8, rate=float(size), burst=2.0 * size)
        # two requests ride the initial burst; the rest pace at 1/s
        assert release[0] == 0.0
        assert release[1] == 0.0
        for gap in (b - a for a, b in zip(release[2:], release[3:])):
            assert gap == pytest.approx(1.0)

    def test_idle_time_refills_the_bucket(self):
        size = 64 * KiB
        release = token_bucket_release(
            [0.0, 100.0], [size, size], rate=float(size), burst=float(size)
        )
        assert release == [0.0, 100.0]

    def test_oversized_request_goes_into_deficit(self):
        release = token_bucket_release([0.0], [10 * KiB], rate=1024.0, burst=1024.0)
        assert release[0] == pytest.approx((10 * KiB - 1024.0) / 1024.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            token_bucket_release([0.0], [1], rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            token_bucket_release([0.0], [1, 2], rate=1.0, burst=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_or_burst_rejected(self, value):
        """A NaN rate or burst used to give NaN release times."""
        with pytest.raises(ConfigurationError, match="rate"):
            token_bucket_release([0.0], [1], rate=value, burst=1.0)
        with pytest.raises(ConfigurationError, match="burst"):
            token_bucket_release([0.0], [1], rate=1.0, burst=value)

    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.integers(min_value=1, max_value=1 << 20),
            ),
            min_size=1,
            max_size=30,
        ),
        rate=st.floats(min_value=1e3, max_value=1e8),
        burst_factor=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_releases_monotone_and_after_arrival(self, raw, rate, burst_factor):
        arrivals = sorted(a for a, _ in raw)
        sizes = [s for _, s in raw]
        release = token_bucket_release(
            arrivals, sizes, rate=rate, burst=burst_factor * max(sizes)
        )
        assert all(r >= a for r, a in zip(release, arrivals))
        assert all(a <= b for a, b in zip(release, release[1:]))


class TestWFQ:
    def test_preserves_per_tenant_order_with_increasing_starts(self):
        releases = [[0.0, 0.1, 0.2], [0.0, 0.15]]
        sizes = [[4 * KiB] * 3, [64 * KiB] * 2]
        order = wfq_emission(releases, sizes, [1.0, 1.0], capacity=float(MiB))
        starts = [s for _, _, s in order]
        assert all(a < b for a, b in zip(starts, starts[1:]))
        for tenant in (0, 1):
            ks = [k for i, k, _ in order if i == tenant]
            assert ks == sorted(ks)

    def test_weights_bias_the_interleaving(self):
        # two saturated flows, same sizes; the heavy flow finishes its
        # backlog earlier in the emission order
        n = 20
        releases = [[0.0] * n, [0.0] * n]
        sizes = [[64 * KiB] * n, [64 * KiB] * n]
        order = wfq_emission(releases, sizes, [3.0, 1.0], capacity=float(MiB))
        heavy_done = max(pos for pos, (i, _, _) in enumerate(order) if i == 0)
        light_done = max(pos for pos, (i, _, _) in enumerate(order) if i == 1)
        assert heavy_done < light_done

    def test_no_flow_starves(self):
        # even a weight-0.001 flow gets served while a heavy flow backlogs
        releases = [[0.0] * 50, [0.0]]
        sizes = [[64 * KiB] * 50, [64 * KiB]]
        order = wfq_emission(releases, sizes, [1000.0, 0.001], capacity=float(MiB))
        assert sum(1 for i, _, _ in order if i == 1) == 1

    def test_deterministic(self):
        releases = [[0.0, 0.5], [0.25]]
        sizes = [[KiB, 2 * KiB], [3 * KiB]]
        a = wfq_emission(releases, sizes, [1.0, 2.0], capacity=1e6)
        b = wfq_emission(releases, sizes, [1.0, 2.0], capacity=1e6)
        assert a == b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wfq_emission([[0.0]], [[1]], [1.0], capacity=0.0)
        with pytest.raises(ConfigurationError):
            wfq_emission([[0.0]], [[1], [2]], [1.0], capacity=1.0)
        with pytest.raises(ConfigurationError):
            wfq_emission([[0.0]], [[1, 2]], [1.0], capacity=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_or_weight_rejected(self, value):
        """A NaN capacity used to fail inside the heap with IndexError."""
        with pytest.raises(ConfigurationError, match="capacity"):
            wfq_emission([[0.0]], [[1]], [1.0], capacity=value)
        with pytest.raises(ConfigurationError, match="weight"):
            wfq_emission([[0.0], [0.0]], [[1], [1]], [1.0, value], capacity=1.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_non_positive_weight_rejected(self, weight):
        with pytest.raises(ConfigurationError, match="weight"):
            wfq_emission([[0.0]], [[1]], [weight], capacity=1.0)


class TestAdmission:
    def test_enough_slots_admit_everyone_immediately(self):
        offsets = admission_offsets([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], [100, 100, 100], 1e6, 3)
        assert offsets == [0.0, 0.0, 0.0]

    def test_single_slot_serializes(self):
        offsets = admission_offsets(
            [0.0, 0.0], [10.0, 10.0], [int(1e6), int(1e6)], 1e6, 1
        )
        assert offsets[0] == 0.0
        assert offsets[1] == pytest.approx(11.0)  # span 10 + 1e6/1e6

    def test_offsets_never_negative_and_deterministic(self):
        args = ([3.0, 0.0, 1.0], [4.0, 9.0, 2.0], [10, 20, 30], 1e3, 2)
        a = admission_offsets(*args)
        b = admission_offsets(*args)
        assert a == b
        assert all(offset >= 0.0 for offset in a)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            admission_offsets([0.0], [1.0], [1], 1e6, 0)
        with pytest.raises(ConfigurationError):
            admission_offsets([0.0], [1.0], [1], 0.0, 1)
        with pytest.raises(ConfigurationError):
            admission_offsets([0.0], [1.0, 2.0], [1], 1e6, 1)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf, -math.inf])
    def test_non_finite_capacity_rejected(self, capacity):
        """A NaN capacity used to give a NaN offset."""
        with pytest.raises(ConfigurationError, match="capacity"):
            admission_offsets([0.0, 0.0], [1.0, 1.0], [1, 1], capacity, 1)

"""Tests for the network link model."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.network import GIGABIT_ETHERNET, Link
from repro.units import MiB


class TestLink:
    def test_unit_transfer_time_is_inverse_bandwidth(self):
        link = Link(bandwidth=100 * MiB, latency=0.0)
        assert link.unit_transfer_time == pytest.approx(1.0 / (100 * MiB))

    def test_transfer_time_includes_latency(self):
        link = Link(bandwidth=100 * MiB, latency=1e-4)
        assert link.transfer_time(100 * MiB) == pytest.approx(1.0 + 1e-4)

    def test_zero_bytes_free(self):
        assert Link().transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Link().transfer_time(-1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            Link(bandwidth=0)
        with pytest.raises(ConfigurationError):
            Link(latency=-1)

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -1.0])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            Link(bandwidth=bandwidth)

    @pytest.mark.parametrize("latency", [math.nan, math.inf])
    def test_latency_must_be_finite(self, latency):
        with pytest.raises(ConfigurationError, match="latency"):
            Link(latency=latency)

    def test_zero_latency_accepted(self):
        assert Link(latency=0.0).transfer_time(1) > 0

    def test_gige_constant_close_to_line_rate(self):
        # payload rate below the 125 MB/s theoretical line rate
        assert 100 * MiB < GIGABIT_ETHERNET.bandwidth < 125 * 1e6

    def test_immutable(self):
        with pytest.raises(AttributeError):
            GIGABIT_ETHERNET.bandwidth = 1.0  # type: ignore[misc]

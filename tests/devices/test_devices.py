"""Tests for the HDD/SSD device models."""

import math

import pytest

from repro.devices import HDD, SSD, READ, WRITE
from repro.exceptions import ConfigurationError
from repro.units import MiB


def device_time(device, op, nbytes):
    """One sub-request's raw device time: Table I's ``alpha + n * beta``
    (the transfer divides by the bandwidth)."""
    return device.alpha(op) + device.transfer_time(op, nbytes)


class TestHDD:
    def test_random_access_pays_seek(self):
        hdd = HDD()
        t = device_time(hdd, READ, 64 * 1024)
        assert t == pytest.approx(hdd.seek_time + 64 * 1024 / hdd.bandwidth)

    def test_reads_and_writes_symmetric(self):
        hdd = HDD()
        assert device_time(hdd, READ, 8192) == device_time(hdd, WRITE, 8192)

    def test_alpha_is_seek_time(self):
        hdd = HDD(seek_time=4e-3)
        assert hdd.alpha(READ) == hdd.alpha(WRITE) == 4e-3

    def test_beta_is_inverse_bandwidth(self):
        hdd = HDD(bandwidth=100 * MiB)
        assert hdd.beta(WRITE) == pytest.approx(1.0 / (100 * MiB))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            HDD(seek_time=-1.0)
        with pytest.raises(ConfigurationError):
            HDD(bandwidth=0)

    def test_single_channel(self):
        assert HDD().channels == 1


class TestSSD:
    def test_read_write_asymmetry(self):
        ssd = SSD()
        r = device_time(ssd, READ, 1 * MiB)
        w = device_time(ssd, WRITE, 1 * MiB)
        assert w > r  # writes slower: lower bandwidth and higher startup

    def test_table1_parameters(self):
        ssd = SSD()
        assert ssd.alpha(READ) == ssd.read_startup
        assert ssd.alpha(WRITE) == ssd.write_startup
        assert ssd.beta(READ) == pytest.approx(1.0 / ssd.read_bandwidth)
        assert ssd.beta(WRITE) == pytest.approx(1.0 / ssd.write_bandwidth)

    def test_faster_than_hdd_for_small_requests(self):
        # the premise of the paper: an order of magnitude for small I/O
        hdd, ssd = HDD(), SSD()
        ratio = device_time(hdd, READ, 16 * 1024) / device_time(ssd, READ, 16 * 1024)
        assert ratio > 5

    def test_has_channel_parallelism(self):
        assert SSD().channels > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SSD(read_bandwidth=0)
        with pytest.raises(ConfigurationError):
            SSD(write_startup=-0.1)


BAD_TIMES = [-1.0, math.nan, math.inf]
BAD_RATES = [0.0, -1.0, math.nan, math.inf]


class TestConstructionValidation:
    """Invalid parameters fail on construction, not mid-replay."""

    @pytest.mark.parametrize("device", [HDD, SSD])
    @pytest.mark.parametrize("channels", [0, -1])
    def test_channels_below_one_rejected(self, device, channels):
        with pytest.raises(ConfigurationError, match="channels"):
            device(channels=channels)

    @pytest.mark.parametrize("field", ["seek_time"])
    @pytest.mark.parametrize("value", BAD_TIMES)
    def test_hdd_times_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            HDD(**{field: value})

    @pytest.mark.parametrize("value", BAD_RATES)
    def test_hdd_bandwidth_must_be_finite(self, value):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            HDD(bandwidth=value)

    @pytest.mark.parametrize("field", ["read_startup", "write_startup"])
    @pytest.mark.parametrize("value", BAD_TIMES)
    def test_ssd_times_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SSD(**{field: value})

    @pytest.mark.parametrize("field", ["read_bandwidth", "write_bandwidth"])
    @pytest.mark.parametrize("value", BAD_RATES)
    def test_ssd_bandwidths_must_be_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SSD(**{field: value})

    def test_boundary_values_accepted(self):
        assert HDD(seek_time=0.0, bandwidth=1.0).channels == 1
        assert SSD(channels=1, read_startup=0.0, write_startup=0.0).channels == 1

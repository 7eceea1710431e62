"""Tests for the HDD/SSD device models."""

import math

import pytest

from repro.devices import HDD, SSD, READ, WRITE, fit_affine, measure_device
from repro.units import MiB


class TestHDD:
    def test_random_access_pays_seek(self):
        hdd = HDD()
        t = hdd.service_time(READ, 64 * 1024, sequential=False)
        assert t == pytest.approx(hdd.seek_time + 64 * 1024 / hdd.bandwidth)

    def test_sequential_pays_reduced_startup(self):
        hdd = HDD(seek_time=4e-3, sequential_startup=0.2e-3)
        seq = hdd.service_time(READ, 4096, sequential=True)
        rnd = hdd.service_time(READ, 4096, sequential=False)
        assert seq < rnd

    def test_default_has_no_sequential_discount(self):
        # calibration note: the PFS-server default is seek-bound either way
        hdd = HDD()
        assert hdd.sequential_startup == hdd.seek_time

    def test_reads_and_writes_symmetric(self):
        hdd = HDD()
        assert hdd.service_time(READ, 8192) == hdd.service_time(WRITE, 8192)

    def test_alpha_is_average_of_regimes(self):
        hdd = HDD(seek_time=4e-3, sequential_startup=2e-3)
        assert hdd.alpha(READ) == pytest.approx(3e-3)

    def test_beta_is_inverse_bandwidth(self):
        hdd = HDD(bandwidth=100 * MiB)
        assert hdd.beta(WRITE) == pytest.approx(1.0 / (100 * MiB))

    def test_zero_bytes_is_free(self):
        assert HDD().service_time(READ, 0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            HDD().service_time(READ, -1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            HDD(seek_time=-1.0)
        with pytest.raises(ValueError):
            HDD(bandwidth=0)

    def test_single_channel(self):
        assert HDD().channels == 1


class TestSSD:
    def test_read_write_asymmetry(self):
        ssd = SSD()
        r = ssd.service_time(READ, 1 * MiB)
        w = ssd.service_time(WRITE, 1 * MiB)
        assert w > r  # writes slower: lower bandwidth and higher startup

    def test_sequentiality_irrelevant(self):
        ssd = SSD()
        assert ssd.service_time(READ, 4096, sequential=True) == ssd.service_time(
            READ, 4096, sequential=False
        )

    def test_table1_parameters(self):
        ssd = SSD()
        assert ssd.alpha(READ) == ssd.read_startup
        assert ssd.alpha(WRITE) == ssd.write_startup
        assert ssd.beta(READ) == pytest.approx(1.0 / ssd.read_bandwidth)
        assert ssd.beta(WRITE) == pytest.approx(1.0 / ssd.write_bandwidth)

    def test_faster_than_hdd_for_small_requests(self):
        # the premise of the paper: an order of magnitude for small I/O
        hdd, ssd = HDD(), SSD()
        ratio = hdd.service_time(READ, 16 * 1024) / ssd.service_time(READ, 16 * 1024)
        assert ratio > 5

    def test_has_channel_parallelism(self):
        assert SSD().channels > 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SSD(read_bandwidth=0)
        with pytest.raises(ValueError):
            SSD(write_startup=-0.1)


class TestCalibration:
    def test_fit_recovers_affine_law(self):
        fit = fit_affine([1000, 2000, 4000], [1.1, 1.2, 1.4])
        assert fit.alpha == pytest.approx(1.0)
        assert fit.beta == pytest.approx(1e-4)

    def test_measure_device_recovers_hdd_parameters(self):
        hdd = HDD()
        fit = measure_device(hdd, READ)
        assert fit.alpha == pytest.approx(hdd.seek_time, rel=1e-6)
        assert fit.beta == pytest.approx(1.0 / hdd.bandwidth, rel=1e-6)

    def test_measure_device_recovers_ssd_write_parameters(self):
        ssd = SSD()
        fit = measure_device(ssd, WRITE)
        assert fit.alpha == pytest.approx(ssd.write_startup, rel=1e-6)
        assert fit.beta == pytest.approx(1.0 / ssd.write_bandwidth, rel=1e-6)

    def test_negative_intercept_clamped(self):
        fit = fit_affine([1000, 2000], [0.0, 1.0])
        assert fit.alpha == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_affine([1], [1.0])

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            measure_device(HDD(), "append")


BAD_TIMES = [-1.0, math.nan, math.inf]
BAD_RATES = [0.0, -1.0, math.nan, math.inf]


class TestConstructionValidation:
    """Invalid parameters fail on construction, not mid-replay."""

    @pytest.mark.parametrize("device", [HDD, SSD])
    @pytest.mark.parametrize("channels", [0, -1])
    def test_channels_below_one_rejected(self, device, channels):
        with pytest.raises(ValueError, match="channels"):
            device(channels=channels)

    @pytest.mark.parametrize("field", ["seek_time", "sequential_startup"])
    @pytest.mark.parametrize("value", BAD_TIMES)
    def test_hdd_times_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            HDD(**{field: value})

    @pytest.mark.parametrize("value", BAD_RATES)
    def test_hdd_bandwidth_must_be_finite(self, value):
        with pytest.raises(ValueError, match="bandwidth"):
            HDD(bandwidth=value)

    @pytest.mark.parametrize("field", ["read_startup", "write_startup"])
    @pytest.mark.parametrize("value", BAD_TIMES)
    def test_ssd_times_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SSD(**{field: value})

    @pytest.mark.parametrize("field", ["read_bandwidth", "write_bandwidth"])
    @pytest.mark.parametrize("value", BAD_RATES)
    def test_ssd_bandwidths_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SSD(**{field: value})

    def test_boundary_values_accepted(self):
        assert HDD(seek_time=0.0, sequential_startup=0.0, bandwidth=1.0).channels == 1
        assert SSD(channels=1, read_startup=0.0, write_startup=0.0).channels == 1

"""Tests for the data server model."""

import pytest

from repro.devices import HDD, SSD
from repro.network import GIGABIT_ETHERNET
from repro.pfs import DataServer
from repro.simulate import Simulator
from repro.units import KiB


def make_server(device=None):
    sim = Simulator()
    server = DataServer(sim, 0, device or HDD(), GIGABIT_ETHERNET)
    return sim, server


class TestService:
    def test_service_time_structure(self):
        """Table I's affine law, bit for bit: the startup amortized over
        the device's channels, then the device and link transfers."""
        link = GIGABIT_ETHERNET
        for device in (HDD(), SSD()):
            for op in ("read", "write"):
                sim, server = make_server(device=device)
                done = server.submit(op, 64 * KiB)
                sim.run()
                expected = (
                    device.alpha(op) / device.channels
                    + device.transfer_time(op, 64 * KiB)
                    + link.transfer_time(64 * KiB)
                )
                assert done.value.duration == expected, (device.name, op)

    def test_ssd_startup_amortized_by_channels(self):
        ssd = SSD()
        sim, server = make_server(device=ssd)
        done = server.submit("write", 4 * KiB)
        sim.run()
        expected = (
            ssd.write_startup / ssd.channels
            + ssd.transfer_time("write", 4 * KiB)
            + GIGABIT_ETHERNET.transfer_time(4 * KiB)
        )
        assert done.value.duration == pytest.approx(expected)

    def test_fifo_queueing(self):
        sim, server = make_server()
        c1 = server.submit("read", 64 * KiB)
        c2 = server.submit("read", 64 * KiB)
        sim.run()
        assert c2.value.start == pytest.approx(c1.value.finish)

    def test_busy_time_accumulates(self):
        sim, server = make_server()
        server.submit("read", 64 * KiB)
        server.submit("write", 64 * KiB)
        sim.run()
        assert server.busy_time > 0

    def test_byte_accounting(self):
        sim, server = make_server()
        server.submit("read", 100)
        server.submit("write", 200)
        sim.run()
        assert server.stats.bytes_read == 100
        assert server.stats.bytes_written == 200
        assert server.stats.total_bytes == 300
        assert server.stats.sub_requests == 2

    def test_reset_stats(self):
        sim, server = make_server()
        server.submit("read", 100)
        sim.run()
        server.reset_stats()
        assert server.busy_time == 0.0
        assert server.stats.sub_requests == 0

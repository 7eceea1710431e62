"""Tests for the single-channel FIFO resource."""

import pytest

from repro.simulate import FIFOResource, Simulator


def drain(sim):
    sim.run()


class TestSingleChannel:
    def test_back_to_back_service(self):
        sim = Simulator()
        res = FIFOResource(sim)
        c1 = res.submit(2.0)
        c2 = res.submit(3.0)
        drain(sim)
        assert c1.value.start == 0.0 and c1.value.finish == 2.0
        assert c2.value.start == 2.0 and c2.value.finish == 5.0

    def test_wait_time_recorded(self):
        sim = Simulator()
        res = FIFOResource(sim)
        res.submit(2.0)
        c2 = res.submit(1.0)
        drain(sim)
        assert c2.value.wait == 2.0

    def test_idle_resource_starts_immediately(self):
        sim = Simulator()
        res = FIFOResource(sim)
        sim.schedule(5.0, lambda: None)
        sim.run()
        c = res.submit(1.0)
        sim.run()
        assert c.value.start == 5.0

    def test_busy_time_accumulates(self):
        sim = Simulator()
        res = FIFOResource(sim)
        res.submit(2.0)
        res.submit(3.0)
        drain(sim)
        assert res.busy_time == 5.0
        assert res.served == 2

    def test_zero_duration_allowed(self):
        sim = Simulator()
        res = FIFOResource(sim)
        c = res.submit(0.0)
        drain(sim)
        assert c.value.finish == 0.0

    def test_negative_duration_rejected(self):
        res = FIFOResource(Simulator())
        with pytest.raises(ValueError):
            res.submit(-1.0)

    def test_utilization(self):
        sim = Simulator()
        res = FIFOResource(sim)
        res.submit(2.0)
        drain(sim)
        assert res.utilization(4.0) == pytest.approx(0.5)
        assert res.utilization(0.0) == 0.0

    def test_schedule_not_before(self):
        sim = Simulator()
        res = FIFOResource(sim)
        record, _ = res.schedule(1.0, not_before=10.0)
        assert record.start == 10.0 and record.finish == 11.0

class TestScheduleFlat:
    def test_matches_event_schedule(self):
        """schedule_flat returns the same finishes schedule produces."""
        durations = [2.0, 3.0, 0.5]
        sim_e = Simulator()
        res_e = FIFOResource(sim_e)
        finishes_e = []
        for d in durations:
            _, done = res_e.schedule(d)
            done.add_waiter(lambda _=None: finishes_e.append(sim_e.now))
        sim_e.run()
        sim_f = Simulator()
        res_f = FIFOResource(sim_f)
        finishes_f = [res_f.schedule_flat(0.0, d) for d in durations]
        assert finishes_f == finishes_e
        assert res_f.busy_time == res_e.busy_time
        assert res_f.served == res_e.served

    def test_not_before_and_now_floor_the_start(self):
        sim = Simulator()
        res = FIFOResource(sim)
        assert res.schedule_flat(1.0, 2.0) == 3.0  # starts at now
        assert res.schedule_flat(1.0, 1.0, not_before=10.0) == 11.0
        assert res.schedule_flat(1.0, 1.0) == 12.0  # queued behind the tail

    def test_negative_duration_rejected(self):
        sim = Simulator()
        res = FIFOResource(sim)
        with pytest.raises(ValueError):
            res.schedule_flat(0.0, -1.0)

"""Tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.simulate import AllOf, Completion, Simulator, Waitable


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_is_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 2.0)]


class TestWaitable:
    def test_fire_resumes_waiters_with_value(self):
        w = Waitable()
        got = []
        w.add_waiter(got.append)
        w.fire(42)
        assert got == [42]
        assert w.fired and w.value == 42

    def test_waiter_added_after_fire_runs_immediately(self):
        w = Waitable()
        w.fire("x")
        got = []
        w.add_waiter(got.append)
        assert got == ["x"]

    def test_double_fire_rejected(self):
        w = Waitable()
        w.fire()
        with pytest.raises(SimulationError):
            w.fire()


class TestAllOf:
    def test_fires_when_all_children_fire(self):
        a, b = Completion(), Completion()
        combo = AllOf([a, b])
        assert not combo.fired
        a.fire(1)
        assert not combo.fired
        b.fire(2)
        assert combo.fired
        assert combo.value == [1, 2]

    def test_empty_fires_immediately(self):
        assert AllOf([]).fired

    def test_prefired_children(self):
        a = Completion()
        a.fire("done")
        combo = AllOf([a])
        assert combo.fired and combo.value == ["done"]


class TestProcess:
    def test_process_sleeps(self):
        sim = Simulator()
        trail = []

        def prog():
            trail.append(sim.now)
            yield 1.5
            trail.append(sim.now)
            yield 0.5
            trail.append(sim.now)

        sim.spawn(prog())
        sim.run()
        assert trail == [0.0, 1.5, 2.0]

    def test_process_waits_on_completion(self):
        sim = Simulator()
        comp = Completion()
        got = []

        def prog():
            value = yield comp
            got.append((sim.now, value))

        sim.spawn(prog())
        sim.schedule(3.0, lambda: comp.fire("payload"))
        sim.run()
        assert got == [(3.0, "payload")]

    def test_process_done_carries_return_value(self):
        sim = Simulator()

        def prog():
            yield 1.0
            return "result"

        proc = sim.spawn(prog())
        sim.run()
        assert proc.done.fired and proc.done.value == "result"

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def prog():
            yield -1.0

        with pytest.raises(SimulationError):
            sim.spawn(prog())
            sim.run()

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def prog():
            yield "nonsense"

        with pytest.raises(SimulationError):
            sim.spawn(prog())

    def test_two_processes_interleave(self):
        sim = Simulator()
        trail = []

        def prog(name, delay):
            for _ in range(3):
                yield delay
                trail.append((name, sim.now))

        sim.spawn(prog("fast", 1.0))
        sim.spawn(prog("slow", 1.5))
        sim.run()
        # at t=3.0 both are due; "slow" scheduled its wakeup earlier
        # (at t=1.5 vs t=2.0), so FIFO order puts it first
        assert trail == [
            ("fast", 1.0),
            ("slow", 1.5),
            ("fast", 2.0),
            ("slow", 3.0),
            ("fast", 3.0),
            ("slow", 4.5),
        ]


class TestAdvanceTo:
    def test_advances_idle_clock(self):
        sim = Simulator()
        assert sim.advance_to(5.0) == 5.0
        assert sim.now == 5.0
        sim.advance_to(5.0)  # no-op move to the same instant is fine

    def test_backwards_rejected(self):
        sim = Simulator()
        sim.advance_to(5.0)
        with pytest.raises(SimulationError):
            sim.advance_to(4.0)

    def test_pending_events_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.advance_to(10.0)

    def test_pending_drops_as_events_fire(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.run()
        assert sim.pending() == 0

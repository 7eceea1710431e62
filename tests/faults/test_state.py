"""Unit tests for compiled fault timelines (repro.faults.state)."""

from repro.faults.state import (
    CliffState,
    Scrub,
    ServerFaultState,
    Window,
    flatten_windows,
    merge_outages,
)
from repro.units import KiB


class TestMergeOutages:
    def test_empty(self):
        assert merge_outages([]) == []

    def test_sorts_and_merges_overlaps(self):
        spans = [(5.0, 7.0), (0.0, 2.0), (1.0, 3.0)]
        assert merge_outages(spans) == [(0.0, 3.0), (5.0, 7.0)]

    def test_touching_spans_merge(self):
        assert merge_outages([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]

    def test_degenerate_spans_dropped(self):
        assert merge_outages([(3.0, 3.0), (4.0, 2.0)]) == []


class TestFlattenWindows:
    def test_disjoint_windows_pass_through(self):
        windows = [Window(0.0, 1.0, 2.0), Window(2.0, 3.0, 3.0)]
        assert flatten_windows(windows) == windows

    def test_overlap_composes_multiplicatively(self):
        segments = flatten_windows(
            [Window(0.0, 2.0, 2.0), Window(1.0, 3.0, 3.0)]
        )
        assert segments == [
            Window(0.0, 1.0, 2.0),
            Window(1.0, 2.0, 6.0),
            Window(2.0, 3.0, 3.0),
        ]

    def test_gaps_produce_no_segment(self):
        segments = flatten_windows([Window(0.0, 1.0, 2.0), Window(5.0, 6.0, 2.0)])
        assert [(s.start, s.end) for s in segments] == [(0.0, 1.0), (5.0, 6.0)]

    def test_empty_windows_dropped(self):
        assert flatten_windows([Window(2.0, 2.0, 9.0)]) == []

    def test_declaration_order_irrelevant(self):
        a = [Window(0.0, 2.0, 2.0), Window(1.0, 4.0, 1.5), Window(1.5, 2.5, 3.0)]
        assert flatten_windows(a) == flatten_windows(list(reversed(a)))


class TestAdjust:
    def test_healthy_state_is_identity(self):
        state = ServerFaultState()
        assert state.adjust("read", KiB, 1.5, 1.0) == (1.5, 1.0)

    def test_outage_defers_start(self):
        state = ServerFaultState(outages=[(1.0, 3.0)])
        start, factor = state.adjust("read", KiB, 2.0, 0.0)
        assert start == 3.0
        assert factor == 1.0

    def test_start_exactly_at_outage_end_not_deferred(self):
        state = ServerFaultState(outages=[(1.0, 3.0)])
        assert state.adjust("read", KiB, 3.0, 0.0) == (3.0, 1.0)

    def test_window_dilates_duration(self):
        state = ServerFaultState(windows=[Window(0.0, 2.0, 4.0)])
        assert state.adjust("read", KiB, 1.0, 0.5) == (1.0, 4.0)

    def test_factor_evaluated_at_deferred_start(self):
        # outage pushes the start into the rebuild window behind it
        state = ServerFaultState(
            windows=[Window(3.0, 5.0, 2.5)], outages=[(1.0, 3.0)]
        )
        assert state.adjust("write", KiB, 1.5, 1.0) == (3.0, 2.5)

    def test_scrub_duty_cycle(self):
        state = ServerFaultState(scrubs=[Scrub(period=4.0, duty=1.0, factor=3.0)])
        assert state.adjust("read", KiB, 0.5, 0.0)[1] == 3.0
        assert state.adjust("read", KiB, 2.0, 0.0)[1] == 1.0
        assert state.adjust("read", KiB, 4.5, 0.0)[1] == 3.0

    def test_scrub_phase_shifts_duty(self):
        state = ServerFaultState(
            scrubs=[Scrub(period=4.0, duty=1.0, factor=3.0, phase=2.0)]
        )
        assert state.adjust("read", KiB, 0.5, 0.0)[1] == 1.0
        assert state.adjust("read", KiB, 2.5, 0.0)[1] == 3.0


class TestWriteCliff:
    def _state(self):
        return ServerFaultState(
            cliff=CliffState(capacity_bytes=4 * KiB, factor=2.0, recovery_idle=1.0)
        )

    def test_writes_accumulate_until_cliff(self):
        state = self._state()
        assert state.adjust("write", 3 * KiB, 0.1, 0.0)[1] == 1.0
        assert state.adjust("write", 3 * KiB, 0.2, 0.1)[1] == 2.0

    def test_reads_do_not_accumulate(self):
        state = self._state()
        for step in range(10):
            assert state.adjust("read", 8 * KiB, 0.1 * step, 0.1 * step)[1] == 1.0

    def test_idle_gap_recovers(self):
        state = self._state()
        state.adjust("write", 8 * KiB, 0.1, 0.0)
        # long idle gap before the next service start: counter resets
        assert state.adjust("write", KiB, 5.0, 0.2)[1] == 1.0

    def test_short_gap_does_not_recover(self):
        state = self._state()
        state.adjust("write", 8 * KiB, 0.1, 0.0)
        assert state.adjust("write", KiB, 0.5, 0.2)[1] == 2.0

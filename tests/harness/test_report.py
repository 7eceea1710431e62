"""Tests for the ASCII bar rendering of figure results."""

from repro.harness import format_bars
from repro.harness.report import FigureResult


class TestFormatBars:
    def test_bars_scale_to_peak(self):
        r = FigureResult(figure="F", title="t")
        r.add("a", "X", 100.0)
        r.add("a", "Y", 50.0)
        text = format_bars(r, width=10)
        lines = [l for l in text.splitlines() if "|" in l]
        x_bar = lines[0].split("|")[1]
        y_bar = lines[1].split("|")[1]
        assert x_bar.count("#") == 10
        assert y_bar.count("#") == 5

    def test_bars_empty_result(self):
        r = FigureResult(figure="F", title="t")
        assert "F" in format_bars(r)

    def test_notes_included(self):
        r = FigureResult(figure="F", title="t")
        r.add("a", "X", 1.0)
        r.note("hello")
        assert "hello" in format_bars(r)

"""Tests for figure-result CSV export/import."""

import pytest

from repro.harness.report import FigureResult, from_csv, to_csv


class TestCSVRoundTrip:
    def _result(self):
        r = FigureResult(figure="Fig X", title="demo")
        r.add("row a", "DEF", 120.25)
        r.add("row a", "MHA", 180.756250001)
        r.add("row b", "DEF", 90.0)
        r.add("row b", "MHA", 170.5)
        return r

    def test_roundtrip_exact(self):
        original = self._result()
        restored = from_csv(to_csv(original))
        assert restored.series == original.series
        assert set(restored.rows) == set(original.rows)
        for row in original.rows:
            for series in original.series:
                assert restored.value(row, series) == original.value(row, series)

    def test_missing_cells_survive(self):
        r = FigureResult(figure="F", title="t")
        r.add("a", "X", 1.0)
        r.add("b", "Y", 2.0)  # a/Y and b/X missing
        restored = from_csv(to_csv(r))
        assert restored.rows["a"] == {"X": 1.0}
        assert restored.rows["b"] == {"Y": 2.0}

    def test_header_validation(self):
        with pytest.raises(ValueError):
            from_csv("nope,DEF\nx,1\n")
        # no header at all: empty input and a blank line alike
        for text in ("", "\n"):
            with pytest.raises(ValueError, match="not a FigureResult CSV"):
                from_csv(text)

    def test_csv_is_plottable_shape(self):
        text = to_csv(self._result())
        lines = text.strip().splitlines()
        assert lines[0] == "label,DEF,MHA"
        assert len(lines) == 3

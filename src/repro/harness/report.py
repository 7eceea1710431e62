"""Paper-style result tables.

Each figure function in :mod:`repro.harness.figures` returns a
:class:`FigureResult`: labelled series of per-scheme numbers that
:func:`format_table` prints as the rows the paper plots.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from ..units import MiB

__all__ = [
    "FigureResult",
    "TAIL_QUANTILES",
    "format_table",
    "format_bars",
    "to_csv",
    "from_csv",
    "bandwidth_mib",
    "latency_ms",
    "quantile_label",
]

#: the tail-latency quantiles chaos reports tabulate, in display order
TAIL_QUANTILES: tuple[float, ...] = (50.0, 95.0, 99.0, 99.9)


@dataclass
class FigureResult:
    """One reproduced figure: a grid of (row label × scheme) values."""

    figure: str
    title: str
    unit: str = "MiB/s"
    #: scheme/series names in display order
    series: list[str] = field(default_factory=list)
    #: row label -> {series -> value}
    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, row: str, series: str, value: float) -> None:
        if series not in self.series:
            self.series.append(series)
        self.rows.setdefault(row, {})[series] = value

    def value(self, row: str, series: str) -> float:
        return self.rows[row][series]

    def improvement(self, row: str, series: str, over: str) -> float:
        """Fractional improvement of one series over another in a row."""
        base = self.rows[row][over]
        if base == 0:
            return 0.0
        return self.rows[row][series] / base - 1.0

    def note(self, text: str) -> None:
        self.notes.append(text)

    def __str__(self) -> str:
        return format_table(self)


def format_table(result: FigureResult, width: int = 12) -> str:
    """Render a figure result as an aligned text table."""
    header = [result.figure, "-", result.title, f"[{result.unit}]"]
    lines = [" ".join(header)]
    label_w = max([len(r) for r in result.rows] + [8])
    cols = "".join(f"{s:>{width}}" for s in result.series)
    lines.append(f"{'':<{label_w}}{cols}")
    for row, values in result.rows.items():
        cells = "".join(
            f"{values.get(s, float('nan')):>{width}.2f}" for s in result.series
        )
        lines.append(f"{row:<{label_w}}{cells}")
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def format_bars(result: FigureResult, width: int = 46) -> str:
    """Render a figure result as horizontal ASCII bars.

    One bar per (row, series), all scaled to the figure's maximum
    value — roughly the visual the paper's grouped bar charts give.
    """
    values = [
        v for row in result.rows.values() for v in row.values() if v == v
    ]
    peak = max(values, default=0.0)
    lines = [f"{result.figure} - {result.title} [{result.unit}]"]
    label_w = max(
        [len(f"{r} {s}") for r in result.rows for s in result.series] + [10]
    )
    for row, row_values in result.rows.items():
        for series in result.series:
            value = row_values.get(series)
            if value is None:
                continue
            bar = "#" * int(round(width * value / peak)) if peak > 0 else ""
            lines.append(f"{f'{row} {series}':<{label_w}} |{bar} {value:.1f}")
        lines.append("")
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines).rstrip()


def to_csv(result: FigureResult) -> str:
    """Serialize a figure result as CSV (for external plotting tools).

    First column is the row label, then one column per series, in the
    figure's display order.  Values use full float precision so a
    re-plot reproduces the stored run exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", *result.series])
    for row, values in result.rows.items():
        writer.writerow(
            [
                row,
                *(
                    repr(values[s]) if s in values else ""
                    for s in result.series
                ),
            ]
        )
    return buf.getvalue()


def from_csv(text: str, figure: str = "csv", title: str = "") -> FigureResult:
    """Rebuild a :class:`FigureResult` from :func:`to_csv` output."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if not header or header[0] != "label":
        raise ValueError("not a FigureResult CSV (missing 'label' header)")
    result = FigureResult(figure=figure, title=title)
    for row in reader:
        label, *values = row
        for series, value in zip(header[1:], values):
            if value != "":
                result.add(label, series, float(value))
    return result


def bandwidth_mib(bytes_per_second: float) -> float:
    """Bytes/s -> MiB/s (figure unit)."""
    return bytes_per_second / MiB


def latency_ms(seconds: float) -> float:
    """Seconds -> milliseconds (tail-latency figure unit)."""
    return seconds * 1000.0


def quantile_label(q: float) -> str:
    """Conventional percentile column name: 50 -> "p50", 99.9 -> "p999".

    The decimal point is dropped, not rounded — the digits of ``q``
    become the label (the standard tail-latency naming where "p999"
    means the 99.9th percentile).
    """
    text = f"{q:g}".replace(".", "")
    return f"p{text}"

"""Compare two end-to-end benchmark reports metric by metric.

    python benchmarks/e2e/compare.py PARENT/report.json CHANGE/report.json

Reads each end-to-end metric's direction and bound from ``BENCHMARK.json``
and prints one row per (workload, metric) present in both reports, with
one verdict:

* ``unresolved``: the spread of either side (q3 - q1 over the median)
  exceeds the bound and the two sides' samples interleave;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``better``: the change's median is better than the parent's by more
  than the parent's own spread;
* ``same``: anything else.

Each workload also gets a ``failed_frac`` row (failed over attempted
samples, bound 0): ``worse`` when the change fails a larger share of its
samples than the parent, since a gain does not count when more
operations fail.  Exit status is 1 when any row is ``worse``, else 0.
A verdict compares one run per side; claiming a gain takes ten or more
paired runs, alternating which side runs first.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]

Row = tuple[str, str, float, float, float, str]


def _spread(m: dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def verdict(
    parent: dict[str, Any], change: dict[str, Any], bound: float, better: str
) -> str:
    """The verdict for one metric; ``better`` is ``"higher"`` or ``"lower"``."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = parent["median"], change["median"]
    worsening = sign * (c - p) / p if p else 0.0
    lo_p, hi_p = min(parent["values"]), max(parent["values"])
    lo_c, hi_c = min(change["values"]), max(change["values"])
    interleave = lo_c <= hi_p and lo_p <= hi_c
    if max(_spread(parent), _spread(change)) > bound and interleave:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > _spread(parent):
        return "better"
    return "same"


def _failed_frac(rep: dict[str, Any]) -> float:
    return rep["failed"] / rep["attempted"]


def compare(
    parent: dict[str, Any], change: dict[str, Any], benchmark: dict[str, Any]
) -> list[Row]:
    """Rows ``(workload, metric, parent value, change value, bound,
    verdict)``: ``failed_frac``, then every end-to-end metric both
    reports hold, by its median."""
    rows: list[Row] = []
    for name, prep in parent["workloads"].items():
        crep = change["workloads"].get(name)
        if crep is None:
            continue
        pf, cf = _failed_frac(prep), _failed_frac(crep)
        failed = "worse" if cf > pf else "better" if cf < pf else "same"
        rows.append((name, "failed_frac", pf, cf, 0.0, failed))
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            if metric in prep["metrics"] and metric in crep["metrics"]:
                pm, cm = prep["metrics"][metric], crep["metrics"][metric]
                rows.append(
                    (
                        name,
                        metric,
                        pm["median"],
                        cm["median"],
                        spec["bound"],
                        verdict(pm, cm, spec["bound"], spec["better"]),
                    )
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="report.json of the parent commit")
    parser.add_argument("change", type=Path, help="report.json of the change")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(
        json.loads(args.parent.read_text()),
        json.loads(args.change.read_text()),
        json.loads(args.benchmark.read_text()),
    )
    head = ("workload", "metric", "parent", "change", "delta", "bound")
    print("{:<14}{:<16}{:>12}{:>12}{:>9}{:>7}  verdict".format(*head))
    for name, metric, p, c, bound, v in rows:
        delta = f"{(c - p) / p:+.1%}" if p else "-"
        print(f"{name:<14}{metric:<16}{p:>12.5g}{c:>12.5g}{delta:>9}{bound:>7.0%}  {v}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

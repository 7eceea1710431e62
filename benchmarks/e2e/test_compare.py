"""Unit tests of ``compare.py`` on hand-made reports.

    python -m pytest benchmarks/e2e/test_compare.py -q
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "requests_per_s", "unit": "req/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
    ]
}


def _metric(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _report(rps: list[float], setup: list[float], failed: int = 0) -> dict:
    return {
        "workloads": {
            "w": {
                "attempted": len(rps) + failed,
                "failed": failed,
                "metrics": {"requests_per_s": _metric(rps), "setup_s": _metric(setup)},
            }
        }
    }


STEADY_RPS = [100.0, 101.0, 99.0, 100.5, 99.5]
STEADY_SETUP = [0.25, 0.26, 0.24, 0.25, 0.25]


def _verdicts(parent: dict, change: dict) -> dict[str, str]:
    return {row[1]: row[-1] for row in compare.compare(parent, change, BENCHMARK)}


def test_identical_reports_are_same() -> None:
    rep = _report(STEADY_RPS, STEADY_SETUP)
    assert _verdicts(rep, rep) == {
        "failed_frac": "same",
        "requests_per_s": "same",
        "setup_s": "same",
    }


def test_worse_by_more_than_the_bound() -> None:
    slow = _report([v * 0.8 for v in STEADY_RPS], [v * 1.3 for v in STEADY_SETUP])
    verdicts = _verdicts(_report(STEADY_RPS, STEADY_SETUP), slow)
    assert verdicts["requests_per_s"] == "worse"
    assert verdicts["setup_s"] == "worse"


def test_worse_within_the_bound_is_same() -> None:
    slower = _report([v * 0.95 for v in STEADY_RPS], STEADY_SETUP)
    assert _verdicts(_report(STEADY_RPS, STEADY_SETUP), slower)["requests_per_s"] == "same"


def test_better_by_more_than_the_parents_spread() -> None:
    fast = _report([v * 1.05 for v in STEADY_RPS], STEADY_SETUP)
    assert _verdicts(_report(STEADY_RPS, STEADY_SETUP), fast)["requests_per_s"] == "better"


def test_wide_interleaving_spreads_are_unresolved() -> None:
    noisy = [60.0, 140.0, 70.0, 130.0, 100.0]
    shifted = [50.0, 120.0, 60.0, 110.0, 80.0]
    verdicts = _verdicts(_report(noisy, STEADY_SETUP), _report(shifted, STEADY_SETUP))
    assert verdicts["requests_per_s"] == "unresolved"


def test_more_failed_samples_is_worse_even_when_faster(tmp_path: Path) -> None:
    parent = _report(STEADY_RPS, STEADY_SETUP)
    change = _report([v * 2 for v in STEADY_RPS], STEADY_SETUP, failed=1)
    verdicts = _verdicts(parent, change)
    assert verdicts["failed_frac"] == "worse"
    assert verdicts["requests_per_s"] == "better"

    paths = []
    for name, rep in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(rep))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    argv = [str(p) for p in paths] + ["--benchmark", str(tmp_path / "BENCHMARK.json")]
    assert compare.main(argv) == 1
    assert compare.main([argv[0], argv[0], *argv[2:]]) == 0

"""Smoke test of the end-to-end benchmark (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs every workload named in ``BENCHMARK.json`` once at reduced size,
traced and untraced, and checks that the tracer reports exactly the
per-layer metrics ``BENCHMARK.json`` declares, that tracing leaves the
result digest unchanged, and that uninstalling the tracer restores every
rebound attribute.  One runner invocation checks the output contract end
to end.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from repro.cluster import ClusterSpec

HERE = Path(__file__).resolve().parent


@pytest.fixture
def small(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setattr(workloads.load("plan-large"), "TOTAL_MIB", 32)
    monkeypatch.setattr(workloads.load("replay-long"), "PASSES", 2)
    monkeypatch.setattr(workloads.load("serve-250"), "TENANTS", 20)


def test_per_layer_names_match_benchmark_json() -> None:
    declared = {m["name"]: m["unit"] for m in run.BENCHMARK["per_layer"]}
    assert declared == tracer.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_traced_and_untraced(name: str, small: None, tmp_path: Path) -> None:
    workload = workloads.load(name)
    spec = ClusterSpec()
    inputs = workload.prepare(spec, 0, tmp_path / "a")
    plain = workload.check(inputs, workload.run(spec, inputs))

    recorder = tracer.Recorder()
    recorder.install()
    bindings = list(recorder.bindings)
    try:
        inputs = workload.prepare(spec, 0, tmp_path / "b")
        result = workload.run(spec, inputs)
    finally:
        recorder.uninstall()
    for owner, attr, original in bindings:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    traced = workload.check(inputs, result)

    assert traced == plain
    assert plain.requests > 0 and plain.sim_bw_mib_s > 0
    summary = recorder.summary(wall_s=1.0)
    metrics = tracer.layer_metrics(summary, untraced_wall_s=1.0, exit_errors=0)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert summary["spans"], "no layer entry point was called"


def test_runner_output_contract(tmp_path: Path) -> None:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "replay-long",
         "--seconds", "0", "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SAMPLES + 1
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    report = json.loads((tmp_path / "report.json").read_text())
    end_to_end = {m["name"] for m in run.BENCHMARK["end_to_end"]}
    assert set(report["workloads"]["replay-long"]["metrics"]) == end_to_end
    assert (tmp_path / "trace-replay-long.json").is_file()


def test_runner_refuses_without_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig07",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

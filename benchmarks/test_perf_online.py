"""Online-replay microbenchmark: controller overhead and live relayout.

Two phases, throughput measured in records/second (reported through the
``candidates_per_sec`` field the CI gate compares):

* ``observe-steady`` — the per-record cost of the streaming sketch +
  drift detector on traffic that matches the active plan (the common
  case: every record pays the sketch, checks fire, nothing drifts);
* ``phase-shift-e2e`` — the full closed-loop experiment (drift, replan,
  admission, background migration, epoch swap) per live record.

Results are written to ``BENCH_online.json`` (override with the
``REPRO_BENCH_OUT`` environment variable) and CI gates them against
``benchmarks/baselines/BENCH_online.json`` with the same >30%
regression tolerance as the RSSD search benchmark.
"""

from harness.bench import PhaseResult

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.online import (
    ControllerConfig,
    RelayoutController,
    phase_shift_experiment,
)
from repro.units import KiB, MiB
from repro.workloads import IORWorkload

BENCH = "online-replay"
BENCH_OUT = "BENCH_online.json"


def test_observe_throughput(report, best_of):
    """Sketch + periodic drift checks on steady (non-drifting) traffic."""
    spec = ClusterSpec()
    pipeline = MHAPipeline(spec, seed=0)
    trace = IORWorkload(
        num_processes=8,
        request_sizes=[32 * KiB, 128 * KiB],
        total_size=16 * MiB,
        seed=1,
        file="f",
    ).trace("write")
    plan = pipeline.plan(trace)
    records = list(trace.sorted_by_time())

    def run():
        controller = RelayoutController(
            pipeline,
            plan,
            ControllerConfig(window=256, check_interval=64),
        )
        for record in records:
            controller.observe(record)
        return controller

    wall, controller = best_of(run)
    assert controller.replans_admitted == 0, "steady traffic must not replan"
    assert controller.drift_checks > 0
    report.add(PhaseResult.from_timing("observe-steady", wall, len(records)))
    print(
        f"\nobserve-steady: {len(records)} records in {wall * 1e3:.1f} ms "
        f"({len(records) / wall:,.0f} rec/s, {controller.drift_checks} checks)"
    )


def test_phase_shift_throughput(report, best_of):
    """The full closed-loop phase-shift experiment, per live record."""
    wall, result = best_of(lambda: phase_shift_experiment(passes=2))
    assert result.replans_admitted == 1
    assert result.offline_match_fraction == 1.0
    records = result.foreground.requests
    report.add(PhaseResult.from_timing("phase-shift-e2e", wall, records))
    print(
        f"\nphase-shift-e2e: {records} records in {wall * 1e3:.1f} ms "
        f"({records / wall:,.0f} rec/s)"
    )

"""Chaos-path microbenchmark: faulted replay and the chaos sweep harness.

Times the fault-injection hot paths so CI catches regressions in the
per-request ``ServerFaultState.adjust`` lookups and the straggler-aware
dispatch loop (reported through the ``candidates_per_sec`` field the CI
gate compares):

* ``chaos-replay-def`` — the flat kernel replaying the write/re-read
  chaos trace under a full four-model fault plan with the default
  striping layout (also asserts bit-identity against the event engine);
* ``chaos-replay-saw`` — the flat kernel replaying the same faulted
  trace through the straggler-aware view (EWMA feedback + redirection),
  with the event engine's time as its scalar reference (also asserts
  bit-identity);
* ``chaos-replay-mha-saw`` — the flat kernel replaying an IOR profile
  tiled into alternating write and read passes through ``MHA+SAW``
  under slowdowns and scrubs: later passes revisit extents earlier
  writes redirected, which the dispatcher serves from its memo of
  covered extents (the event engine is the scalar reference; also
  asserts bit-identity);
* ``chaos-sweep`` — a small end-to-end ``chaos_experiment`` sweep
  (two intensities, DEF vs SAW) including report assembly.

Results are written to ``BENCH_chaos.json`` (override with the
``REPRO_BENCH_OUT`` environment variable) and CI gates them against
``benchmarks/baselines/BENCH_chaos.json`` with the same >30% regression
tolerance as the other benchmarks.
"""

import numpy as np
import pytest

from harness.bench import PhaseResult

from repro.cluster import ClusterSpec
from repro.harness.chaos import (
    CHAOS_MODEL_NAMES,
    chaos_experiment,
    chaos_fault_plan,
    chaos_trace,
)
from repro.pfs import HybridPFS, replay_trace
from repro.schemes import make_scheme
from repro.schemes.straggler import StragglerAwareView
from repro.tracing.columnar import OP_NAMES, ColumnarTrace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload
from repro.workloads.base import PHASE_GAP

BENCH = "chaos"
BENCH_OUT = "BENCH_chaos.json"


@pytest.fixture(scope="module")
def faulted_workload():
    spec = ClusterSpec(model_client_nics=True)
    trace = chaos_trace(processes=16, phases=24)
    plan = chaos_fault_plan(spec, 1.0, models=CHAOS_MODEL_NAMES)
    return spec, trace, plan


@pytest.fixture(scope="module")
def tiled_workload():
    """A 16-rank IOR profile and 20 passes of it, alternating write and
    read, under the chaos plan's slowdowns and scrubs."""
    spec = ClusterSpec()
    profile = IORWorkload(
        num_processes=16,
        request_sizes=[16 * KiB, 64 * KiB],
        total_size=8 * MiB,
        seed=0,
    ).columnar("write")
    period = float(profile.data["timestamp"].max()) + PHASE_GAP
    tiles = []
    for p in range(20):
        tile = profile.data.copy()
        tile["op"] = OP_NAMES.index("write" if p % 2 == 0 else "read")
        tile["timestamp"] += p * period
        tiles.append(tile)
    replay = ColumnarTrace(np.concatenate(tiles), profile.interned_files)
    return spec, profile, replay, chaos_fault_plan(spec, 0.5)


def _replay(spec, trace, view, plan, engine):
    pfs = HybridPFS(spec)
    metrics = replay_trace(
        pfs, view, trace, keep_latencies=True, fault_plan=plan, engine=engine
    )
    return metrics, pfs


def test_faulted_replay_def(report, faulted_workload, best_of):
    """Faulted flat replay stays bit-identical to the event engine."""
    spec, trace, plan = faulted_workload
    view = make_scheme("DEF").build(spec, trace)
    event_wall, (event_metrics, event_pfs) = best_of(
        lambda: _replay(spec, trace, view, plan, "event")
    )
    flat_wall, (flat_metrics, flat_pfs) = best_of(
        lambda: _replay(spec, trace, view, plan, "flat")
    )
    assert flat_metrics.makespan == event_metrics.makespan
    assert flat_metrics.latencies == event_metrics.latencies
    for flat_srv, event_srv in zip(flat_pfs.servers, event_pfs.servers):
        assert flat_srv.busy_time == event_srv.busy_time

    report.add(
        PhaseResult.from_timing(
            "chaos-replay-def", flat_wall, len(trace), scalar_wall_s=event_wall
        )
    )
    print(
        f"\nchaos replay DEF: {len(trace)} records, "
        f"event {event_wall * 1e3:.1f} ms, flat {flat_wall * 1e3:.1f} ms "
        f"({len(trace) / flat_wall:,.0f} rec/s)"
    )


def test_faulted_replay_saw(report, faulted_workload, best_of):
    """The straggler-aware feedback loop on the default (flat) engine,
    bit-identical to the event engine."""
    spec, trace, plan = faulted_workload

    def replay(engine):
        # a fresh view per run: the view's EWMAs and redirects are state
        return _replay(
            spec, trace, make_scheme("SAW").build(spec, trace), plan, engine
        )

    event_wall, (event_metrics, event_pfs) = best_of(lambda: replay("event"))
    flat_wall, (flat_metrics, flat_pfs) = best_of(lambda: replay(None))
    assert flat_metrics.engine == "flat"
    assert flat_metrics.makespan == event_metrics.makespan
    assert flat_metrics.latencies == event_metrics.latencies
    for flat_srv, event_srv in zip(flat_pfs.servers, event_pfs.servers):
        assert flat_srv.busy_time == event_srv.busy_time

    report.add(
        PhaseResult.from_timing(
            "chaos-replay-saw", flat_wall, len(trace), scalar_wall_s=event_wall
        )
    )
    print(
        f"\nchaos replay SAW: {len(trace)} records, "
        f"event {event_wall * 1e3:.1f} ms, flat {flat_wall * 1e3:.1f} ms "
        f"({len(trace) / flat_wall:,.0f} rec/s)"
    )


def test_faulted_replay_mha_saw(report, tiled_workload, best_of):
    """``MHA+SAW`` over repeated extents on the default (flat) engine,
    bit-identical to the event engine."""
    spec, profile, replay, plan = tiled_workload
    built = make_scheme("MHA+SAW").build(spec, profile)

    def run(engine):
        # a fresh dispatcher over the one MHA plan per run: its EWMAs,
        # redirects and memo are state, the plan is not
        view = StragglerAwareView(
            built.inner,
            spec.num_servers,
            replication_budget=built.replication_budget,
        )
        return _replay(spec, replay, view, plan, engine), view

    event_wall, ((event_metrics, event_pfs), event_view) = best_of(
        lambda: run("event")
    )
    flat_wall, ((flat_metrics, flat_pfs), flat_view) = best_of(lambda: run(None))
    assert flat_metrics.engine == "flat"
    assert flat_metrics.makespan == event_metrics.makespan
    assert flat_metrics.latencies == event_metrics.latencies
    for flat_srv, event_srv in zip(flat_pfs.servers, event_pfs.servers):
        assert flat_srv.busy_time == event_srv.busy_time
    assert flat_view.redirected_fragments == event_view.redirected_fragments > 0

    report.add(
        PhaseResult.from_timing(
            "chaos-replay-mha-saw", flat_wall, len(replay), scalar_wall_s=event_wall
        )
    )
    print(
        f"\nchaos replay MHA+SAW: {len(replay)} records, "
        f"event {event_wall * 1e3:.1f} ms, flat {flat_wall * 1e3:.1f} ms "
        f"({len(replay) / flat_wall:,.0f} rec/s)"
    )


def test_chaos_sweep(report, best_of):
    """End-to-end sweep: fault compilation, replay, report assembly."""
    trace = chaos_trace(processes=4, phases=8)
    runs_per_sweep = 2 * 2  # two intensities x two schemes

    def sweep():
        return chaos_experiment(
            trace=trace, intensities=(0.0, 1.0), schemes=("DEF", "SAW")
        )

    wall, rep = best_of(sweep)
    assert len(rep.digest()) == 64
    report.add(PhaseResult.from_timing("chaos-sweep", wall, runs_per_sweep))
    print(f"\nchaos sweep: {runs_per_sweep} runs, {wall * 1e3:.1f} ms")

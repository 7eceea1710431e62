"""Flat-replay microbenchmark: the event-free kernel vs the event engine.

Replays the same IOR trace (32 ranks, mixed 16/64 KiB requests, client
NICs modelled, latencies kept) through both engines for the DEF and MHA
layouts, asserts the flat kernel's results are *bit-identical* to the
event engine's, and records throughput in records/second (reported
through the ``candidates_per_sec`` field the CI gate compares):

* ``replay-event-def`` / ``replay-flat-def`` — the default striping
  layout, event vs flat;
* ``replay-flat-mha`` — the flat kernel over the full MHA pipeline's
  redirector view (batched DRT translation + per-region mapping).

Results are written to ``BENCH_replay.json`` (override with the
``REPRO_BENCH_OUT`` environment variable) and CI gates them against
``benchmarks/baselines/BENCH_replay.json`` with the same >30%
regression tolerance as the other benchmarks.
"""

import pytest

from harness.bench import PhaseResult

from repro.cluster import ClusterSpec
from repro.pfs import HybridPFS, replay_trace
from repro.schemes import make_scheme
from repro.units import KiB, MiB
from repro.workloads import IORWorkload

BENCH = "flat-replay"
BENCH_OUT = "BENCH_replay.json"
MIN_SPEEDUP_ANY = 5.0  # the tentpole claim: >=5x on at least one layout
MIN_SPEEDUP_EACH = 4.0  # robustness floor per layout (CI noise margin)


@pytest.fixture(scope="module")
def workload():
    spec = ClusterSpec(model_client_nics=True)
    trace = IORWorkload(
        num_processes=32,
        request_sizes=[16 * KiB, 64 * KiB],
        total_size=256 * MiB,
        seed=7,
        file="f",
    ).trace("write")
    return spec, trace


def _replay(spec, trace, view, engine):
    pfs = HybridPFS(spec)
    return replay_trace(pfs, view, trace, keep_latencies=True, engine=engine), pfs


def _bench_scheme(best_of, report, spec, trace, name, record_event_phase):
    view = make_scheme(name).build(spec, trace)
    event_wall, (event_metrics, event_pfs) = best_of(
        lambda: _replay(spec, trace, view, "event")
    )
    flat_wall, (flat_metrics, flat_pfs) = best_of(
        lambda: _replay(spec, trace, view, "flat")
    )

    # bit-identity: same makespan, same latency stream, same per-server
    # accounting (exact float equality is the contract, not a tolerance)
    assert flat_metrics.makespan == event_metrics.makespan
    assert flat_metrics.latencies == event_metrics.latencies
    for flat_srv, event_srv in zip(flat_pfs.servers, event_pfs.servers):
        assert flat_srv.busy_time == event_srv.busy_time
        assert flat_srv.stats == event_srv.stats

    speedup = event_wall / flat_wall
    if record_event_phase:
        report.add(
            PhaseResult.from_timing(f"replay-event-{name.lower()}", event_wall, len(trace))
        )
    report.add(
        PhaseResult.from_timing(
            f"replay-flat-{name.lower()}", flat_wall, len(trace), scalar_wall_s=event_wall
        )
    )
    print(
        f"\nreplay {name}: {len(trace)} records, "
        f"event {event_wall * 1e3:.1f} ms, flat {flat_wall * 1e3:.1f} ms "
        f"({len(trace) / flat_wall:,.0f} rec/s, {speedup:.1f}x)"
    )
    return speedup


def test_flat_replay_speedup(report, workload, best_of):
    """Flat kernel >=5x the event engine, bit-identical results."""
    spec, trace = workload
    speedups = [
        _bench_scheme(best_of, report, spec, trace, "DEF", record_event_phase=True),
        _bench_scheme(best_of, report, spec, trace, "MHA", record_event_phase=False),
    ]
    assert max(speedups) >= MIN_SPEEDUP_ANY, (
        f"flat kernel best speedup {max(speedups):.1f}x below the "
        f"{MIN_SPEEDUP_ANY:.0f}x target"
    )
    assert min(speedups) >= MIN_SPEEDUP_EACH, (
        f"flat kernel worst speedup {min(speedups):.1f}x below the "
        f"{MIN_SPEEDUP_EACH:.0f}x floor"
    )

"""Multi-tenant serve microbenchmark: fleet build plus coupled replay.

Times the tenancy service hot paths so CI catches regressions in the
fleet build, the admission/QoS merge, and the shared-cluster
open-arrival replay (reported through the ``candidates_per_sec`` field
the CI gate compares):

* ``serve-build`` — the fleet table (class trace generation, each
  tenant's arrival column and scheme build, premapping, quota
  enforcement) for a mixed fleet, measured in tenants/sec;
* ``serve-replay`` — the end-to-end ``serve_scenario`` replaying the
  merged trace on the shared cluster, measured in replayed requests/sec
  (also asserts the double-run digest is stable).

Results are written to ``BENCH_serve.json`` (override with the
``REPRO_BENCH_OUT`` environment variable) and CI gates them against
``benchmarks/baselines/BENCH_serve.json`` with the same >30% regression
tolerance as the other benchmarks.
"""

from harness.bench import PhaseResult

from repro.cluster import ClusterSpec
from repro.tenancy import build_tenants, make_tenants, serve_scenario

BENCH = "serve"
BENCH_OUT = "BENCH_serve.json"
TENANTS = 64
SPEC = ClusterSpec(num_hservers=4, num_sservers=2)


def test_sharded_build(report, best_of):
    """The fleet table: class traces, arrivals, premap, quota — serial."""
    fleet = make_tenants(TENANTS)
    wall, table = best_of(lambda: build_tenants(SPEC, fleet))
    assert table.tenants == fleet
    assert len(table.runs) == TENANTS
    report.add(PhaseResult.from_timing("serve-build", wall, TENANTS))
    print(f"\nserve build: {TENANTS} tenants, {wall * 1e3:.1f} ms")


def test_serve_replay(report, best_of):
    """End-to-end serve: build, admission/QoS merge, coupled replay."""
    wall, rep = best_of(
        lambda: serve_scenario(spec=SPEC, tenants=TENANTS, max_active=16)
    )
    assert rep.digest() == serve_scenario(
        spec=SPEC, tenants=TENANTS, max_active=16
    ).digest()
    report.add(PhaseResult.from_timing("serve-replay", wall, rep.total_requests))
    print(
        f"\nserve replay: {TENANTS} tenants, {rep.total_requests} requests, "
        f"{wall * 1e3:.1f} ms ({rep.total_requests / wall:,.0f} req/s)"
    )

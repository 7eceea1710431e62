"""``serve-250``: the multi-tenant service.

250 tenants, 80 % hot on DEF and 20 % tail on AAL, ``max_active=64``,
through ``serve_scenario``: many tiny builds instead of one big plan,
the admission/token-bucket/WFQ merge and one open-arrival flat replay.
It runs serially, so the traced sample sees every tenant build.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.cluster import ClusterSpec
from repro.config import DEFAULT_ARRIVAL_SEED
from repro.tenancy import make_tenants, serve_scenario, tenant_workload
from repro.tenancy.spec import tenant_op

from . import Outcome, require

JOBS = 1
TENANTS = 250
MAX_ACTIVE = 64


def prepare(spec: ClusterSpec, seed: int, workdir: Path) -> dict:
    requests = sum(
        len(tenant_workload(t).trace(tenant_op(t))) for t in make_tenants(TENANTS)
    )
    return {"arrival_seed": DEFAULT_ARRIVAL_SEED + seed, "requests": requests}


def run(spec: ClusterSpec, inputs: dict) -> Any:
    return serve_scenario(
        spec,
        tenants=TENANTS,
        max_active=MAX_ACTIVE,
        n_jobs=1,
        arrival_seed=inputs["arrival_seed"],
    )


def check(inputs: dict, report: Any) -> Outcome:
    require(
        report.total_requests == inputs["requests"],
        f"serve: {report.total_requests} requests, expected {inputs['requests']}",
    )
    require(
        all(t.completed == t.requests for t in report.tenants),
        "serve: a tenant's requests did not all complete",
    )
    delivered = next(f for f in report.figures if f.figure.endswith("-bw"))
    return Outcome(
        requests=report.total_requests,
        digest=report.digest(),
        sim_bw_mib_s=delivered.value("all", "delivered"),
    )

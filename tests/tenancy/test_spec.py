"""Fleet configuration: validation happens at config time, not mid-run."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.tenancy import (
    SERVE_SCHEMES,
    TenantSpec,
    make_tenants,
    tenant_workload,
    validate_tenants,
)
from repro.tenancy.spec import tenant_op


class TestTenantSpec:
    def test_defaults_validate(self):
        t = TenantSpec(tenant=0)
        assert t.klass == "hot"
        assert t.scheme in SERVE_SCHEMES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant": -1},
            {"klass": "warm"},
            {"scheme": "SAW"},  # feedback schemes cannot be premapped
            {"scheme": "nope"},
            {"weight": 0.0},
            {"share": 0.0},
            {"share": 1.5},
            {"sserver_quota": -0.1},
            {"sserver_quota": 1.1},
            {"rate": 0.0},
            {"start": -1.0},
            {"jitter": -1.0},
            # non-finite values: NaN fails every comparison, and an
            # infinite jitter used to overflow deep inside the build
            {"weight": math.nan},
            {"weight": math.inf},
            {"rate": math.nan},
            {"rate": math.inf},
            {"start": math.nan},
            {"start": math.inf},
            {"jitter": math.nan},
            {"jitter": math.inf},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantSpec(**{"tenant": 0, **kwargs})


class TestValidateTenants:
    def test_shares_must_sum_to_at_most_one(self):
        fleet = [
            TenantSpec(tenant=0, share=0.6),
            TenantSpec(tenant=1, share=0.6),
        ]
        with pytest.raises(ConfigurationError, match="shares sum"):
            validate_tenants(fleet)

    def test_share_sum_of_exactly_one_passes(self):
        validate_tenants(
            [TenantSpec(tenant=k, share=0.25) for k in range(4)]
        )

    def test_ids_unique_and_dense(self):
        with pytest.raises(ConfigurationError, match="unique"):
            validate_tenants(
                [TenantSpec(tenant=0, share=0.1), TenantSpec(tenant=0, share=0.1)]
            )
        with pytest.raises(ConfigurationError, match="dense"):
            validate_tenants(
                [TenantSpec(tenant=0, share=0.1), TenantSpec(tenant=2, share=0.1)]
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_tenants([])


class TestMakeTenants:
    def test_mix_ratio_and_shares(self):
        fleet = make_tenants(100, hot_fraction=0.8)
        assert len(fleet) == 100
        hot = sum(1 for t in fleet if t.klass == "hot")
        assert hot == 80
        assert math.fsum(t.share for t in fleet) <= 1.0 + 1e-9
        assert len({t.tenant for t in fleet}) == 100

    def test_deterministic(self):
        assert make_tenants(50) == make_tenants(50)

    def test_all_hot_and_all_tail(self):
        assert all(t.klass == "hot" for t in make_tenants(10, hot_fraction=1.0))
        assert all(t.klass == "tail" for t in make_tenants(10, hot_fraction=0.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_tenants(0)
        with pytest.raises(ConfigurationError):
            make_tenants(5, hot_fraction=1.5)


class TestTenantWorkload:
    def test_classes_produce_disjoint_shapes(self):
        hot = TenantSpec(tenant=0, klass="hot")
        tail = TenantSpec(tenant=1, klass="tail")
        hot_trace = tenant_workload(hot).trace(tenant_op(hot))
        tail_trace = tenant_workload(tail).trace(tenant_op(tail))
        assert all(r.op == "read" for r in hot_trace)
        assert {r.op for r in tail_trace} == {"write", "read"}  # restart re-read
        assert max(r.size for r in hot_trace) < max(r.size for r in tail_trace)

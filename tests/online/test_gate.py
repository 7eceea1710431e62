"""Tests for the cost/benefit admission gate."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.core.params import CostModelParams
from repro.exceptions import ConfigurationError
from repro.online import CostBenefitGate, modelled_trace_cost
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


@pytest.fixture
def spec():
    return ClusterSpec()


@pytest.fixture
def pipeline(spec):
    return MHAPipeline(spec, seed=0)


def ior_trace(sizes, seed=1, processes=8, total=4 * MiB):
    return IORWorkload(
        num_processes=processes,
        request_sizes=list(sizes),
        total_size=total,
        seed=seed,
        file="f",
    ).trace("write")


@pytest.fixture
def mismatch(pipeline):
    """An old plan built for small requests facing large ones, and the
    plan actually built for them."""
    old_plan = pipeline.plan(ior_trace([16 * KiB], processes=2, total=1 * MiB))
    window = ior_trace([64 * KiB, 256 * KiB], seed=3)
    new_plan = pipeline.plan(window)
    entries = list(new_plan.drt.entries_for("f"))
    return old_plan, new_plan, window, entries


class TestModelledTraceCost:
    def test_positive_for_nonempty_trace(self, spec, pipeline):
        params = CostModelParams.from_cluster(spec)
        window = ior_trace([64 * KiB])
        plan = pipeline.plan(window)
        assert modelled_trace_cost(params, plan, window) > 0

    def test_adapted_plan_is_cheaper(self, spec, mismatch):
        old_plan, new_plan, window, _ = mismatch
        params = CostModelParams.from_cluster(spec)
        old_cost = modelled_trace_cost(params, old_plan, window)
        new_cost = modelled_trace_cost(params, new_plan, window)
        assert new_cost < old_cost


class TestCostBenefitGate:
    def test_long_horizon_admits(self, spec, mismatch):
        old_plan, new_plan, window, entries = mismatch
        gate = CostBenefitGate(spec, horizon=1e6)
        decision = gate.evaluate(old_plan, new_plan, window, entries)
        assert decision.admitted
        assert decision.benefit_per_window > 0
        assert decision.bytes_to_move == sum(e.length for e in entries)
        assert "ADMIT" in str(decision)

    def test_short_horizon_rejects(self, spec, mismatch):
        old_plan, new_plan, window, entries = mismatch
        span = max(r.timestamp for r in window) - min(r.timestamp for r in window)
        gate = CostBenefitGate(spec, horizon=span / 100)
        decision = gate.evaluate(old_plan, new_plan, window, entries)
        assert not decision.admitted
        assert "REJECT" in str(decision)

    def test_negative_benefit_rejects_regardless_of_horizon(self, spec, mismatch):
        old_plan, new_plan, window, entries = mismatch
        gate = CostBenefitGate(spec, horizon=1e9)
        # swap roles: "migrating" from the adapted plan back to the bad one
        decision = gate.evaluate(new_plan, old_plan, window, entries)
        assert decision.benefit_per_window < 0
        assert not decision.admitted

    def test_safety_factor_demands_margin(self, spec, mismatch):
        old_plan, new_plan, window, entries = mismatch
        base = CostBenefitGate(spec, horizon=1e6).evaluate(
            old_plan, new_plan, window, entries
        )
        margin = base.projected_benefit / base.migration_time
        strict = CostBenefitGate(spec, horizon=1e6, safety=margin * 2)
        assert not strict.evaluate(old_plan, new_plan, window, entries).admitted

    def test_projected_benefit_scales_with_horizon(self, spec, mismatch):
        old_plan, new_plan, window, entries = mismatch
        d1 = CostBenefitGate(spec, horizon=100.0).evaluate(
            old_plan, new_plan, window, entries
        )
        d2 = CostBenefitGate(spec, horizon=200.0).evaluate(
            old_plan, new_plan, window, entries
        )
        assert d2.projected_benefit == pytest.approx(2 * d1.projected_benefit)

    def test_validation(self, spec):
        with pytest.raises(ConfigurationError):
            CostBenefitGate(spec, horizon=0)
        with pytest.raises(ConfigurationError):
            CostBenefitGate(spec, safety=0)

    @pytest.mark.parametrize("field", ["horizon", "safety"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_settings_must_be_finite(self, spec, field, value):
        with pytest.raises(ConfigurationError, match=field):
            CostBenefitGate(spec, **{field: value})

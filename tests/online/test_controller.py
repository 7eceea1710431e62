"""Tests for the relayout controller lifecycle and the legacy shim."""

import math

import pytest

from repro.cluster import ClusterSpec
from repro.core import MHAPipeline
from repro.exceptions import ConfigurationError
from repro.online import ControllerConfig, RelayoutController
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


@pytest.fixture
def spec():
    return ClusterSpec()


@pytest.fixture
def pipeline(spec):
    return MHAPipeline(spec, seed=0)


def ior_trace(sizes, seed=1, processes=4, total=2 * MiB):
    return IORWorkload(
        num_processes=processes,
        request_sizes=list(sizes),
        total_size=total,
        seed=seed,
        file="f",
    ).trace("write")


@pytest.fixture
def shifted(pipeline):
    """A plan built for small requests plus the shifted live trace."""
    plan = pipeline.plan(ior_trace([16 * KiB], processes=2, total=1 * MiB))
    live = ior_trace([64 * KiB, 256 * KiB], seed=3, total=8 * MiB, processes=8)
    return plan, live


def drive(controller, trace):
    """Feed records until the controller returns an action (or runs out)."""
    for record in trace.sorted_by_time():
        action = controller.observe(record)
        if action is not None:
            return action
    return None


class TestRelayoutController:
    def test_shifted_traffic_admits_a_relayout(self, pipeline, shifted):
        plan, live = shifted
        controller = RelayoutController(
            pipeline,
            plan,
            ControllerConfig(
                window=len(live), check_interval=len(live), horizon=1e6
            ),
        )
        action = drive(controller, live)
        assert action is not None
        assert controller.in_flight is action
        assert controller.replans_admitted == 1
        assert action.decision.admitted
        assert action.migration_entries
        # while in flight, further records never start a second replan
        for record in live.sorted_by_time():
            assert controller.observe(record) is None

    def test_commit_activates_plan_and_resets_sketch(self, pipeline, shifted):
        plan, live = shifted
        controller = RelayoutController(
            pipeline,
            plan,
            ControllerConfig(window=len(live), check_interval=len(live), horizon=1e6),
        )
        action = drive(controller, live)
        controller.commit(action)
        assert controller.active_plan is action.plan
        assert controller.in_flight is None
        assert controller.sketch.observed == 0

    def test_abort_keeps_old_plan(self, pipeline, shifted):
        plan, live = shifted
        controller = RelayoutController(
            pipeline,
            plan,
            ControllerConfig(window=len(live), check_interval=len(live), horizon=1e6),
        )
        action = drive(controller, live)
        controller.abort(action)
        assert controller.active_plan is plan
        assert controller.in_flight is None

    def test_commit_of_foreign_action_rejected(self, pipeline, shifted):
        plan, live = shifted
        cfg = ControllerConfig(window=len(live), check_interval=len(live), horizon=1e6)
        c1 = RelayoutController(pipeline, plan, cfg)
        c2 = RelayoutController(pipeline, plan, cfg)
        action = drive(c1, live)
        with pytest.raises(ConfigurationError):
            c2.commit(action)
        with pytest.raises(ConfigurationError):
            c2.abort(action)

    def test_cooldown_suppresses_checks(self, pipeline, shifted):
        plan, live = shifted
        controller = RelayoutController(
            pipeline,
            plan,
            ControllerConfig(
                window=len(live),
                check_interval=len(live),
                horizon=1e6,
                cooldown=10 * len(live),
            ),
        )
        action = drive(controller, live)
        controller.commit(action)
        checks_before = controller.drift_checks
        for record in live.sorted_by_time():
            controller.observe(record)
        assert controller.drift_checks == checks_before  # still cooling down

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(window=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(check_interval=0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(cooldown=-1)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("drift_threshold", math.nan),
            ("drift_threshold", math.inf),
            ("drift_threshold", 0.0),
            ("min_samples", 0),
            ("unmapped_threshold", math.nan),
            ("horizon", -1.0),
            ("horizon", math.nan),
            ("horizon", math.inf),
            ("safety", math.nan),
            ("safety", math.inf),
            ("reuse_tolerance", math.nan),
            ("reuse_tolerance", math.inf),
            ("reuse_tolerance", -0.1),
        ],
    )
    def test_config_rejects_settings_its_parts_reject(self, field, value):
        """Settings handed on to the detector, gate and replanner fail
        when the config is built, not when the controller is."""
        # the detector calls ``drift_threshold`` plain ``threshold``
        with pytest.raises(ConfigurationError, match=field.removeprefix("drift_")):
            ControllerConfig(**{field: value})

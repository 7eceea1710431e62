"""Cross-validation: the cost model against the discrete-event simulator.

DESIGN.md's calibration section claims the cost model's coefficients
are *exactly* the simulator's service-time coefficients.  These tests
prove it where the claim is exact (single requests, deterministic
bursts) and bound it where the model deliberately aggregates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import CostModelParams, request_cost
from repro.core.cost_model import burst_costs
from repro.layouts import VariedStripeLayout
from repro.pfs import HybridPFS
from repro.schemes.base import LayoutView
from repro.units import KiB


@pytest.fixture(scope="module")
def spec():
    return ClusterSpec()


def simulate_one(spec, layout, op, offset, length):
    """Simulated completion time of a single isolated request."""
    pfs = HybridPFS(spec)
    done = pfs.issue(op, layout.map_extent(offset, length))
    pfs.sim.run()
    return pfs.sim.now


class TestSingleRequestExactness:
    @given(
        h=st.sampled_from([0, 4 * KiB, 16 * KiB, 64 * KiB]),
        s_extra=st.sampled_from([4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB]),
        length=st.integers(min_value=1, max_value=512 * KiB),
        offset_units=st.integers(min_value=0, max_value=64),
        op=st.sampled_from(["read", "write"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_model_equals_simulator_for_isolated_requests(
        self, h, s_extra, length, offset_units, op
    ):
        """For one request on an idle system, Eq. 2 with the cluster's
        parameters must equal the simulated completion time exactly."""
        spec = ClusterSpec()
        s = h + s_extra
        offset = offset_units * 4 * KiB
        layout = VariedStripeLayout(
            spec.hserver_ids, spec.sserver_ids, h=h, s=s, obj="f"
        )
        params = CostModelParams.from_cluster(spec)
        predicted = request_cost(params, op, offset, length, h, s)
        simulated = simulate_one(spec, layout, op, offset, length)
        assert simulated == pytest.approx(predicted, rel=1e-9)

    def test_read_write_asymmetry_matches(self, spec):
        layout = VariedStripeLayout(
            spec.hserver_ids, spec.sserver_ids, h=0, s=64 * KiB, obj="f"
        )
        params = CostModelParams.from_cluster(spec)
        for op in ("read", "write"):
            predicted = request_cost(params, op, 0, 64 * KiB, 0, 64 * KiB)
            simulated = simulate_one(spec, layout, op, 0, 64 * KiB)
            assert simulated == pytest.approx(predicted, rel=1e-9)


class TestBurstAccuracy:
    def _simulate_burst(self, spec, layout, offsets, length, op="write"):
        """All requests issued simultaneously; time until the last ends."""
        pfs = HybridPFS(spec)
        completions = [
            pfs.issue(op, layout.map_extent(o, length)) for o in offsets
        ]
        pfs.sim.run()
        assert all(c.fired for c in completions)
        return pfs.sim.now

    @given(
        h=st.sampled_from([0, 16 * KiB, 64 * KiB]),
        s_extra=st.sampled_from([16 * KiB, 64 * KiB]),
        count=st.integers(min_value=1, max_value=12),
        length=st.sampled_from([16 * KiB, 128 * KiB, 256 * KiB]),
    )
    @settings(max_examples=40, deadline=None)
    def test_burst_model_bounds_simulated_makespan(
        self, h, s_extra, count, length
    ):
        """The exact-burst cost is a lower bound on the simulated burst
        makespan (FIFO ordering effects can only add), and within 2x
        (the per-server max() underestimates at most the cross-server
        serialization the simulator resolves)."""
        spec = ClusterSpec()
        s = h + s_extra
        layout = VariedStripeLayout(
            spec.hserver_ids, spec.sserver_ids, h=h, s=s, obj="f"
        )
        params = CostModelParams.from_cluster(spec)
        offsets = np.arange(count, dtype=np.int64) * length
        predicted = burst_costs(
            params,
            offsets,
            np.full(count, length, dtype=np.int64),
            np.zeros(count, dtype=bool),
            np.zeros(count, dtype=np.int64),  # one shared burst id
            h,
            s,
        )[0]
        simulated = self._simulate_burst(spec, layout, offsets.tolist(), length)
        assert predicted <= simulated * (1 + 1e-9)
        assert simulated <= 2.0 * predicted

    def test_tiled_burst_is_tight(self, spec):
        """For a stripe-aligned tiled burst, model == simulator."""
        h, s = 64 * KiB, 64 * KiB
        length = 64 * KiB
        count = 8  # one request per server, no queueing at all
        layout = VariedStripeLayout(
            spec.hserver_ids, spec.sserver_ids, h=h, s=s, obj="f"
        )
        params = CostModelParams.from_cluster(spec)
        offsets = np.arange(count, dtype=np.int64) * length
        predicted = burst_costs(
            params,
            offsets,
            np.full(count, length, dtype=np.int64),
            np.zeros(count, dtype=bool),
            np.zeros(count, dtype=np.int64),
            h,
            s,
        )[0]
        simulated = self._simulate_burst(spec, layout, offsets.tolist(), length)
        assert simulated == pytest.approx(predicted, rel=1e-9)


class TestSchemeOptimalityAgainstSimulator:
    def test_rssd_choice_is_simulator_competitive(self, spec):
        """The stripe pair RSSD picks must be within 10% of the best
        pair on a coarse simulator grid — the model's decisions
        transfer to the ground truth."""
        from repro.core import determine_stripes

        length = 128 * KiB
        count = 16
        conc = 8
        params = CostModelParams.from_cluster(spec)
        offsets = np.arange(count, dtype=np.int64) * length
        lengths = np.full(count, length, dtype=np.int64)
        bursts = np.repeat(np.arange(count // conc), conc)
        decision = determine_stripes(
            params, offsets, lengths, np.zeros(count, dtype=bool), bursts
        )

        def simulate_pair(h, s):
            layout = VariedStripeLayout(
                spec.hserver_ids, spec.sserver_ids, h=h, s=s, obj="f"
            )
            view = LayoutView({"f": layout})
            from repro.pfs import run_workload
            from repro.tracing import Trace, TraceRecord

            records = [
                TraceRecord(
                    offset=int(o), timestamp=float(i // conc) * 10,
                    rank=i % conc, size=length, op="write", file="f",
                )
                for i, o in enumerate(offsets)
            ]
            return run_workload(spec, view, Trace(records)).makespan

        chosen = simulate_pair(decision.h, decision.s)
        grid = [
            (0, 32 * KiB), (0, 128 * KiB), (16 * KiB, 64 * KiB),
            (32 * KiB, 96 * KiB), (64 * KiB, 128 * KiB), (128 * KiB, 128 * KiB),
        ]
        best = min(simulate_pair(h, s) for h, s in grid)
        assert chosen <= 1.10 * best

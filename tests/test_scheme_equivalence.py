"""AAL's grid stripe search and HARL's columnar region clipping equal
their per-record reference implementations.

The references score one AAL candidate stripe at a time with the
scalar ``burst_costs`` over per-record arrays, and clip HARL's regions
record by record with the record-path burst map.
Decisions, and the arrays HARL hands to each region search, must match
with ``==``.
"""

import numpy as np
import pytest

import repro.core.cost_model as cost_model
import repro.schemes.harl as harl
from repro.cluster import ClusterSpec
from repro.config import DEFAULT_SAMPLE_SEED
from repro.core.cost_model import burst_costs
from repro.core.determinator import determine_stripes
from repro.core.params import CostModelParams
from repro.core.rst import StripePair
from repro.determinism import SeedDomain, derive_rng
from repro.layouts.varied import VariedStripeLayout
from repro.schemes import AALScheme, HARLScheme
from repro.schemes.default import DEFAULT_STRIPE
from repro.tracing import Trace
from repro.tracing.analysis import burst_ids_of
from repro.tracing.columnar import ColumnarTrace
from repro.units import KiB, MiB
from repro.workloads import IORWorkload


def aal_reference_stripe(scheme, spec, trace):
    """AAL's former stripe search: one scalar cost call per candidate."""
    if len(trace) == 0:
        return DEFAULT_STRIPE
    params = scheme._homogeneous_params(spec)
    burst_map = burst_ids_of(trace)
    offsets = np.array([r.offset for r in trace], dtype=np.int64)
    lengths = np.array([r.size for r in trace], dtype=np.int64)
    is_read = np.array([r.op == "read" for r in trace], dtype=bool)
    bursts = np.array([burst_map[r] for r in trace], dtype=np.int64)
    if len(trace) > scheme.max_eval_requests:
        rng = derive_rng(SeedDomain.SAMPLE, base=DEFAULT_SAMPLE_SEED)
        pick = rng.choice(len(trace), size=scheme.max_eval_requests, replace=False)
        offsets, lengths, is_read, bursts = (
            offsets[pick], lengths[pick], is_read[pick], bursts[pick],
        )
    best_stripe, best_cost = DEFAULT_STRIPE, np.inf
    upper = max(scheme.step, int(lengths.mean()))
    for stripe in range(scheme.step, upper + scheme.step, scheme.step):
        cost = burst_costs(params, offsets, lengths, is_read, bursts, stripe, 0).sum()
        if cost < best_cost:
            best_cost, best_stripe = cost, stripe
    return best_stripe


def harl_reference_tasks(scheme, spec, trace):
    """``(label, task)`` per touched region, the requests clipped record
    by record; a task is ``(params, offsets, lengths, is_read,
    burst_ids, search options)``."""
    params = CostModelParams.from_cluster(spec)
    tasks = []
    for file in trace.files():
        sub = trace.for_file(file).sorted_by_offset()
        burst_map = burst_ids_of(sub)
        _, extent_end = sub.extent()
        bounds = scheme._region_bounds(extent_end, sub.max_size())
        for idx, (start, end) in enumerate(bounds):
            offsets, lengths, is_read, bursts = [], [], [], []
            for i, record in enumerate(sub):
                lo = max(record.offset, start)
                hi = min(record.end, end)
                if lo < hi:
                    offsets.append(lo - start)
                    lengths.append(hi - lo)
                    is_read.append(record.op == "read")
                    bursts.append(burst_map.get(record, -(i + 1)))
            if not offsets:
                continue
            tasks.append((
                f"{file}/r{idx}",
                (
                    params,
                    np.array(offsets, dtype=np.int64),
                    np.array(lengths, dtype=np.int64),
                    np.array(is_read, dtype=bool),
                    np.array(bursts, dtype=np.int64),
                    dict(
                        step=scheme.step,
                        bound_policy="average",
                        max_eval_requests=scheme.max_eval_requests,
                        seed=scheme.seed,
                    ),
                ),
            ))
    return tasks


def harl_reference_decisions(scheme, spec, trace):
    """HARL's former decisions: one serial search per reference task."""
    decisions = {}
    for label, task in harl_reference_tasks(scheme, spec, trace):
        *arrays, options = task
        pair = determine_stripes(*arrays, **options).pair
        layout = VariedStripeLayout(spec.hserver_ids, spec.sserver_ids, pair.h, pair.s)
        decisions[label] = StripePair(layout.h, layout.s)
    return decisions


@pytest.fixture
def spec():
    return ClusterSpec()


def ior_trace(op="write", file="ior.dat", seed=1, sizes=(32 * KiB, 128 * KiB)):
    return IORWorkload(
        num_processes=8,
        request_sizes=list(sizes),
        total_size=8 * MiB,
        seed=seed,
        file=file,
    ).trace(op)


def multi_file_trace():
    """Two files, a write pass and a read pass, five records duplicated."""
    a = ior_trace("write", file="a.dat", seed=1)
    b = ior_trace("read", file="b.dat", seed=2, sizes=(16 * KiB, 256 * KiB))
    records = list(a) + list(b) + list(b)[:5]
    return Trace(records)


class TestAALGridSearch:
    def test_single_file_ior(self, spec):
        trace = ior_trace()
        scheme = AALScheme()
        assert scheme.stripe_for(spec, trace) == aal_reference_stripe(
            scheme, spec, trace
        )

    def test_sampling_path(self, spec):
        trace = ior_trace(sizes=(16 * KiB, 48 * KiB, 96 * KiB))
        scheme = AALScheme(max_eval_requests=64)
        assert len(trace) > scheme.max_eval_requests
        assert scheme.stripe_for(spec, trace) == aal_reference_stripe(
            scheme, spec, trace
        )

    def test_multi_file_trace(self, spec):
        trace = multi_file_trace()
        scheme = AALScheme()
        assert scheme.stripe_for(spec, trace) == aal_reference_stripe(
            scheme, spec, trace
        )
        scheme.build(spec, trace)
        assert scheme.decisions == {
            file: aal_reference_stripe(scheme, spec, trace.for_file(file))
            for file in trace.files()
        }

    # the trace has 51 requests and 40 candidate stripes: one candidate
    # per kernel block, then 24 per block with a ragged tail of 16
    @pytest.mark.parametrize("budget", [1, 24 * 51])
    def test_candidates_split_across_chunks(self, spec, monkeypatch, budget):
        trace = ior_trace(sizes=(64 * KiB, 256 * KiB))
        scheme = AALScheme()
        expected = aal_reference_stripe(scheme, spec, trace)
        monkeypatch.setattr(cost_model, "GRID_CHUNK_ELEMS", budget)
        assert scheme.stripe_for(spec, trace) == expected


class TestHARLColumnarClipping:
    @pytest.mark.parametrize("make_trace", [ior_trace, multi_file_trace])
    def test_decisions_match_record_clipping(self, spec, make_trace):
        trace = make_trace()
        scheme = HARLScheme()
        scheme.build(spec, trace)
        assert scheme.decisions == harl_reference_decisions(scheme, spec, trace)

    @pytest.mark.parametrize("make_trace", [ior_trace, multi_file_trace])
    def test_tasks_match_record_clipping(self, spec, monkeypatch, make_trace):
        trace = make_trace()
        scheme = HARLScheme()
        searched = []

        def recording_search(*args, **kwargs):
            searched.append((args, dict(kwargs)))
            return determine_stripes(*args, **kwargs)

        monkeypatch.setattr(harl, "determine_stripes", recording_search)
        scheme.build(spec, trace)
        expected = harl_reference_tasks(scheme, spec, trace)
        assert list(scheme.decisions) == [label for label, _ in expected]
        assert len(searched) == len(expected)
        for (args, kwargs), (_, want) in zip(searched, expected):
            assert args[0] == want[0] and kwargs == want[5]
            assert len(args) == 5
            for a, b in zip(args[1:], want[1:5]):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_sampled_regions_match(self, spec):
        trace = ior_trace(sizes=(16 * KiB, 48 * KiB))
        scheme = HARLScheme(max_eval_requests=8)
        scheme.build(spec, trace)
        assert scheme.decisions == harl_reference_decisions(scheme, spec, trace)


class TestTraceRepresentations:
    @pytest.mark.parametrize("make_scheme", [AALScheme, HARLScheme])
    def test_record_and_columnar_inputs_agree(self, spec, make_scheme):
        trace = multi_file_trace()
        from_records, from_columns = make_scheme(), make_scheme()
        from_records.build(spec, trace)
        from_columns.build(spec, ColumnarTrace.from_trace(trace))
        assert from_records.decisions == from_columns.decisions
        assert from_records.decisions

"""Differential-test harnesses for the twin-contract registry.

One factory per :attr:`TwinContract.harness` name.  Each factory
receives the contract and returns a hypothesis test function asserting
the twin's observables are *exactly* equal to the reference path's —
never approximately: twins only reorganize the same integer/IEEE
operations (see ``docs/static-analysis.md``, "Twin contracts").

The generated modules under ``tests/contracts/`` are one-liners calling
:func:`build_twin_test`; all substance lives here so regeneration is a
pure rename-level operation (``python -m tools.repro_lint
gen-twin-tests``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import contracts
from repro.cluster import ClusterSpec
from repro.core import cost_model
from repro.core import DRT, DRTEntry, Redirector, StripePair, build_region_layout
from repro.core.cost_model import burst_costs, burst_costs_grid
from repro.core import CostModelParams
from repro.faults import (
    BackgroundScrub,
    FaultPlan,
    ServerOutage,
    TransientSlowdown,
    WriteCliff,
)
from repro.layouts import FixedStripeLayout
from repro.layouts.batch import in_request_order, merge_fragments
from repro.layouts.extents import per_server_bytes_batch, server_totals_grid
from repro.core.features import extract_features, extract_features_columnar
from repro.core.pipeline import MHAPipeline
from repro.pfs import HybridPFS, replay_trace
from repro.schemes.base import LayoutView
from repro.schemes.straggler import StragglerAwareView
from repro.simulate import FIFOResource, Simulator
from repro.tracing import (
    ColumnarTrace,
    Trace,
    TraceRecord,
    burst_ids_columnar,
    burst_ids_of,
    concurrency_columnar,
    concurrency_of,
    load_trace,
    load_trace_mmap,
    save_trace,
    save_trace_columnar,
    split_phases,
    split_phases_columnar,
)
from repro.units import KiB

HARNESSES = {}

#: cluster shapes exercised by the array-kernel harnesses (mirrors
#: tests/core/test_grid_equivalence.py, including single-class clusters)
SPECS = [
    ClusterSpec(),
    ClusterSpec(num_hservers=3, num_sservers=3),
    ClusterSpec(num_sservers=0),
    ClusterSpec(num_hservers=0, num_sservers=2),
]


def harness(name):
    """Register a factory for contracts declaring ``harness=name``."""

    def decorate(factory):
        HARNESSES[name] = factory
        return factory

    return decorate


def build_twin_test(twin_spec):
    """The differential test for one registered twin contract.

    Entry point of the generated modules: resolves the contract, looks
    up its harness factory, and returns the hypothesis test it builds.
    """
    contracts.load_all()
    contract = contracts.get_contract(twin_spec)
    factory = HARNESSES.get(contract.harness)
    if factory is None:
        raise KeyError(
            f"contract {twin_spec} names unknown harness {contract.harness!r}; "
            "add a factory to tests/contracts/_harnesses.py"
        )
    return factory(contract)


# ---------------------------------------------------------------- strategies

_seeds = st.integers(min_value=0, max_value=2**32 - 1)

_extent_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=512 * KiB),
        st.integers(min_value=0, max_value=96 * KiB),
    ),
    min_size=0,
    max_size=10,
)

_trace_shapes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64),  # offset in 16 KiB units
        st.integers(min_value=1, max_value=12),  # size in 16 KiB units
        st.integers(min_value=0, max_value=3),  # phase index
        st.integers(min_value=0, max_value=4),  # rank
        st.sampled_from(["read", "write"]),
    ),
    min_size=1,
    max_size=16,
)

# durations/bounds as integer quarters so float equality is trivially exact
_service_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # duration * 4
        st.integers(min_value=0, max_value=60),  # not_before * 4
    ),
    min_size=1,
    max_size=12,
)

#: a fixed four-mechanism plan for the faulted replay harness
#: (servers 0-3 exist in every spec that harness builds)
_FAULT_PLAN = FaultPlan(
    faults=(
        TransientSlowdown(server=0, factor=3.0, windows=3, mean_duration=1.0, horizon=8.0),
        ServerOutage(server=1, at=0.5, duration=1.0, rebuild_duration=2.0, rebuild_factor=2.0),
        BackgroundScrub(server=2, period=2.0, duty=0.5, factor=1.5),
        WriteCliff(server=3, capacity_bytes=64 * KiB, factor=2.0, recovery_idle=0.5),
    )
)

#: every mechanism stacked on one server, the faulted replay
#: harness's second plan
_SERVER_FAULT_PLAN = FaultPlan(
    faults=(
        TransientSlowdown(server=0, factor=3.0, windows=3, mean_duration=1.0, horizon=8.0),
        ServerOutage(server=0, at=0.5, duration=1.0, rebuild_duration=2.0, rebuild_factor=2.0),
        BackgroundScrub(server=0, period=2.0, duty=0.5, factor=1.5),
        WriteCliff(server=0, capacity_bytes=64 * KiB, factor=2.0, recovery_idle=0.5),
    )
)


def _random_region(rng, max_len=1 << 18):
    K = int(rng.integers(1, 48))
    offsets = rng.integers(0, 1 << 21, K)
    lengths = rng.integers(1, max_len, K)
    is_read = rng.random(K) < 0.5
    rng.integers(1, 16, K)  # unused, but drawn: later draws depend on it
    bursts = rng.integers(0, max(1, K // 3), K)
    return offsets, lengths, is_read, bursts


def _candidate_grid(rng, G=16):
    h = rng.integers(0, 64, G) * 4096
    s = np.maximum(rng.integers(1, 64, G) * 4096, h)
    return h, s


def _wide_burst_region(rng):
    """1-6 bursts of 8-300 mixed read/write requests, ids unsorted.

    Bursts this wide are where a reduction primitive other than the
    scalar path's would sum the per-burst loads in a different order.
    """
    sizes = rng.integers(8, 301, int(rng.integers(1, 7)))
    K = int(sizes.sum())
    # sparse, shuffled ids: the kernel must group by id, not by position
    bursts = np.repeat(rng.permutation(sizes.shape[0]) * 7 + 3, sizes)
    rng.shuffle(bursts)
    offsets = rng.integers(0, 1 << 24, K)
    lengths = rng.integers(1, 1 << 18, K)
    is_read = rng.random(K) < 0.5
    return offsets, lengths, is_read, bursts


# ------------------------------------------------------------- columnar trace

# raw columnar-trace rows: timestamps drawn from a tie-heavy menu so
# phase/burst boundaries are exercised, plus an explicit duplicate flag
# — duplicated records are where the reference's dict-keyed results
# collapse, the exact semantics the columnar twins must reproduce
_columnar_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64),  # offset in 16 KiB units
        st.integers(min_value=1, max_value=12),  # size in 16 KiB units
        st.sampled_from([0.0, 0.25, 0.3, 1.0, 1.05, 5.0]),  # timestamp
        st.integers(min_value=0, max_value=4),  # rank
        st.sampled_from(["read", "write"]),
        st.booleans(),  # emit the record twice?
    ),
    min_size=0,
    max_size=16,
)

_gaps = st.sampled_from([0.3, 0.5, 2.0])
_spatials = st.sampled_from([False, True, 4 * 16 * KiB])


def _columnar_pair(raw, files=("f",)):
    """A record trace (with duplicates) and its columnar twin."""
    records = []
    for i, (off, size, ts, rank, op, dup) in enumerate(raw):
        record = TraceRecord(
            offset=off * 16 * KiB,
            timestamp=ts,
            rank=rank,
            size=size * 16 * KiB,
            op=op,
            file=files[i % len(files)],
        )
        records.append(record)
        if dup:
            records.append(record)
    trace = Trace(records)
    return trace, ColumnarTrace.from_trace(trace)


@harness("trace_phases")
def _trace_phases(contract):
    @given(raw=_columnar_rows, gap=_gaps)
    @settings(max_examples=40, deadline=None)
    def test(raw, gap):
        trace, col = _columnar_pair(raw)
        want = split_phases(trace, gap=gap)
        slices = split_phases_columnar(col, gap=gap)
        assert slices.n_phases == len(want)
        for p, phase in enumerate(want):
            got = [col.record(i) for i in slices.indices(p).tolist()]
            assert got == list(phase.records)
            assert slices.start_time(p) == phase.start_time
            assert slices.end_time(p) == phase.end_time

    return test


@harness("trace_concurrency")
def _trace_concurrency(contract):
    @given(raw=_columnar_rows, gap=_gaps, spatial=_spatials)
    @settings(max_examples=40, deadline=None)
    def test(raw, gap, spatial):
        trace, col = _columnar_pair(raw)
        want = concurrency_of(trace, gap=gap, spatial=spatial)
        got = concurrency_columnar(col, gap=gap, spatial=spatial)
        assert got.shape == (len(trace),)
        for i, record in enumerate(trace):
            assert got[i] == want[record]

    return test


@harness("trace_bursts")
def _trace_bursts(contract):
    @given(raw=_columnar_rows, gap=_gaps, spatial=_spatials)
    @settings(max_examples=40, deadline=None)
    def test(raw, gap, spatial):
        trace, col = _columnar_pair(raw)
        want = burst_ids_of(trace, gap=gap, spatial=spatial)
        got = burst_ids_columnar(col, gap=gap, spatial=spatial)
        assert got.shape == (len(trace),)
        for i, record in enumerate(trace):
            assert got[i] == want[record]

    return test


@harness("features_columnar")
def _features_columnar(contract):
    @given(raw=_columnar_rows, gap=_gaps, spatial=_spatials)
    @settings(max_examples=40, deadline=None)
    def test(raw, gap, spatial):
        trace, col = _columnar_pair(raw)
        want = extract_features(trace, gap=gap, spatial=spatial)
        got = extract_features_columnar(col, gap=gap, spatial=spatial)
        # bitwise float equality, not allclose: twins reorganize the
        # same integer-valued assignments
        assert got.points.tobytes() == want.points.tobytes()
        assert got.spread.tobytes() == want.spread.tobytes()

    return test


@harness("plan_file_columnar")
def _plan_file_columnar(contract):
    @given(raw=_columnar_rows, gap=_gaps, spatial=_spatials, k=st.sampled_from([None, 1, 3]))
    @settings(max_examples=20, deadline=None)
    def test(raw, gap, spatial, k):
        trace, _ = _columnar_pair(raw)
        sub = trace.for_file("f").sorted_by_offset()
        col = ColumnarTrace.from_trace(sub)
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        pipe = MHAPipeline(spec, gap=gap, spatial=spatial, k=k)
        drt_ref, drt_twin = DRT(), DRT()
        ref_plan, ref_grouping = pipe.plan_file("f", sub, drt_ref)
        twin_plan, twin_grouping = pipe.plan_file_columnar("f", col, drt_twin)
        assert twin_plan.region_names() == ref_plan.region_names()
        assert np.array_equal(twin_grouping.labels, ref_grouping.labels)
        assert twin_plan.migrated_bytes == ref_plan.migrated_bytes
        assert list(drt_twin) == list(drt_ref)
        # the twin translates in batches, which leave the hot-entry
        # counters to the per-record path
        assert (drt_twin.cache_hits, drt_twin.cache_misses) == (0, 0)
        for twin_region, ref_region in zip(twin_plan.regions, ref_plan.regions):
            assert twin_region.name == ref_region.name
            assert twin_region.size == ref_region.size
            for twin_col, ref_col in zip(
                twin_region.request_arrays(), ref_region.request_arrays()
            ):
                assert twin_col.dtype == ref_col.dtype
                assert twin_col.tobytes() == ref_col.tobytes()

    return test


@harness("trace_roundtrip")
def _trace_roundtrip(contract):
    @given(raw=_columnar_rows, multi=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test(raw, multi, tmp_path_factory):
        trace, col = _columnar_pair(raw, files=("f", "g") if multi else ("f",))
        directory = tmp_path_factory.mktemp("roundtrip")
        text = directory / "trace.csv"
        binary = directory / "trace.bin"
        save_trace(trace, text)
        save_trace_columnar(col, binary)
        back = load_trace_mmap(binary)
        assert list(back.to_trace()) == list(load_trace(text)) == list(trace)
        assert back == col
        # the binary format also round-trips a record-trace input
        save_trace_columnar(trace, binary)
        assert list(load_trace_mmap(binary).to_trace()) == list(trace)

    return test


# ---------------------------------------------------------------- replay


@harness("replay")
def _replay(contract):
    @given(
        raw=_trace_shapes,
        nics=st.booleans(),
        gap=st.booleans(),
        plan=st.sampled_from([None, _FAULT_PLAN, _SERVER_FAULT_PLAN]),
        open_=st.booleans(),
        feedback=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test(raw, nics, gap, plan, open_, feedback):
        spec = ClusterSpec(num_hservers=2, num_sservers=2, model_client_nics=nics)
        trace = Trace(
            [
                TraceRecord(
                    offset=off * 16 * KiB,
                    timestamp=phase * 10.0,
                    rank=rank,
                    size=size * 16 * KiB,
                    op=op,
                    file="f",
                )
                for off, size, phase, rank, op in raw
            ]
        )
        runs = {}
        views = {}
        for engine in ("event", "flat"):
            pfs = HybridPFS(spec)
            view = LayoutView(
                {}, default=FixedStripeLayout(spec.server_ids, 32 * KiB, obj="f")
            )
            if feedback:
                # thresholds low enough that the fault plan's slow
                # servers draw redirects within a few requests
                view = StragglerAwareView(
                    view,
                    spec.num_servers,
                    replication_budget=trace.total_bytes() // 2,
                    threshold=1.2,
                    min_samples=1,
                )
            views[engine] = view
            metrics = replay_trace(
                pfs,
                view,
                trace,
                engine=engine,
                keep_latencies=True,
                barrier_gap=5.0 if gap else None,
                fault_plan=plan,
                open_arrivals=open_,
            )
            runs[engine] = (metrics, pfs)
        (em, epfs), (fm, fpfs) = runs["event"], runs["flat"]
        assert fm.makespan == em.makespan
        assert fm.latencies == em.latencies
        assert fm.latency_ranks == em.latency_ranks
        assert fm.per_server_latencies == em.per_server_latencies
        assert fm.per_server_busy == em.per_server_busy
        assert fm.per_server_bytes == em.per_server_bytes
        assert fm.total_bytes == em.total_bytes
        assert fm.requests == em.requests
        for fsrv, esrv in zip(fpfs.servers, epfs.servers):
            assert fsrv.stats == esrv.stats
            assert fsrv.channel.busy_until == esrv.channel.busy_until
            assert fsrv.channel.served == esrv.channel.served
        assert fpfs.sim.now == epfs.sim.now
        if feedback:
            fview, eview = views["flat"], views["event"]
            assert fview.replicated_bytes == eview.replicated_bytes
            assert fview.redirected_fragments == eview.redirected_fragments

    return test


# ---------------------------------------------------------------- pfs layers


@harness("fifo_schedule")
def _fifo_schedule(contract):
    @given(batch=_service_batches)
    @settings(max_examples=30, deadline=None)
    def test(batch):
        ref = FIFOResource(Simulator())
        twin = FIFOResource(Simulator())
        for dur4, nb4 in batch:
            record, _ = ref.schedule(dur4 / 4.0, not_before=nb4 / 4.0)
            finish = twin.schedule_flat(0.0, dur4 / 4.0, not_before=nb4 / 4.0)
            assert finish == record.finish
        assert twin.busy_time == ref.busy_time
        assert twin.served == ref.served
        assert twin.busy_until == ref.busy_until

    return test


# ---------------------------------------------------------------- DRT layer


def _build_drt(entry_shapes):
    drt = DRT()
    cursor = 0
    for i, (gap, length, mapped) in enumerate(entry_shapes):
        cursor += gap
        if mapped:
            drt.add(
                DRTEntry(
                    o_file="f",
                    o_offset=cursor,
                    length=length,
                    r_file=f"f.r{i % 2}",
                    r_offset=i * (1 << 20),
                )
            )
        cursor += length
    return drt, cursor


_drt_shapes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64 * KiB),  # gap before the entry
        st.integers(min_value=1, max_value=64 * KiB),  # entry length
        st.booleans(),  # actually insert it?
    ),
    min_size=0,
    max_size=8,
)

_probes = st.tuples(
    st.integers(min_value=0, max_value=640 * KiB),
    st.integers(min_value=0, max_value=128 * KiB),
)

_probe_batches = st.lists(_probes, min_size=0, max_size=10)


@st.composite
def _repeating(draw, items, max_size=12):
    """A list drawn from a pool of at most four ``items``, so that
    entries repeat (a profiled application's subsequent runs)."""
    pool = draw(st.lists(items, min_size=1, max_size=4))
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_size)
    )
    return [pool[p] for p in picks]


@harness("drt_translate")
def _drt_translate(contract):
    @given(
        shapes=_drt_shapes,
        probes=_probe_batches,
        file=st.sampled_from(["f", "other"]),
    )
    @settings(max_examples=30, deadline=None)
    def test(shapes, probes, file):
        batched, _ = _build_drt(shapes)
        scalar, _ = _build_drt(shapes)
        # a per-record lookup first, so the hot slot holds an entry
        for o, l in probes[:1]:
            batched.translate(file, o, l)
        hot = (batched.cache_hits, batched.cache_misses, dict(batched._hot))
        got = batched.translate_many(
            file, [o for o, _ in probes], [l for _, l in probes]
        )
        assert got.starts.size == len(probes) + 1
        assert [got.extents(k) for k in range(len(probes))] == [
            scalar.translate(file, o, l) for o, l in probes
        ]
        # batch lookups leave the hot-entry list and its counters alone
        assert (batched.cache_hits, batched.cache_misses, dict(batched._hot)) == hot

    return test


def _extent_runs(runs, k):
    """Extent ``k`` of a run batch as ``(servers, lengths)``."""
    lo, hi = runs.starts[k], runs.starts[k + 1]
    return runs.servers[lo:hi], runs.lengths[lo:hi]


def _merged(fragments):
    """``merge_fragments`` reduced to the ``(servers, lengths)`` a run
    batch keeps."""
    merged = merge_fragments(fragments)
    return [f.server for f in merged], [f.length for f in merged]


def _build_redirector(spec):
    drt = DRT()
    drt.add(DRTEntry("f", 0, 64 * KiB, "f.r0", 0))
    drt.add(DRTEntry("f", 128 * KiB, 64 * KiB, "f.r1", 32 * KiB))
    regions = {
        "f.r0": build_region_layout(spec, StripePair(0, 8 * KiB), "f.r0"),
        "f.r1": build_region_layout(spec, StripePair(4 * KiB, 16 * KiB), "f.r1"),
    }
    originals = {"f": FixedStripeLayout(spec.server_ids, 64 * KiB, obj="f")}
    return Redirector(drt, regions, originals)


@harness("redirector_runs")
def _redirector_runs(contract):
    @given(probes=_probe_batches | _repeating(_probes))
    @settings(max_examples=40, deadline=None)
    def test(probes):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        batched, scalar = _build_redirector(spec), _build_redirector(spec)
        runs = batched.merged_runs(
            "f", [o for o, _ in probes], [l for _, l in probes]
        )
        assert runs.n_extents == len(probes)
        for k, (o, l) in enumerate(probes):
            assert _extent_runs(runs, k) == _merged(scalar.map_request("f", o, l))

    return test


# ---------------------------------------------------------------- layout view


def _view(spec):
    return LayoutView(
        {"f": FixedStripeLayout(spec.server_ids, 64 * KiB, obj="f")},
        default=FixedStripeLayout(spec.server_ids, 4 * KiB),
    )


@harness("layout_view_runs")
def _layout_view_runs(contract):
    @given(probes=_extent_batches, known=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test(probes, known):
        view = _view(ClusterSpec(num_hservers=2, num_sservers=2))
        file = "f" if known else "other"
        runs = view.merged_runs(
            file, [o for o, _ in probes], [l for _, l in probes]
        )
        assert runs.n_extents == len(probes)
        for k, (o, l) in enumerate(probes):
            assert _extent_runs(runs, k) == _merged(view.map_request(file, o, l))

    return test


# ---------------------------------------------------------------- straggler view


def _saw_view(spec, slow, budget):
    """A straggler-aware view over 16 KiB striping (file ``g``: 8 KiB
    over the servers in reverse) whose EWMAs already mark server
    ``slow`` a straggler."""
    layouts = {"g": FixedStripeLayout(spec.server_ids[::-1], 8 * KiB, obj="g")}
    default = FixedStripeLayout(spec.server_ids, 16 * KiB, obj="f")
    view = StragglerAwareView(
        LayoutView(layouts, default=default),
        spec.num_servers,
        replication_budget=budget,
        min_samples=1,
    )
    for server in range(spec.num_servers):
        view.observe_latency(server, 4.0 if server == slow else 1.0, 1.0)
    return view


_budgets = st.sampled_from([0, 48 * KiB, 1 << 30])


@harness("saw_runs")
def _saw_runs(contract):
    @given(
        writes=_probe_batches,
        probes=_extent_batches,
        slow=st.integers(min_value=0, max_value=3),
        budget=_budgets,
    )
    @settings(max_examples=30, deadline=None)
    def test(writes, probes, slow, budget):
        view = _saw_view(ClusterSpec(num_hservers=2, num_sservers=2), slow, budget)
        # writes bound for the straggler leave redirects in the DRT
        for o, l in writes:
            view.dispatch_request("write", "f", o, l)
        runs = view.merged_runs("f", [o for o, _ in probes], [l for _, l in probes])
        assert runs.n_extents == len(probes)
        for k, (o, l) in enumerate(probes):
            assert _extent_runs(runs, k) == _merged(view.map_request("f", o, l))

    return test


@st.composite
def _dispatch_requests(draw):
    """Steps of ``(op, file, offset, length, observation)``: the extents
    come free or from a small pool, files ``f`` and ``g`` interleave,
    and an optional ``(server, latency * 4)`` observation precedes each
    request."""
    extents = st.tuples(
        st.integers(min_value=0, max_value=512 * KiB),
        st.integers(min_value=1, max_value=96 * KiB),
    )
    picked = draw(
        st.lists(extents, min_size=1, max_size=14) | _repeating(extents, 14)
    )
    seen = st.none() | st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=40),
    )
    return [
        (
            draw(st.sampled_from(["read", "write"])),
            draw(st.sampled_from(["f", "g"])),
            o,
            l,
            draw(seen),
        )
        for o, l in picked
    ]


@st.composite
def _rewrite(draw, slow):
    """Steps that write one extent of ``f`` twice, each time followed
    by reads of extents overlapping it.  Before the second write a
    server other than ``slow`` turns slow too (a ``(server, 40)``
    observation), so that write redirects fragments the first left in
    place: redirects land on extents the reads already saw covered."""
    o = draw(st.integers(min_value=0, max_value=512 * KiB))
    l = draw(st.integers(min_value=48 * KiB, max_value=96 * KiB))
    overlapping = st.tuples(
        st.integers(min_value=max(0, o - 48 * KiB), max_value=o + l - 1),
        st.integers(min_value=1, max_value=96 * KiB),
    ).filter(lambda e: e[0] + e[1] > o)
    reads = [
        ("read", "f", ro, rl, None)
        for ro, rl in draw(st.lists(overlapping, max_size=3))
    ]
    reads.append(("read", "f", o, l, None))
    other = (slow + draw(st.integers(min_value=1, max_value=3))) % 4
    return [
        ("write", "f", o, l, None),
        *reads,
        ("write", "f", o, l, (other, 40)),
        *reads,
    ]


def _columns(fragments):
    """A :class:`SubRequest` list's servers and lengths, the columns
    ``dispatch_runs`` returns."""
    return [f.server for f in fragments], [f.length for f in fragments]


def _premap(view, steps):
    """``steps`` mapped as the flat kernel premaps a trace: one batch
    per file, gathered back into step order."""
    rows = {}
    for k, (_, file, _, _, _) in enumerate(steps):
        rows.setdefault(file, []).append(k)
    parts = [
        view.merged_runs(
            file, [steps[k][2] for k in ks], [steps[k][3] for k in ks]
        )
        for file, ks in rows.items()
    ]
    return in_request_order(parts, list(rows.values()))


@harness("saw_dispatch")
def _saw_dispatch(contract):
    @given(
        case=st.integers(min_value=0, max_value=3).flatmap(
            lambda slow: st.tuples(
                st.just(slow), _rewrite(slow), _dispatch_requests()
            )
        ),
        budget=_budgets,
    )
    @settings(max_examples=50, deadline=None)
    def test(case, budget):
        slow, rewrite, steps = case
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        ref, twin = _saw_view(spec, slow, budget), _saw_view(spec, slow, budget)
        # the rewrite runs first, while the whole budget remains, on a
        # premap of every step taken before any redirect, as the flat
        # kernel takes it; the later steps are premapped again, over
        # the redirects the rewrite left
        before = _premap(twin, rewrite + steps)
        at = 0
        for part in (rewrite, steps):
            premap = before if part is rewrite else _premap(twin, part)
            for k, (op, file, o, l, seen) in enumerate(part):
                if seen is not None:
                    server, lat4 = seen
                    ref.observe_latency(server, lat4 / 4.0, 2.0 + at)
                    twin.observe_latency(server, lat4 / 4.0, 2.0 + at)
                at += 1
                want = ref.dispatch_request(op, file, o, l)
                got = twin.dispatch_runs(op, file, o, l, premap, k)
                assert got == _columns(want)
        assert twin.replicated_bytes == ref.replicated_bytes
        assert twin.redirected_fragments == ref.redirected_fragments
        assert list(twin._drt) == list(ref._drt)

    return test


# ---------------------------------------------------------------- array kernels


@harness("extents_totals_grid")
def _extents_totals_grid(contract):
    @given(
        seed=_seeds,
        which=st.integers(min_value=0, max_value=len(SPECS) - 1),
        n_lengths=st.integers(min_value=1, max_value=4),
        empty=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test(seed, which, n_lengths, empty):
        spec = SPECS[which]
        M, N = spec.num_hservers, spec.num_sservers
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 64))
        offsets = rng.integers(0, 1 << 22, K)
        # up to 2 MiB: many requests outgrow the smaller cycles
        lengths = rng.choice(rng.integers(1, 1 << 21, n_lengths), K)
        if empty:
            lengths[rng.random(K) < 0.25] = rng.integers(-4 * KiB, 1)
        h_arr, s_arr = _candidate_grid(rng)
        # HServer-free, dead (zero cycle) and equal-stripe candidates
        h_arr = np.r_[h_arr, 0, 0, 8 * KiB]
        s_arr = np.r_[s_arr, 4 * KiB, 0, 8 * KiB]
        nbytes, touches = server_totals_grid(offsets, lengths, M, N, h_arr, s_arr)
        bands = {}
        for length in lengths[lengths > 0].tolist():
            bands.setdefault(length.bit_length(), set()).add(length)
        one_length_per_band = all(len(b) == 1 for b in bands.values())
        for g in range(h_arr.shape[0]):
            hb, sb = per_server_bytes_batch(
                offsets, lengths, M, N, int(h_arr[g]), int(s_arr[g])
            )
            per_request = np.concatenate([hb, sb], axis=1)
            assert np.array_equal(nbytes[g], per_request.sum(axis=0))
            exact = (per_request > 0).sum(axis=0)
            assert (touches[g] <= exact).all()
            if one_length_per_band:
                assert np.array_equal(touches[g], exact)

    return test


@harness("burst_costs_grid")
def _burst_costs_grid(contract):
    @given(
        seed=_seeds,
        which=st.integers(min_value=0, max_value=len(SPECS) - 1),
        wide=st.booleans(),
        per_block=st.sampled_from([1, 3, 5, None]),
    )
    @settings(max_examples=20, deadline=None)
    def test(seed, which, wide, per_block):
        spec = SPECS[which]
        params = CostModelParams.from_cluster(spec)
        rng = np.random.default_rng(seed)
        if wide:
            offsets, lengths, is_read, bursts = _wide_burst_region(rng)
        else:
            offsets, lengths, is_read, bursts = _random_region(rng)
        h_arr, s_arr = _candidate_grid(rng)
        # a few candidates per internal block (ragged tail for 3 and 5),
        # or the default budget
        budget = cost_model.GRID_CHUNK_ELEMS
        if per_block is not None:
            cost_model.GRID_CHUNK_ELEMS = per_block * offsets.shape[0]
        try:
            grid = burst_costs_grid(
                params, offsets, lengths, is_read, bursts, h_arr, s_arr
            )
        finally:
            cost_model.GRID_CHUNK_ELEMS = budget
        for g in range(h_arr.shape[0]):
            row = burst_costs(
                params, offsets, lengths, is_read, bursts, int(h_arr[g]), int(s_arr[g])
            )
            assert np.array_equal(grid[g], row)

    return test

"""Batched request mapping must equal the per-request object path.

Every batch API the flat replay kernel maps requests through — layout
``merged_extent_runs``, :func:`merged_runs_of`, ``LayoutView.merged_runs``
and the MHA redirector's ``merged_runs`` — is checked run for run
against the scalar path it replaces: each extent's servers and lengths
equal those of ``merge_fragments`` over its fragments, in order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core import DRT, DRTEntry, Redirector, StripePair, build_region_layout
from repro.core.redirector import distinct_extents
from repro.layouts import (
    FixedStripeLayout,
    Region,
    RegionLayout,
    VariedStripeLayout,
)
from repro.layouts.batch import (
    MergedRuns,
    in_request_order,
    merge_fragments,
    merged_runs_of,
    runs_from_fragments,
)
from repro.schemes.base import LayoutView
from repro.units import KiB


def fixed():
    return FixedStripeLayout([0, 1, 2], 4 * KiB, obj="f")


def varied():
    return VariedStripeLayout([0, 1], [2, 3], 4 * KiB, 16 * KiB, obj="f")


def region_distinct():
    return RegionLayout(
        [
            Region(0, 64 * KiB, FixedStripeLayout([0, 1], 4 * KiB, obj="r0")),
            Region(64 * KiB, 256 * KiB, VariedStripeLayout([0], [2, 3], 4 * KiB, 16 * KiB, obj="r1")),
            Region(256 * KiB, 320 * KiB, FixedStripeLayout([2, 3], 8 * KiB, obj="r2")),
        ]
    )


def region_shared_obj():
    # both regions stripe into the same object: the batch kernel must
    # refuse (runs could merge across regions) and fall back
    return RegionLayout(
        [
            Region(0, 64 * KiB, FixedStripeLayout([0, 1], 4 * KiB, obj="f")),
            Region(64 * KiB, 128 * KiB, FixedStripeLayout([0, 1], 8 * KiB, obj="f")),
        ]
    )


LAYOUTS = {
    "fixed": fixed,
    "varied": varied,
    "region": region_distinct,
    "region-shared-obj": region_shared_obj,
}

EXTENTS = [
    (0, 0),
    (0, 1),
    (0, 4 * KiB),
    (3 * KiB, 2 * KiB),
    (5 * KiB, 100 * KiB),
    (63 * KiB, 2 * KiB),  # straddles a region boundary
    (250 * KiB, 20 * KiB),  # into the unbounded tail region
    (1_000_000, 123_456),
]

extent_batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=512 * KiB),
        st.integers(min_value=0, max_value=64 * KiB),
    ),
    min_size=0,
    max_size=8,
)


def extent_runs(runs: MergedRuns, k: int):
    """Extent ``k`` of a run batch as ``(servers, lengths)``."""
    lo, hi = runs.starts[k], runs.starts[k + 1]
    return runs.servers[lo:hi], runs.lengths[lo:hi]


def merged_columns(fragments):
    """``merge_fragments`` reduced to the two columns a batch keeps."""
    merged = merge_fragments(fragments)
    return [f.server for f in merged], [f.length for f in merged]


def assert_runs_equal_object_path(layout, runs: MergedRuns, extents):
    assert runs.n_extents == len(extents)
    for k, (offset, length) in enumerate(extents):
        fragments = layout.map_extent(offset, length)
        assert extent_runs(runs, k) == merged_columns(fragments)


class TestLayoutBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_merged_runs_equals_object_path(self, name):
        layout = LAYOUTS[name]()
        offsets = [o for o, _ in EXTENTS]
        lengths = [l for _, l in EXTENTS]
        runs = merged_runs_of(layout, offsets, lengths)
        assert_runs_equal_object_path(layout, runs, EXTENTS)

    def test_shared_obj_region_has_no_batch_kernel(self):
        assert region_shared_obj().merged_extent_runs([0], [KiB]) is None
        assert region_distinct().merged_extent_runs([0], [KiB]) is not None

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    @given(extents=extent_batches)
    @settings(max_examples=50, deadline=None)
    def test_property_equivalence(self, name, extents):
        layout = LAYOUTS[name]()
        runs = merged_runs_of(
            layout, [o for o, _ in extents], [l for _, l in extents]
        )
        assert_runs_equal_object_path(layout, runs, extents)

    def test_empty_batch(self):
        runs = merged_runs_of(fixed(), [], [])
        assert runs.n_extents == 0
        assert runs.starts == [0]


class TestRunsBuilder:
    """Assembling run batches: ``concat``, ``take`` and
    ``in_request_order``."""

    def test_in_request_order_interleaves_parts(self):
        a = merged_runs_of(fixed(), [0, 8 * KiB], [8 * KiB, 4 * KiB])
        b = merged_runs_of(fixed(), [4 * KiB], [40 * KiB])
        built = in_request_order([a, b], [np.array([2, 0]), [1]])
        assert built.n_extents == 3
        assert extent_runs(built, 0) == extent_runs(a, 1)
        assert extent_runs(built, 1) == extent_runs(b, 0)
        assert extent_runs(built, 2) == extent_runs(a, 0)
        assert in_request_order([], []) == MergedRuns([], [], [0])

    def test_fragments_concat_counts_premerge(self):
        layout = fixed()
        fragments = layout.map_extent(0, 12 * KiB)
        built = MergedRuns.concat([runs_from_fragments(fragments)])
        assert extent_runs(built, 0) == merged_columns(fragments)

    def test_take_repeats_extents(self):
        source = merged_runs_of(fixed(), [0, 8 * KiB], [24 * KiB, 4 * KiB])
        taken = source.take([1, 0, 1])
        assert taken.n_extents == 3
        assert extent_runs(taken, 0) == extent_runs(taken, 2) == extent_runs(source, 1)
        assert extent_runs(taken, 1) == extent_runs(source, 0)
        assert source.take([]) == MergedRuns([], [], [0])

    def test_concat_appends_extents(self):
        a = merged_runs_of(fixed(), [0, 8 * KiB], [24 * KiB, 4 * KiB])
        b = merged_runs_of(fixed(), [4 * KiB], [40 * KiB])
        both = MergedRuns.concat([a, b])
        assert both.n_extents == 3
        assert [extent_runs(both, k) for k in range(3)] == [
            extent_runs(a, 0),
            extent_runs(a, 1),
            extent_runs(b, 0),
        ]
        assert MergedRuns.concat([]) == MergedRuns([], [], [0])


class TestMergeFragments:
    def test_contiguous_same_object_coalesce(self):
        fragments = fixed().map_extent(0, 24 * KiB)
        merged = merge_fragments(fragments)
        # 6 stripes over 3 servers -> 2 contiguous stripes per object
        assert len(fragments) == 6
        assert len(merged) == 3
        assert sorted(f.length for f in merged) == [8 * KiB] * 3
        assert [f.logical_offset for f in merged] == sorted(
            f.logical_offset for f in merged
        )

    def test_noncontiguous_not_merged(self):
        layout = fixed()
        frags = layout.map_extent(0, 4 * KiB) + layout.map_extent(24 * KiB, 4 * KiB)
        merged = merge_fragments(frags)
        assert len(merged) == 2


class TestViewBatching:
    def make_view(self):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        return LayoutView(
            {"f": FixedStripeLayout(spec.server_ids, 64 * KiB, obj="f")},
            default=FixedStripeLayout(spec.server_ids, 4 * KiB),
        )

    def test_merged_runs_equals_merge_fragments(self):
        view = self.make_view()
        offsets = [0, 100 * KiB]
        lengths = [256 * KiB, 8 * KiB]
        runs = view.merged_runs("f", offsets, lengths)
        for k, (o, l) in enumerate(zip(offsets, lengths)):
            assert extent_runs(runs, k) == merged_columns(view.map_request("f", o, l))


class TestRedirectorBatching:
    def make(self):
        spec = ClusterSpec(num_hservers=2, num_sservers=2)
        drt = DRT()
        drt.add(DRTEntry("f", 0, 64 * KiB, "f.r0", 0))
        drt.add(DRTEntry("f", 128 * KiB, 64 * KiB, "f.r1", 32 * KiB))
        regions = {
            "f.r0": build_region_layout(spec, StripePair(0, 8 * KiB), "f.r0"),
            "f.r1": build_region_layout(spec, StripePair(4 * KiB, 16 * KiB), "f.r1"),
        }
        originals = {"f": FixedStripeLayout(spec.server_ids, 64 * KiB, obj="f")}
        return Redirector(drt, regions, originals)

    # mapped, fallthrough, straddling (multi-extent), zero-length
    OFFSETS = [0, 70 * KiB, 60 * KiB, 130 * KiB, 0]
    LENGTHS = [32 * KiB, 8 * KiB, 80 * KiB, 16 * KiB, 0]

    def test_merged_runs_equals_object_path(self):
        batched, scalar = self.make(), self.make()
        runs = batched.merged_runs("f", self.OFFSETS, self.LENGTHS)
        for k, (o, l) in enumerate(zip(self.OFFSETS, self.LENGTHS)):
            assert extent_runs(runs, k) == merged_columns(
                scalar.map_request("f", o, l)
            )

    def test_repeated_requests_map_once_and_count_each(self, monkeypatch):
        offsets = self.OFFSETS * 3 + [70 * KiB]
        lengths = self.LENGTHS * 3 + [8 * KiB]
        batched, scalar = self.make(), self.make()
        seen = []
        translate_many = DRT.translate_many

        def spy(drt, o_file, offs, lens):
            seen.append(list(zip(list(offs), list(lens))))
            return translate_many(drt, o_file, offs, lens)

        monkeypatch.setattr(DRT, "translate_many", spy)
        runs = batched.merged_runs("f", offsets, lengths)
        # distinct extents once each, in order of first occurrence
        assert seen == [list(zip(self.OFFSETS, self.LENGTHS))]
        for k, (o, l) in enumerate(zip(offsets, lengths)):
            assert extent_runs(runs, k) == merged_columns(
                scalar.map_request("f", o, l)
            )


class TestDistinctExtents:
    def test_first_occurrence_order_and_inverse(self):
        offsets = np.array([5, 0, 5, 0, 5, 9])
        lengths = np.array([1, 2, 1, 3, 1, 2])
        first, inverse = distinct_extents(offsets, lengths)
        assert first.tolist() == [0, 1, 3, 5]
        assert inverse.tolist() == [0, 1, 0, 2, 0, 3]

    @pytest.mark.parametrize(
        "offsets, lengths", [([], []), ([4], [1]), ([0, 0, 1], [1, 2, 1])]
    )
    def test_no_repeats_is_none(self, offsets, lengths):
        assert distinct_extents(np.array(offsets), np.array(lengths)) is None

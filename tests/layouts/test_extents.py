"""Property tests: closed-form extent math vs. explicit fragment maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts import (
    VariedStripeLayout,
    bytes_in_window,
    per_server_bytes,
    per_server_bytes_batch,
)

stripe_sizes = st.integers(min_value=0, max_value=64)
extents = st.tuples(
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=3000),
)


def brute_force_bytes(offset, length, start, width, cycle):
    return sum(
        1 for x in range(offset, offset + length) if start <= (x % cycle) < start + width
    )


class TestBytesInWindow:
    @given(
        extent=extents,
        start=st.integers(min_value=0, max_value=50),
        width=st.integers(min_value=1, max_value=40),
        extra=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, extent, start, width, extra):
        offset, length = extent
        cycle = start + width + extra
        assert bytes_in_window(offset, length, start, width, cycle) == brute_force_bytes(
            offset, length, start, width, cycle
        )

    def test_zero_width(self):
        assert bytes_in_window(0, 100, 0, 0, 10) == 0

    def test_zero_length(self):
        assert bytes_in_window(5, 0, 0, 4, 10) == 0

    def test_invalid_cycle(self):
        with pytest.raises(ValueError):
            bytes_in_window(0, 1, 0, 1, 0)


class TestPerServerBytes:
    @given(
        extent=extents,
        h=stripe_sizes,
        s=stripe_sizes,
        M=st.integers(min_value=0, max_value=4),
        N=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_extent_length(self, extent, h, s, M, N):
        offset, length = extent
        h_eff = h if M else 0
        s_eff = s if N else 0
        if M * h_eff + N * s_eff == 0:
            return  # degenerate layout: nothing mapped
        h_bytes, s_bytes = per_server_bytes(offset, length, M, N, h, s)
        assert int(h_bytes.sum() + s_bytes.sum()) == length

    @given(extent=extents, h=st.integers(1, 48), s=st.integers(1, 48))
    @settings(max_examples=150, deadline=None)
    def test_matches_fragment_mapper(self, extent, h, s):
        offset, length = extent
        M, N = 3, 2
        layout = VariedStripeLayout(list(range(M)), list(range(M, M + N)), h, s)
        h_bytes, s_bytes = per_server_bytes(offset, length, M, N, h, s)
        by_server = np.zeros(M + N, dtype=np.int64)
        for frag in layout.map_extent(offset, length):
            by_server[frag.server] += frag.length
        assert list(h_bytes) == list(by_server[:M])
        assert list(s_bytes) == list(by_server[M:])

    def test_batch_agrees_with_scalar(self):
        offsets = np.array([0, 100, 4096, 65536])
        lengths = np.array([50, 2048, 16384, 1])
        hb, sb = per_server_bytes_batch(offsets, lengths, 3, 2, 4096, 8192)
        for i, (o, l) in enumerate(zip(offsets, lengths)):
            hb1, sb1 = per_server_bytes(int(o), int(l), 3, 2, 4096, 8192)
            assert list(hb[i]) == list(hb1)
            assert list(sb[i]) == list(sb1)

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            per_server_bytes_batch(np.array([0]), np.array([1, 2]), 1, 1, 4, 4)

    def test_empty_batch(self):
        hb, sb = per_server_bytes_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2, 2, 4, 4
        )
        assert hb.shape == (0, 2) and sb.shape == (0, 2)

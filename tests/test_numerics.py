"""``unique_values`` returns exactly what ``np.unique`` returns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics import _bitwise_rows, unique_values

#: small pools so rows repeat: negatives and extremes, then both zeros
#: and a NaN, whose arrays take ``np.unique`` itself
PLAIN = [-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 1e300, -1e-300]
POOL = PLAIN + [-0.0, float("nan")]


def matrices(elements, dtype):
    """Arrays of 0-40 rows and 1-3 columns drawn from ``elements``."""
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.lists(
            st.lists(elements, min_size=m, max_size=m), min_size=0, max_size=40
        ).map(lambda r: np.array(r, dtype=dtype).reshape(len(r), m))
    )


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestUniqueRows:
    @given(matrices(st.sampled_from(PLAIN), np.float64))
    @settings(max_examples=200, deadline=None)
    def test_plain_float_rows_match_np_unique(self, x):
        assert_same(unique_values(x, axis=0), np.unique(x, axis=0))

    @given(matrices(st.sampled_from(POOL), np.float64))
    @settings(max_examples=200, deadline=None)
    def test_float_rows_match_np_unique(self, x):
        assert_same(unique_values(x, axis=0), np.unique(x, axis=0))

    @given(matrices(st.integers(min_value=-3, max_value=3), np.int64))
    @settings(max_examples=50, deadline=None)
    def test_integer_rows_match_np_unique(self, x):
        assert_same(unique_values(x, axis=0), np.unique(x, axis=0))

    def test_row_path_only_where_equal_rows_share_bits(self):
        assert _bitwise_rows(np.array([[1.0, -2.0], [1.0, -2.0], [0.0, 3.0]]))
        assert _bitwise_rows(np.array([[1, 2]]))
        assert not _bitwise_rows(np.array([[-0.0, 1.0]]))
        assert not _bitwise_rows(np.array([[np.nan, 1.0]]))
        assert not _bitwise_rows(np.array([1.0, 2.0]))
        assert not _bitwise_rows(np.empty((3, 0)))

    @pytest.mark.parametrize("values", [np.array([3, 1, 3, 2]), np.array([0.5, -1.0])])
    def test_flat_values(self, values):
        assert_same(unique_values(values), np.unique(values))

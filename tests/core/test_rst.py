"""Tests for the Region Stripe Table."""

import pytest

from repro.core import RST, StripePair
from repro.exceptions import KVStoreError, RedirectionError


class TestStripePair:
    def test_str(self):
        assert str(StripePair(4096, 8192)) == "<4096, 8192>"

    def test_zero_pair_rejected(self):
        with pytest.raises(RedirectionError):
            StripePair(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(RedirectionError):
            StripePair(-1, 4096)

    def test_h_zero_allowed(self):
        assert StripePair(0, 4096).h == 0


class TestRST:
    def test_set_get(self):
        rst = RST()
        rst.set("r0", StripePair(4096, 65536))
        assert rst.get("r0") == StripePair(4096, 65536)

    def test_unknown_region_raises(self):
        with pytest.raises(RedirectionError):
            RST().get("nope")

    def test_contains_len(self):
        rst = RST()
        rst.set("a", StripePair(0, 4096))
        assert "a" in rst and "b" not in rst
        assert len(rst) == 1

    def test_overwrite(self):
        rst = RST()
        rst.set("a", StripePair(0, 4096))
        rst.set("a", StripePair(8192, 16384))
        assert rst.get("a").h == 8192

    def test_iteration_sorted(self):
        rst = RST()
        rst.set("b", StripePair(0, 4096))
        rst.set("a", StripePair(0, 8192))
        assert [name for name, _ in rst] == ["a", "b"]

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "rst.db"
        with RST(path) as rst:
            rst.set("region0", StripePair(12288, 98304))
            rst.set("region1", StripePair(0, 4096))
            rst.commit(1)
        with RST(path) as rst:
            assert rst.get("region0") == StripePair(12288, 98304)
            assert rst.get("region1") == StripePair(0, 4096)

    def test_empty_region_name_is_rejected_on_file(self, tmp_path):
        # the empty key holds the table's epoch stamp
        with RST(tmp_path / "rst.db") as rst:
            with pytest.raises(KVStoreError):
                rst.set("", StripePair(0, 4096))
            assert "" not in rst

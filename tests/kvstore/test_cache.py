"""Tests for the LRU hot-entry cache."""

import pytest

from repro.exceptions import ConfigurationError
from repro.kvstore import LRUCache


class TestLRUCache:
    def test_put_get(self):
        c = LRUCache(2)
        c.put("a", 1)
        assert c.get("a") == 1

    def test_miss_returns_default(self):
        c = LRUCache(2)
        assert c.get("x") is None
        assert c.get("x", 42) == 42

    def test_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)  # evicts a
        assert "a" not in c
        assert "b" in c and "c" in c

    def test_get_refreshes_recency(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")
        c.put("c", 3)  # evicts b, not a
        assert "a" in c and "b" not in c

    def test_put_refreshes_recency(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)
        c.put("c", 3)  # evicts b
        assert c.get("a") == 10 and "b" not in c

    def test_hit_rate(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.get("a")
        c.get("miss")
        assert c.hit_rate == pytest.approx(0.5)
        assert c.hits == 1 and c.misses == 1

    def test_hit_rate_no_lookups(self):
        assert LRUCache(1).hit_rate == 0.0

    def test_invalidate(self):
        c = LRUCache(2)
        c.put("a", 1)
        assert c.invalidate("a") is True
        assert c.invalidate("a") is False

    def test_clear(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.clear()
        assert len(c) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)

    def test_len(self):
        c = LRUCache(3)
        c.put("a", 1)
        c.put("b", 2)
        assert len(c) == 2

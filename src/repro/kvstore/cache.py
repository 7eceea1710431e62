"""LRU cache of hot entries.

§IV-A: "To reduce the size of the in-memory reordering table for
efficient lookup, we use a list to maintain frequently accessed
reordering entries."  :class:`LRUCache` is that list: bounded, with
recency-ordered eviction, fronting the persistent :class:`HashDB`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from ..exceptions import ConfigurationError

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache(Generic[K, V]):
    """A fixed-capacity least-recently-used cache."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: K, default: V | None = None) -> V | None:
        """Fetch and refresh recency; counts hit/miss statistics."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        """Insert/refresh ``key``; evicts the LRU entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def invalidate(self, key: K) -> bool:
        """Drop ``key`` if cached; returns whether it was present."""
        return self._data.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

"""Persistent key-value substrate (the paper's Berkeley DB role)."""

from .cache import LRUCache
from .hashdb import EpochDB, HashDB

__all__ = ["EpochDB", "HashDB", "LRUCache"]

"""Hybrid parallel file system simulator (the OrangeFS-testbed role)."""

from .replay import FileView, RunMetrics, replay_trace, run_workload
from .server import DataServer, ServerStats
from .storage import DataClient, ObjectStore, migrate
from .system import HybridPFS, merge_fragments

__all__ = [
    "DataServer",
    "ServerStats",
    "HybridPFS",
    "merge_fragments",
    "FileView",
    "RunMetrics",
    "DataClient",
    "ObjectStore",
    "migrate",
    "replay_trace",
    "run_workload",
]

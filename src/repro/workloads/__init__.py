"""Workload generators reproducing the paper's benchmarks and traces."""

from .arrivals import OpenArrivalWorkload, open_arrivals, poisson_arrival_times
from .base import PHASE_GAP, Workload, phase_trace
from .btio import BTIOWorkload, CLASS_TOTALS
from .checkpoint import CheckpointWorkload
from .cholesky import READ_BOUNDS, WRITE_BOUNDS, CholeskyWorkload
from .hpio import HPIOWorkload
from .ior import IORMixedProcsWorkload, IORWorkload
from .lanl import LANLWorkload, LOOP_PATTERN
from .lu import LUWorkload, MAX_READ, MIN_READ, WRITE_SIZE

__all__ = [
    "Workload",
    "phase_trace",
    "PHASE_GAP",
    "OpenArrivalWorkload",
    "open_arrivals",
    "poisson_arrival_times",
    "IORWorkload",
    "IORMixedProcsWorkload",
    "HPIOWorkload",
    "BTIOWorkload",
    "CLASS_TOTALS",
    "CheckpointWorkload",
    "LANLWorkload",
    "LOOP_PATTERN",
    "LUWorkload",
    "WRITE_SIZE",
    "MIN_READ",
    "MAX_READ",
    "CholeskyWorkload",
    "READ_BOUNDS",
    "WRITE_BOUNDS",
]

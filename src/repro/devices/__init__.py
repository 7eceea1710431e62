"""Storage device models: HDD (HServer) and SSD (SServer) substrates."""

from .base import Device, OpType, READ, WRITE
from .hdd import HDD
from .ssd import SSD

__all__ = [
    "Device",
    "OpType",
    "READ",
    "WRITE",
    "HDD",
    "SSD",
]

"""Banked on-chip memory substrate.

Models the memory side of the evaluation systems: a byte-addressable backing
store, the cycle-level multi-banked SRAM with its port-to-bank crossbar
(word ``w`` lives in bank ``w % num_banks``, for power-of-two or prime bank
counts), and an idealized memory endpoint used by the IDEAL reference
system.
"""

from repro.mem.storage import MemoryStorage
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.ideal import IdealMemoryEndpoint

__all__ = [
    "MemoryStorage",
    "BankedMemory",
    "BankedMemoryConfig",
    "IdealMemoryEndpoint",
]

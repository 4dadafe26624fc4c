"""The word-to-bank address mapping.

The controller's converters break every burst into *word* accesses — a word
being the width of one memory bank (32 bit in the paper's systems).  The
:class:`BankAddressMap` decides which bank a word lives in; the paper
evaluates both power-of-two bank counts (cheap addressing, conflict-prone on
even strides) and prime bank counts (need modulo/divide hardware, spread
strided accesses evenly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitutils import is_power_of_two
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BankAddressMap:
    """Interleaved word-to-bank mapping.

    Word address ``w = byte_addr // word_bytes`` maps to bank ``w % num_banks``
    and row ``w // num_banks``.  For power-of-two bank counts this is a simple
    bit slice; for prime counts the hardware needs a modulo and a divider,
    which is exactly the area overhead Fig. 5c quantifies.
    """

    num_banks: int
    word_bytes: int = 4

    def __post_init__(self) -> None:
        check_positive("num_banks", self.num_banks)
        if not is_power_of_two(self.word_bytes):
            raise ConfigurationError(
                f"word size must be a power of two, got {self.word_bytes}"
            )

    @property
    def is_power_of_two(self) -> bool:
        """True if the bank count is a power of two (cheap addressing)."""
        return is_power_of_two(self.num_banks)

    def word_of(self, byte_addr: int) -> int:
        """Word address containing a byte address."""
        return byte_addr // self.word_bytes

    def bank_of(self, byte_addr: int) -> int:
        """Bank holding the word that contains ``byte_addr``."""
        return self.word_of(byte_addr) % self.num_banks

    def row_of(self, byte_addr: int) -> int:
        """Row within the bank holding ``byte_addr``."""
        return self.word_of(byte_addr) // self.num_banks

    def decompose(self, byte_addr: int) -> Tuple[int, int]:
        """Return ``(bank, row)`` for a byte address."""
        word = self.word_of(byte_addr)
        return word % self.num_banks, word // self.num_banks

    def banks_of_words(self, word_addrs: np.ndarray) -> np.ndarray:
        """Vectorized bank computation for an array of word addresses."""
        return np.asarray(word_addrs, dtype=np.int64) % self.num_banks

"""Memory stream descriptors.

A *stream* describes what a requestor (the vector unit's VLSU, a DMA engine,
an accelerator) wants from memory: a sequence of equally sized elements at
contiguous, strided or index-driven addresses.  Streams are protocol
agnostic; :mod:`repro.axi.builder` lowers them either to plain AXI4 requests
(the BASE system) or to AXI-Pack bursts (the PACK system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.bitutils import is_power_of_two
from repro.utils.validation import check_positive


def _check_elem_bytes(elem_bytes: int) -> None:
    if elem_bytes <= 0 or not is_power_of_two(elem_bytes):
        raise ConfigurationError(
            f"element size must be a positive power of two in bytes, got {elem_bytes}"
        )


@dataclass(frozen=True)
class ContiguousStream:
    """``num_elements`` elements of ``elem_bytes`` bytes starting at ``base``."""

    base: int
    num_elements: int
    elem_bytes: int

    def __post_init__(self) -> None:
        check_positive("num_elements", self.num_elements)
        _check_elem_bytes(self.elem_bytes)
        if self.base < 0:
            raise ConfigurationError("stream base address must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Total payload carried by the stream."""
        return self.num_elements * self.elem_bytes

    def element_addresses(self) -> np.ndarray:
        """Byte address of every element, in stream order."""
        return self.base + np.arange(self.num_elements, dtype=np.int64) * self.elem_bytes


@dataclass(frozen=True)
class StridedStream:
    """Elements separated by a constant stride (in elements).

    ``stride_elems`` follows the paper's convention: the distance between
    consecutive stream elements measured in elements, so a stride of 1 is a
    contiguous access and a stride of 0 repeatedly reads the same element.
    """

    base: int
    num_elements: int
    elem_bytes: int
    stride_elems: int

    def __post_init__(self) -> None:
        check_positive("num_elements", self.num_elements)
        _check_elem_bytes(self.elem_bytes)
        if self.base < 0:
            raise ConfigurationError("stream base address must be non-negative")
        if self.stride_elems < 0:
            raise ConfigurationError("stride must be non-negative")

    @property
    def stride_bytes(self) -> int:
        """Stride between consecutive elements in bytes."""
        return self.stride_elems * self.elem_bytes

    @property
    def total_bytes(self) -> int:
        """Total payload carried by the stream."""
        return self.num_elements * self.elem_bytes

    def element_addresses(self) -> np.ndarray:
        """Byte address of every element, in stream order."""
        return (
            self.base
            + np.arange(self.num_elements, dtype=np.int64) * self.stride_bytes
        )


@dataclass(frozen=True)
class IndirectStream:
    """Elements gathered/scattered through an in-memory index array.

    The address of element *i* is ``base + index[i] * elem_bytes``: indices
    are element numbers, the natural encoding for CSR column indices, and
    the AXI-Pack controller shifts each one by the element size (Fig. 2d).
    The index array itself lives in memory at ``index_base`` with
    ``index_bytes`` per index — this is the key difference from
    register-indexed accesses and what allows the memory-side controller to
    perform the indirection.
    """

    base: int
    num_elements: int
    elem_bytes: int
    index_base: int
    index_bytes: int = 4

    def __post_init__(self) -> None:
        check_positive("num_elements", self.num_elements)
        _check_elem_bytes(self.elem_bytes)
        if self.index_bytes not in (1, 2, 4, 8):
            raise ConfigurationError(
                f"index size must be 1, 2, 4 or 8 bytes, got {self.index_bytes}"
            )
        if self.base < 0 or self.index_base < 0:
            raise ConfigurationError("stream base addresses must be non-negative")

    @property
    def total_bytes(self) -> int:
        """Total element payload carried by the stream (indices excluded)."""
        return self.num_elements * self.elem_bytes

    @property
    def index_bytes_total(self) -> int:
        """Total size of the index array consumed by the stream."""
        return self.num_elements * self.index_bytes

    def element_addresses(self, indices: np.ndarray) -> np.ndarray:
        """Byte address of every element given the index values.

        Parameters
        ----------
        indices:
            The ``num_elements`` index values read from ``index_base``.
        """
        if len(indices) != self.num_elements:
            raise ConfigurationError(
                f"expected {self.num_elements} indices, got {len(indices)}"
            )
        return self.base + indices.astype(np.int64) * self.elem_bytes

    def index_addresses(self) -> np.ndarray:
        """Byte address of every index in the in-memory index array."""
        return (
            self.index_base
            + np.arange(self.num_elements, dtype=np.int64) * self.index_bytes
        )


#: Any of the three stream shapes.
Stream = Union[ContiguousStream, StridedStream, IndirectStream]

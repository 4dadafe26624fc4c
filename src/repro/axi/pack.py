"""AXI-Pack AR/AW ``user``-field encoding (paper Fig. 1).

AXI-Pack rides entirely on the AXI4 ``user`` sideband of the request
channels, which is what keeps it backward compatible: an interconnect block
that does not reshape bursts simply forwards the user bits untouched.

The field layout is::

    bit 0              : pack   — 1 if the AXI-Pack extension is active
    bit 1              : indir  — 0 = strided burst, 1 = indirect burst
    bits 2 .. 31       : shared payload
                           strided  : element stride (in elements, unsigned,
                                      STRIDE_BITS wide)
                           indirect : index size code (2 bits) + index base
                                      offset (OFFSET_BITS wide)

The index size code encodes 8/16/32/64-bit indices as 0..3.  The index base
offset is expressed in units of the index size (i.e. it is an index-element
number), mirroring the ``idx base`` / ``offs`` fields of Fig. 1; the endpoint
reconstructs the absolute index array address as ``offset * index_bytes``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError
from repro.utils.bitutils import extract_field, insert_field, mask


class PackMode(enum.Enum):
    """How a request uses the AXI-Pack extension."""

    NONE = "none"          #: plain AXI4 burst, user field all zero
    STRIDED = "strided"    #: pack=1, indir=0 — bus-packed strided burst
    INDIRECT = "indirect"  #: pack=1, indir=1 — bus-packed indirect burst

    @property
    def is_packed(self) -> bool:
        """True for the two AXI-Pack burst types."""
        return self is not PackMode.NONE


#: Index element sizes supported by the indirect burst type, bytes -> code.
INDEX_SIZE_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
INDEX_CODE_SIZES = {code: size for size, code in INDEX_SIZE_CODES.items()}
#: Unsigned numpy type of each supported index size, bytes -> dtype.
INDEX_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Width of the element-stride field of a strided burst.
STRIDE_BITS = 24
#: Width of the index-base-offset field of an indirect burst.
OFFSET_BITS = 28
#: AR/AW user signal width AXI-Pack needs: the pack and indir bits, then
#: the wider of the stride field and the index size code plus offset.
USER_BITS = 2 + max(STRIDE_BITS, 2 + OFFSET_BITS)


@dataclass(frozen=True)
class PackUserField:
    """Decoded contents of an AXI-Pack AR/AW user field.

    Attributes
    ----------
    mode:
        Whether the request is plain AXI4, packed-strided or packed-indirect.
    stride_elems:
        Element stride for strided bursts (distance between consecutive
        stream elements, measured in elements).  Ignored otherwise.
    index_bytes:
        Size of one index in bytes for indirect bursts.  Ignored otherwise.
    index_offset:
        Location of the index array base, measured in index elements
        (absolute address = ``index_offset * index_bytes``).  Ignored for
        non-indirect bursts.
    """

    mode: PackMode = PackMode.NONE
    stride_elems: int = 0
    index_bytes: int = 4
    index_offset: int = 0

    # ---------------------------------------------------------------- encode
    def encode(self) -> int:
        """Encode this field into the integer carried on the user signal."""
        if self.mode is PackMode.NONE:
            return 0
        word = 0
        word = insert_field(word, 0, 1, 1)  # pack bit
        if self.mode is PackMode.STRIDED:
            word = insert_field(word, 1, 1, 0)
            if self.stride_elems < 0:
                raise ProtocolError("strided bursts require a non-negative stride")
            if self.stride_elems > mask(STRIDE_BITS):
                raise ProtocolError(
                    f"stride {self.stride_elems} does not fit in "
                    f"{STRIDE_BITS} bits"
                )
            word = insert_field(word, 2, STRIDE_BITS, self.stride_elems)
        else:
            word = insert_field(word, 1, 1, 1)
            if self.index_bytes not in INDEX_SIZE_CODES:
                raise ProtocolError(
                    f"unsupported index size {self.index_bytes} bytes; "
                    f"supported: {sorted(INDEX_SIZE_CODES)}"
                )
            if not 0 <= self.index_offset <= mask(OFFSET_BITS):
                raise ProtocolError(
                    f"index offset {self.index_offset} does not fit in "
                    f"{OFFSET_BITS} bits"
                )
            word = insert_field(word, 2, 2, INDEX_SIZE_CODES[self.index_bytes])
            word = insert_field(word, 4, OFFSET_BITS, self.index_offset)
        return word

    # ---------------------------------------------------------------- decode
    @classmethod
    def decode(cls, word: int) -> "PackUserField":
        """Decode an integer user signal back into a :class:`PackUserField`."""
        if word < 0:
            raise ProtocolError("user field must be a non-negative integer")
        pack = extract_field(word, 0, 1)
        if not pack:
            if word != 0:
                raise ProtocolError(
                    "non-zero user field with pack bit clear is not AXI-Pack"
                )
            return cls(mode=PackMode.NONE)
        indir = extract_field(word, 1, 1)
        if not indir:
            stride = extract_field(word, 2, STRIDE_BITS)
            return cls(mode=PackMode.STRIDED, stride_elems=stride)
        code = extract_field(word, 2, 2)
        offset = extract_field(word, 4, OFFSET_BITS)
        return cls(
            mode=PackMode.INDIRECT,
            index_bytes=INDEX_CODE_SIZES[code],
            index_offset=offset,
        )

    # ----------------------------------------------------------- constructors
    @classmethod
    def strided(cls, stride_elems: int) -> "PackUserField":
        """Build the user field for a packed strided burst."""
        return cls(mode=PackMode.STRIDED, stride_elems=stride_elems)

    @classmethod
    def indirect(cls, index_bytes: int, index_base_addr: int) -> "PackUserField":
        """Build the user field for a packed indirect burst.

        ``index_base_addr`` is the absolute byte address of the index array;
        it must be aligned to the index size.
        """
        if index_base_addr % index_bytes != 0:
            raise ProtocolError(
                f"index base {index_base_addr:#x} is not aligned to the "
                f"{index_bytes}-byte index size"
            )
        return cls(
            mode=PackMode.INDIRECT,
            index_bytes=index_bytes,
            index_offset=index_base_addr // index_bytes,
        )

    @property
    def index_base_addr(self) -> int:
        """Absolute byte address of the index array (indirect bursts only)."""
        return self.index_offset * self.index_bytes


#: Shared plain-AXI4 user field.  ``PackUserField`` is frozen, so every
#: unpacked request can reference this one instance instead of building a
#: fresh field (narrow BASE lowering creates one request per element).
PLAIN_AXI4_FIELD = PackUserField()

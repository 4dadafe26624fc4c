"""Unit tests for the AXI-Pack user-field encoding (paper Fig. 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.axi.pack import (
    INDEX_DTYPES,
    INDEX_SIZE_CODES,
    OFFSET_BITS,
    STRIDE_BITS,
    USER_BITS,
    PackMode,
    PackUserField,
)
from repro.errors import ProtocolError


class TestPackMode:
    def test_is_packed(self):
        assert not PackMode.NONE.is_packed
        assert PackMode.STRIDED.is_packed
        assert PackMode.INDIRECT.is_packed


class TestLayout:
    def test_total_bits(self):
        """Fig. 1: 24 stride bits, or a 2-bit size code and 28 offset bits,
        after the pack and indir bits make a 32-bit user signal."""
        assert (STRIDE_BITS, OFFSET_BITS, USER_BITS) == (24, 28, 32)
        assert USER_BITS == 2 + max(STRIDE_BITS, 2 + OFFSET_BITS)

    def test_index_dtypes_cover_every_index_size(self):
        assert set(INDEX_DTYPES) == set(INDEX_SIZE_CODES)
        for size, dtype in INDEX_DTYPES.items():
            assert np.dtype(dtype).itemsize == size
            assert np.dtype(dtype).kind == "u"


class TestEncodeDecode:
    def test_plain_axi4_encodes_to_zero(self):
        assert PackUserField().encode() == 0

    def test_decode_zero_is_plain(self):
        assert PackUserField.decode(0).mode is PackMode.NONE

    def test_decode_rejects_garbage_without_pack_bit(self):
        with pytest.raises(ProtocolError):
            PackUserField.decode(0b10)

    def test_strided_roundtrip(self):
        field = PackUserField.strided(stride_elems=257)
        decoded = PackUserField.decode(field.encode())
        assert decoded.mode is PackMode.STRIDED
        assert decoded.stride_elems == 257

    def test_strided_pack_and_indir_bits(self):
        word = PackUserField.strided(5).encode()
        assert word & 1 == 1       # pack bit
        assert (word >> 1) & 1 == 0  # indir bit clear

    def test_indirect_roundtrip(self):
        field = PackUserField.indirect(index_bytes=2, index_base_addr=0x4000)
        decoded = PackUserField.decode(field.encode())
        assert decoded.mode is PackMode.INDIRECT
        assert decoded.index_bytes == 2
        assert decoded.index_base_addr == 0x4000

    def test_indirect_sets_both_bits(self):
        word = PackUserField.indirect(4, 0x100).encode()
        assert word & 0b11 == 0b11

    def test_indirect_requires_aligned_base(self):
        with pytest.raises(ProtocolError):
            PackUserField.indirect(index_bytes=4, index_base_addr=0x1002)

    def test_all_index_sizes_supported(self):
        for size in INDEX_SIZE_CODES:
            field = PackUserField.indirect(index_bytes=size, index_base_addr=64 * size)
            assert PackUserField.decode(field.encode()).index_bytes == size

    def test_unsupported_index_size_rejected(self):
        field = PackUserField(mode=PackMode.INDIRECT, index_bytes=3)
        with pytest.raises(ProtocolError):
            field.encode()

    def test_stride_overflow_rejected(self):
        with pytest.raises(ProtocolError, match="does not fit in 24 bits"):
            PackUserField.strided(1 << STRIDE_BITS).encode()

    def test_offset_overflow_rejected(self):
        with pytest.raises(ProtocolError, match="does not fit in 28 bits"):
            PackUserField.indirect(4, 4 << OFFSET_BITS).encode()

    def test_negative_user_word_rejected(self):
        with pytest.raises(ProtocolError):
            PackUserField.decode(-1)

    @given(st.integers(min_value=0, max_value=(1 << 24) - 1))
    def test_strided_roundtrip_property(self, stride):
        field = PackUserField.strided(stride)
        assert PackUserField.decode(field.encode()).stride_elems == stride

    @given(st.sampled_from([1, 2, 4, 8]), st.integers(min_value=0, max_value=(1 << 20) - 1))
    def test_indirect_roundtrip_property(self, index_bytes, index_elem):
        base = index_elem * index_bytes
        field = PackUserField.indirect(index_bytes, base)
        decoded = PackUserField.decode(field.encode())
        assert decoded.index_bytes == index_bytes
        assert decoded.index_base_addr == base

    def test_fits_in_32_bit_user_signal(self):
        """The widest stride and the widest 8-byte-index offset both fit,
        and decode back unchanged."""
        widest = [
            PackUserField.strided((1 << STRIDE_BITS) - 1),
            PackUserField.indirect(8, 8 * ((1 << OFFSET_BITS) - 1)),
        ]
        for field in widest:
            word = field.encode()
            assert word < 1 << USER_BITS
            assert PackUserField.decode(word) == field

"""Unit tests for the stream descriptors."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.errors import ConfigurationError


class TestContiguousStream:
    def test_addresses(self):
        stream = ContiguousStream(base=0x100, num_elements=4, elem_bytes=4)
        assert list(stream.element_addresses()) == [0x100, 0x104, 0x108, 0x10C]
        assert stream.total_bytes == 16

    def test_rejects_non_power_of_two_elements(self):
        with pytest.raises(ConfigurationError):
            ContiguousStream(base=0, num_elements=4, elem_bytes=3)

    def test_rejects_zero_elements(self):
        with pytest.raises(ConfigurationError):
            ContiguousStream(base=0, num_elements=0, elem_bytes=4)

    def test_rejects_negative_base(self):
        with pytest.raises(ConfigurationError):
            ContiguousStream(base=-4, num_elements=1, elem_bytes=4)


class TestStridedStream:
    def test_addresses_with_stride(self):
        stream = StridedStream(base=0, num_elements=3, elem_bytes=4, stride_elems=5)
        assert list(stream.element_addresses()) == [0, 20, 40]
        assert stream.stride_bytes == 20

    def test_stride_zero_allowed(self):
        stream = StridedStream(base=8, num_elements=3, elem_bytes=4, stride_elems=0)
        assert list(stream.element_addresses()) == [8, 8, 8]

    def test_stride_one_is_contiguous(self):
        stream = StridedStream(base=0, num_elements=4, elem_bytes=8, stride_elems=1)
        contiguous = ContiguousStream(base=0, num_elements=4, elem_bytes=8)
        assert list(stream.element_addresses()) == list(contiguous.element_addresses())

    def test_negative_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            StridedStream(base=0, num_elements=2, elem_bytes=4, stride_elems=-1)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=32))
    def test_total_bytes_property(self, count, stride):
        stream = StridedStream(base=0, num_elements=count, elem_bytes=4, stride_elems=stride)
        assert stream.total_bytes == count * 4
        addresses = stream.element_addresses()
        assert len(addresses) == count


class TestIndirectStream:
    def test_scaled_addresses(self):
        stream = IndirectStream(base=0x1000, num_elements=3, elem_bytes=4,
                                index_base=0x2000, index_bytes=4)
        indices = np.asarray([0, 10, 2])
        assert list(stream.element_addresses(indices)) == [0x1000, 0x1028, 0x1008]

    def test_index_addresses(self):
        stream = IndirectStream(base=0, num_elements=4, elem_bytes=4,
                                index_base=0x40, index_bytes=2)
        assert list(stream.index_addresses()) == [0x40, 0x42, 0x44, 0x46]
        assert stream.index_bytes_total == 8

    def test_wrong_index_count_rejected(self):
        stream = IndirectStream(base=0, num_elements=4, elem_bytes=4, index_base=0)
        with pytest.raises(ConfigurationError):
            stream.element_addresses(np.asarray([1, 2]))

    def test_bad_index_size_rejected(self):
        with pytest.raises(ConfigurationError):
            IndirectStream(base=0, num_elements=1, elem_bytes=4, index_base=0, index_bytes=3)

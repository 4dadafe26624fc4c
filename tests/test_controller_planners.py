"""Unit tests for the converter plan kernels (``batch_*`` in lanes.py)."""

import pytest

from repro.axi.pack import PackUserField
from repro.axi.transaction import BusRequest
from repro.controller.lanes import (
    batch_contiguous,
    batch_index_fetch,
    batch_indexed_beat,
    batch_narrow,
    batch_strided,
)
from repro.errors import ProtocolError


def strided_request(elems=16, stride=3, elem_bytes=4):
    return BusRequest(addr=0x100, is_write=False, num_elements=elems,
                      elem_bytes=elem_bytes, bus_bytes=32,
                      pack=PackUserField.strided(stride))


def indirect_request(elems, index_base, index_bytes=4, addr=0):
    return BusRequest(addr=addr, is_write=False, num_elements=elems,
                      elem_bytes=4, bus_bytes=32,
                      pack=PackUserField.indirect(index_bytes, index_base))


def beat_slots(batch, beat):
    """Flat slot indices belonging to ``beat``."""
    return range(batch.beat_start[beat], batch.beat_start[beat + 1])


def beat_words(batch, beat):
    return len(beat_slots(batch, beat))


class TestStridedPlanner:
    def test_beat_count_and_slots(self):
        batch = batch_strided(strided_request(16, 3), 4, 8)
        assert batch.num_beats == 2
        assert all(beat_words(batch, b) == 8 for b in range(batch.num_beats))
        assert batch.beat_useful[0] == 32
        assert batch.beat_last[-1]

    def test_word_addresses_follow_stride(self):
        batch = batch_strided(strided_request(8, 5), 4, 8)
        addrs = [batch.words[i] * 4 for i in beat_slots(batch, 0)]
        assert addrs == [0x100 + i * 20 for i in range(8)]

    def test_ports_are_distinct_within_beat(self):
        batch = batch_strided(strided_request(8, 2), 4, 8)
        ports = [batch.ports[i] for i in beat_slots(batch, 0)]
        assert sorted(ports) == list(range(8))

    def test_multi_word_elements(self):
        request = BusRequest(addr=0, is_write=False, num_elements=4, elem_bytes=8,
                             bus_bytes=32, pack=PackUserField.strided(2))
        batch = batch_strided(request, 4, 8)
        assert batch.num_beats == 1
        assert beat_words(batch, 0) == 8
        # Each element contributes two consecutive words.
        offsets = [batch.offsets[i] for i in beat_slots(batch, 0)]
        assert offsets == [0, 4, 8, 12, 16, 20, 24, 28]

    def test_partial_last_beat(self):
        batch = batch_strided(strided_request(11, 1), 4, 8)
        assert batch.beat_useful[1] == 12
        assert beat_words(batch, 1) == 3

    def test_unaligned_element_rejected(self):
        request = BusRequest(addr=2, is_write=False, num_elements=2, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(1))
        with pytest.raises(ProtocolError):
            batch_strided(request, 4, 8)


class TestIndexedPlanner:
    def test_indexed_beat_addresses(self):
        request = indirect_request(16, 0x2000, addr=0x1000)
        batch = batch_indexed_beat(request, 0, [3, 7, 1, 0, 2, 9, 4, 8], 4, 8)
        addrs = [word * 4 for word in batch.words]
        assert addrs == [0x1000 + i * 4 for i in (3, 7, 1, 0, 2, 9, 4, 8)]
        assert batch.beat_useful == [32]

    def test_partial_indexed_beat(self):
        request = indirect_request(3, 0)
        batch = batch_indexed_beat(request, 0, [5, 6, 7], 4, 8)
        assert batch.beat_useful == [12]
        assert batch.beat_last == [True]


class TestContiguousPlanner:
    def test_aligned_burst(self):
        request = BusRequest(addr=0, is_write=False, num_elements=16, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        batch = batch_contiguous(request, 4, 8)
        assert batch.num_beats == 2
        assert batch.beat_useful == [32, 32]
        assert [batch.words[i] for i in beat_slots(batch, 1)] == list(range(8, 16))

    def test_misaligned_burst_edges(self):
        request = BusRequest(addr=8, is_write=False, num_elements=16, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        batch = batch_contiguous(request, 4, 8)
        assert batch.beat_useful[0] == 24
        assert batch.beat_useful[-1] == 8
        assert sum(batch.beat_useful) == 64


class TestNarrowPlanner:
    def test_one_element_per_beat(self):
        request = BusRequest(addr=0x40, is_write=False, num_elements=3, elem_bytes=4,
                             bus_bytes=32, contiguous=False)
        batch = batch_narrow(request, 4, 8)
        assert batch.num_beats == 3
        assert all(beat_words(batch, b) == 1 for b in range(3))
        assert batch.beat_useful == [4, 4, 4]


class TestIndexFetchPlanner:
    def test_index_lines_cover_index_array(self):
        batch = batch_index_fetch(indirect_request(40, 0x100), 32, 4, 8)
        assert sum(batch.beat_useful) == 160
        assert batch.num_beats == 5
        assert batch.beat_last[-1]

    def test_unaligned_index_base(self):
        batch = batch_index_fetch(indirect_request(8, 0x104), 32, 4, 8)
        # 8 indices starting one word into a line need two lines.
        assert batch.num_beats == 2
        assert batch.beat_useful == [28, 4]

    def test_small_index_sizes_pack_per_word(self):
        batch = batch_index_fetch(indirect_request(16, 0, index_bytes=1), 32, 4, 8)
        assert batch.num_beats == 1
        assert beat_words(batch, 0) == 4
        assert batch.beat_useful == [16]

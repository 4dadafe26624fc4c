"""Unit tests for the burst-level request descriptor."""

import pytest
from hypothesis import given, strategies as st

from repro.axi.pack import PackMode, PackUserField
from repro.axi.signals import ARBeat, AWBeat
from repro.axi.transaction import BusRequest, next_txn_id
from repro.errors import ProtocolError


def contiguous(addr=0, elems=64, elem_bytes=4, bus=32, write=False):
    return BusRequest(addr=addr, is_write=write, num_elements=elems,
                      elem_bytes=elem_bytes, bus_bytes=bus, contiguous=True)


def narrow(addr=0, elems=1, elem_bytes=4, bus=32, write=False):
    return BusRequest(addr=addr, is_write=write, num_elements=elems,
                      elem_bytes=elem_bytes, bus_bytes=bus, contiguous=False)


def strided(addr=0, elems=64, stride=3, elem_bytes=4, bus=32, write=False):
    return BusRequest(addr=addr, is_write=write, num_elements=elems,
                      elem_bytes=elem_bytes, bus_bytes=bus,
                      pack=PackUserField.strided(stride))


def indirect(addr=0, elems=64, elem_bytes=4, bus=32, idx_bytes=4, idx_base=0x1000, write=False):
    return BusRequest(addr=addr, is_write=write, num_elements=elems,
                      elem_bytes=elem_bytes, bus_bytes=bus,
                      pack=PackUserField.indirect(idx_bytes, idx_base))


class TestGeometry:
    def test_contiguous_full_beats(self):
        request = contiguous(elems=64)
        assert request.num_beats == 8
        assert request.beat_bytes == 32
        assert request.payload_bytes == 256
        assert not request.is_narrow

    def test_contiguous_partial_last_beat(self):
        request = contiguous(elems=66)
        assert request.num_beats == 9
        assert request.beat_useful_bytes(8) == 8

    def test_contiguous_misaligned_start(self):
        request = contiguous(addr=16, elems=8)
        # 16 bytes of misalignment push the payload into a second bus line.
        assert request.num_beats == 2
        start, end = request.beat_byte_range(0)
        assert (start, end) == (16, 32)

    def test_narrow_one_beat_per_element(self):
        request = narrow(elems=1)
        assert request.num_beats == 1
        assert request.beat_bytes == 4
        assert request.is_narrow
        assert request.elems_per_beat == 1

    def test_packed_strided_beats(self):
        request = strided(elems=64)
        assert request.num_beats == 8
        assert request.elems_per_beat == 8
        assert request.beat_bytes == 32

    def test_packed_partial_last_beat(self):
        request = strided(elems=13)
        assert request.num_beats == 2
        assert request.beat_elements(1) == (8, 13)
        assert request.beat_useful_bytes(1) == 20

    def test_packed_indirect_beats(self):
        request = indirect(elems=20, elem_bytes=8)
        assert request.elems_per_beat == 4
        assert request.num_beats == 5

    def test_beat_elements_out_of_range(self):
        request = strided(elems=8)
        with pytest.raises(ProtocolError):
            request.beat_elements(5)

    def test_beat_byte_range_only_for_contiguous(self):
        with pytest.raises(ProtocolError):
            strided().beat_byte_range(0)
        with pytest.raises(ProtocolError):
            contiguous().beat_elements(0)


class TestValidation:
    def test_element_larger_than_bus_rejected(self):
        with pytest.raises(ProtocolError):
            BusRequest(addr=0, is_write=False, num_elements=1, elem_bytes=64, bus_bytes=32)

    def test_zero_elements_rejected(self):
        with pytest.raises(ProtocolError):
            contiguous(elems=0)

    def test_contiguous_4k_crossing_rejected(self):
        with pytest.raises(ProtocolError):
            contiguous(addr=0xFF0, elems=16)

    def test_contiguous_ending_at_boundary_ok(self):
        request = contiguous(addr=0xF80, elems=32)
        assert request.num_beats == 4

    def test_packed_burst_longer_than_256_beats_rejected(self):
        with pytest.raises(ProtocolError):
            strided(elems=257 * 8)

    def test_packed_needs_bus_multiple_of_element(self):
        with pytest.raises(ProtocolError):
            BusRequest(addr=0, is_write=False, num_elements=4, elem_bytes=32,
                       bus_bytes=48, pack=PackUserField.strided(1))


class TestChannelConversion:
    def test_read_becomes_ar(self):
        beat = strided(elems=8).to_channel_beat()
        assert isinstance(beat, ARBeat)
        assert beat.num_beats == 1
        assert beat.user & 1 == 1

    def test_write_becomes_aw(self):
        beat = strided(elems=8, write=True).to_channel_beat()
        assert isinstance(beat, AWBeat)

    def test_plain_request_has_zero_user(self):
        assert contiguous().to_channel_beat().user == 0

    def test_user_field_roundtrip_through_wire(self):
        request = indirect(idx_bytes=2, idx_base=0x800)
        decoded = PackUserField.decode(request.to_channel_beat().user)
        assert decoded.mode is PackMode.INDIRECT
        assert decoded.index_bytes == 2
        assert decoded.index_base_addr == 0x800

    def test_txn_ids_unique(self):
        assert contiguous().txn_id != contiguous().txn_id
        assert next_txn_id() != next_txn_id()


class TestDescribe:
    def test_describe_mentions_mode(self):
        assert "strided" in strided().describe()
        assert "indirect" in indirect().describe()
        assert "narrow" in narrow().describe()
        assert "contiguous" in contiguous().describe()


class TestProperties:
    @given(st.integers(min_value=1, max_value=2000),
           st.sampled_from([4, 8, 16, 32]),
           st.integers(min_value=0, max_value=100))
    def test_strided_beat_accounting(self, elems, elem_bytes, stride):
        elems = min(elems, 256 * (32 // elem_bytes))
        request = BusRequest(addr=0, is_write=False, num_elements=elems,
                             elem_bytes=elem_bytes, bus_bytes=32,
                             pack=PackUserField.strided(stride))
        useful = sum(request.beat_useful_bytes(b) for b in range(request.num_beats))
        assert useful == request.payload_bytes
        assert request.num_beats <= 256

    @given(st.integers(min_value=1, max_value=512))
    def test_contiguous_beat_ranges_cover_payload(self, elems):
        request = contiguous(addr=64, elems=elems)
        covered = 0
        for beat in range(request.num_beats):
            start, end = request.beat_byte_range(beat)
            assert end > start
            covered += end - start
        assert covered == request.payload_bytes

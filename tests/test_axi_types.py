"""Unit tests for basic AXI4 types and legality rules."""

import pytest

from repro.axi.types import (
    AXI4_MAX_BURST_LEN,
    BurstType,
    Resp,
    bytes_to_axsize,
    check_burst_len_legal,
)
from repro.errors import ProtocolError


class TestSizeEncoding:
    @pytest.mark.parametrize("num_bytes,code", [(1, 0), (2, 1), (4, 2), (8, 3), (32, 5), (128, 7)])
    def test_bytes_to_axsize(self, num_bytes, code):
        assert bytes_to_axsize(num_bytes) == code

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ProtocolError):
            bytes_to_axsize(6)

    def test_zero_rejected(self):
        with pytest.raises(ProtocolError):
            bytes_to_axsize(0)


class TestBurstLegality:
    def test_max_length_is_256(self):
        assert AXI4_MAX_BURST_LEN == 256
        check_burst_len_legal(256)
        with pytest.raises(ProtocolError):
            check_burst_len_legal(257)

    def test_zero_beats_rejected(self):
        with pytest.raises(ProtocolError):
            check_burst_len_legal(0)


class TestEnums:
    def test_burst_encoding(self):
        assert BurstType.FIXED.encoding == 0
        assert BurstType.INCR.encoding == 1
        assert BurstType.WRAP.encoding == 2

    def test_resp_values(self):
        assert Resp.OKAY.value == 0
        assert Resp.SLVERR.value == 2

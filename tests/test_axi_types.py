"""Unit tests for basic AXI4 types and legality rules."""

import pytest

from repro.axi.types import (
    AXI4_MAX_BURST_LEN,
    Resp,
    check_burst_len_legal,
)
from repro.errors import ProtocolError


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
    def test_resp_values(self):
        assert Resp.OKAY.value == 0
        assert Resp.SLVERR.value == 2

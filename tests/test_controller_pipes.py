"""Unit tests for the request regulator and the lane read/write pipes."""

import pytest

from repro.axi.pack import PackUserField
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.context import AdapterConfig
from repro.controller.lanes import LaneReadPipe, LaneWritePipe, batch_strided
from repro.controller.regulator import RequestRegulator
from repro.errors import SimulationError


class TestRegulator:
    def test_limit_enforced(self):
        regulator = RequestRegulator(num_ports=2, limit=2)
        assert regulator.can_issue(0)
        regulator.note_issue(0)
        regulator.note_issue(0)
        assert not regulator.can_issue(0)
        assert regulator.can_issue(1)

    def test_retire_frees_slot(self):
        regulator = RequestRegulator(2, 1)
        regulator.note_issue(1)
        regulator.note_retire(1)
        assert regulator.can_issue(1)

    def test_overflow_raises(self):
        regulator = RequestRegulator(1, 1)
        regulator.note_issue(0)
        with pytest.raises(SimulationError):
            regulator.note_issue(0)

    def test_underflow_raises(self):
        regulator = RequestRegulator(1, 1)
        with pytest.raises(SimulationError):
            regulator.note_retire(0)

    def test_totals(self):
        regulator = RequestRegulator(4, 8)
        regulator.note_issue(0)
        regulator.note_issue(3)
        assert regulator.total_in_flight() == 2
        assert regulator.in_flight(3) == 1
        regulator.reset()
        assert regulator.total_in_flight() == 0


def _strided_request(elems=16, stride=2):
    return BusRequest(addr=0, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=32, pack=PackUserField.strided(stride))


def _config(queue_depth=4):
    return AdapterConfig(bus_bytes=32, queue_depth=queue_depth)


def _read_pipe(request, queue_depth=4):
    pipe = LaneReadPipe("p", _config(queue_depth))
    pipe.accept(request, batch_strided(request, 4, 8))
    return pipe


def _respond(pipe, words, data_of):
    """Deliver each issued word's response; ``data_of(port)`` is its word."""
    for word in words:
        _, batch, slot = word.tag
        pipe.take_response(batch, slot, data_of(batch.ports[slot]))


class TestReadPipe:
    def test_issue_respects_free_ports(self):
        pipe = _read_pipe(_strided_request(8))
        out = []
        pipe.issue({0, 1, 2}, out)
        # In-order issue stops at the first unavailable port (port 3).
        assert len(out) == 3
        assert [r.port for r in out] == [0, 1, 2]

    def test_issue_respects_regulator(self):
        pipe = _read_pipe(_strided_request(16), queue_depth=1)
        out = []
        pipe.issue(set(range(8)), out)
        assert len(out) == 8  # one per lane
        out2 = []
        pipe.issue(set(range(8)), out2)
        assert out2 == []  # regulator full until responses retire

    def test_beat_completion_and_packing(self):
        request = _strided_request(8)
        pipe = _read_pipe(request)
        out = []
        pipe.issue(set(range(8)), out)
        assert pipe.pop_ready_beat() is None
        _respond(pipe, out, lambda port: bytes([port] * 4))
        useful, data, req, resp = pipe.pop_ready_beat()
        assert req is request
        assert useful == 32
        assert data == bytes(sum([[p] * 4 for p in range(8)], []))
        assert resp is Resp.OKAY

    def test_beats_emitted_in_order(self):
        pipe = _read_pipe(_strided_request(16), queue_depth=8)
        out = []
        pipe.issue(set(range(8)), out)
        pipe.issue(set(range(8)), out)
        assert len(out) == 16
        # Answer the second beat's words first: nothing can be emitted yet.
        _respond(pipe, out[8:], lambda port: b"\x01" * 4)
        assert pipe.pop_ready_beat() is None
        _respond(pipe, out[:8], lambda port: b"\x00" * 4)
        first = pipe.pop_ready_beat()
        second = pipe.pop_ready_beat()
        # Each beat's payload identifies it: beat 0 carries zeros.
        assert first[1] == b"\x00" * 32 and second[1] == b"\x01" * 32

    def test_r_beat_wrapper(self):
        request = _strided_request(4)
        pipe = _read_pipe(request)
        out = []
        pipe.issue(set(range(8)), out)
        _respond(pipe, out, lambda port: b"\xAA" * 4)
        beat = pipe.pop_ready_r_beat()
        assert beat.txn_id == request.txn_id
        assert beat.useful_bytes == 16
        assert beat.last

    def test_busy_tracking(self):
        pipe = LaneReadPipe("p", _config())
        assert not pipe.busy()
        request = _strided_request(8)
        pipe.accept(request, batch_strided(request, 4, 8))
        assert pipe.busy()
        pipe.reset()
        assert not pipe.busy()


def _strided_write(stride):
    request = BusRequest(addr=0, is_write=True, num_elements=8, elem_bytes=4,
                         bus_bytes=32, pack=PackUserField.strided(stride))
    pipe = LaneWritePipe("w", _config())
    burst = pipe.accept(request, batch_strided(request, 4, 8))
    return request, pipe, burst


class TestWritePipe:
    def test_write_flow_and_b_response(self):
        request, pipe, burst = _strided_write(2)
        assert not burst.all_w_received  # the burst still expects W data
        assert pipe.take_w_beat(bytes(range(32))) is burst
        assert burst.all_w_received
        out = []
        pipe.issue(set(range(8)), out)
        assert len(out) == 8
        assert all(word.is_write and word.data is not None for word in out)
        assert pipe.pop_ready_b_beat() is None
        for word in out:
            _, batch, slot = word.tag
            pipe.take_ack(batch, slot)
        beat = pipe.pop_ready_b_beat()
        assert beat is not None and beat.txn_id == request.txn_id
        assert not pipe.busy()

    def test_word_write_data_matches_payload_slots(self):
        _, pipe, _ = _strided_write(1)
        payload = bytes(range(32))
        pipe.take_w_beat(payload)
        out = []
        pipe.issue(set(range(8)), out)
        for word in out:
            _, batch, slot = word.tag
            offset = batch.offsets[slot]
            assert word.data == payload[offset:offset + 4]

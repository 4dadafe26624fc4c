"""Unit tests for the lane read/write pipes and their per-port in-flight cap.

A pipe's ``issue`` takes the free word ports as a bit mask (bit *p* set:
port *p* may take a request this cycle) and returns the mask it leaves.
"""

from collections import deque

import pytest

from repro.axi.pack import PackUserField
from repro.axi.port import AxiPort
from repro.axi.signals import RBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.adapter import AxiPackAdapter
from repro.controller.lanes import (
    LaneReadPipe,
    LaneWritePipe,
    batch_contiguous,
    batch_strided,
)
from repro.errors import SimulationError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage


def _strided_request(elems=16, stride=2):
    return BusRequest(addr=0, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=32, pack=PackUserField.strided(stride))


def _config(queue_depth=4):
    return BankedMemoryConfig(queue_depth=queue_depth)


def _read_pipe(request, queue_depth=4):
    pipe = LaneReadPipe("p", _config(queue_depth))
    pipe.add_batch(request, batch_strided(request, 4, 8))
    return pipe


#: every one of the eight word ports free
ALL_PORTS = 0xFF


def _fifos():
    """Empty per-port request FIFOs, as the banked memory provides."""
    return [deque() for _ in range(8)]


def _tags(fifos):
    """Every tag in the FIFOs, port by port."""
    return [tag for fifo in fifos for tag in fifo]


def _retire(pipe, batch, slot):
    """Retire one word as the adapter does on its response."""
    batch.beat_remaining[batch.beat_of[slot]] -= 1
    pipe.in_flight[batch.ports[slot]] -= 1


def _respond(tags, data_of):
    """Serve each read as the memory's grant would, then retire it;
    ``data_of(port)`` is the word's bytes."""
    for pipe, batch, slot in tags:
        offset = batch.offsets[slot]
        batch.beat_data[batch.beat_of[slot]][offset:offset + 4] = data_of(
            batch.ports[slot])
        _retire(pipe, batch, slot)


class TestReadPipe:
    def test_issue_respects_free_ports(self):
        pipe = _read_pipe(_strided_request(8))
        fifos = _fifos()
        # In-order issue stops at the first unavailable port (port 3).
        assert pipe.issue(0b111, fifos) == 0
        assert [len(fifo) for fifo in fifos] == [1, 1, 1, 0, 0, 0, 0, 0]
        assert [tag[0] for tag in _tags(fifos)] == [pipe] * 3
        assert [tag[2] for tag in _tags(fifos)] == [0, 1, 2]

    def test_issue_respects_regulator(self):
        pipe = _read_pipe(_strided_request(16), queue_depth=1)
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == 0
        assert len(_tags(fifos)) == 8  # one per lane
        # Regulator full until reads retire: every port is left free.
        assert pipe.issue(ALL_PORTS, fifos) == ALL_PORTS
        assert len(_tags(fifos)) == 8

    def test_beat_completion_and_packing(self):
        request = _strided_request(8)
        pipe = _read_pipe(request)
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == 0
        assert pipe.pop_ready_r_beat() is None
        _respond(_tags(fifos), lambda port: bytes([port] * 4))
        beat = pipe.pop_ready_r_beat()
        assert beat.txn_id == request.txn_id
        assert beat.useful_bytes == 32
        assert beat.data == bytes(sum([[p] * 4 for p in range(8)], []))
        assert beat.resp is Resp.OKAY
        assert pipe.pop_ready_r_beat() is None

    def test_beats_emitted_in_order(self):
        pipe = _read_pipe(_strided_request(16), queue_depth=8)
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == 0
        assert pipe.issue(ALL_PORTS, fifos) == 0
        # Each port's FIFO holds its beat-0 slot, then its beat-1 slot.
        first = [fifo[0] for fifo in fifos]
        second = [fifo[1] for fifo in fifos]
        # Answer the second beat's words first: nothing can be emitted yet.
        _respond(second, lambda port: b"\x01" * 4)
        assert pipe.pop_ready_r_beat() is None
        _respond(first, lambda port: b"\x00" * 4)
        first_beat = pipe.pop_ready_r_beat()
        second_beat = pipe.pop_ready_r_beat()
        # Each beat's payload identifies it: beat 0 carries zeros.
        assert first_beat.data == b"\x00" * 32 and second_beat.data == b"\x01" * 32
        assert (first_beat.last, second_beat.last) == (False, True)

    def test_r_beat_wrapper(self):
        """A complete beat leaves the pipe as the R-channel record."""
        request = _strided_request(4)
        pipe = _read_pipe(request)
        fifos = _fifos()
        # Four words on ports 0-3; ports 4-7 stay free.
        assert pipe.issue(ALL_PORTS, fifos) == 0xF0
        _respond(_tags(fifos), lambda port: b"\xAA" * 4)
        beat = pipe.pop_ready_r_beat()
        assert type(beat) is RBeat
        assert beat == (request.txn_id, b"\xAA" * 16, 16, True, Resp.OKAY)

    def test_poisoned_beat_carries_the_error(self):
        """A word the memory answered with an error poisons its beat at
        grant; retiring it completes the beat with that response."""
        pipe = _read_pipe(_strided_request(8))
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == 0
        tags = _tags(fifos)
        tags[3][1].poison_beat(0, Resp.SLVERR)
        for tag in tags:
            _retire(*tag)
        assert pipe.pop_ready_r_beat().resp is Resp.SLVERR

    def test_retiring_frees_the_regulator(self):
        pipe = _read_pipe(_strided_request(16), queue_depth=1)
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == 0
        _retire(*fifos[0].popleft())
        # Only port 0 has a free regulator slot, and beat 1 stops at port 1.
        assert pipe.issue(ALL_PORTS, fifos) == ALL_PORTS & ~1
        assert [len(fifo) for fifo in fifos] == [1, 1, 1, 1, 1, 1, 1, 1]
        assert fifos[0][0][2] == 8  # beat 1's port-0 slot

    def test_busy_tracking(self):
        pipe = LaneReadPipe("p", _config())
        assert not pipe.busy()
        request = _strided_request(8)
        pipe.add_batch(request, batch_strided(request, 4, 8))
        assert pipe.busy()
        assert pipe.issue(ALL_PORTS, _fifos()) == 0
        assert pipe.in_flight == [1] * 8
        pipe.reset()
        assert not pipe.busy()
        assert pipe.in_flight == [0] * 8


def _strided_write(stride):
    request = BusRequest(addr=0, is_write=True, num_elements=8, elem_bytes=4,
                         bus_bytes=32, pack=PackUserField.strided(stride))
    pipe = LaneWritePipe("w", _config())
    burst = pipe.accept(request, batch_strided(request, 4, 8))
    return request, pipe, burst


def _route_w(pipe, burst, payload):
    """Hand ``burst`` its next W beat, as the adapter's W routing does."""
    beat = burst.w_beats_received
    burst.w_beats_received = beat + 1
    pipe.arm_beat(burst.batch, beat, payload, burst)


class TestWritePipe:
    def test_write_flow_and_b_response(self):
        request, pipe, burst = _strided_write(2)
        assert burst.w_beats_received == 0  # the burst still expects W data
        _route_w(pipe, burst, bytes(range(32)))
        assert burst.w_beats_received == request.num_beats == 1
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == 0
        tags = _tags(fifos)
        assert len(tags) == 8
        assert all(batch.beat_payload is not None for _, batch, _ in tags)
        assert pipe.pop_ready_b_beat() is None
        for tag in tags:
            _retire(*tag)
        beat = pipe.pop_ready_b_beat()
        assert beat is not None and beat.txn_id == request.txn_id
        assert not pipe.busy()

    def test_arming_a_beat_issues_only_its_words(self):
        """Arming a beat queues its own word writes and nothing else: the
        burst's second beat issues nothing until its W data arms it."""
        request = BusRequest(addr=0, is_write=True, num_elements=16,
                             elem_bytes=4, bus_bytes=32,
                             pack=PackUserField.strided(2))
        pipe = LaneWritePipe("w", _config())
        burst = pipe.accept(request, batch_strided(request, 4, 8))
        fifos = _fifos()
        assert pipe.issue(ALL_PORTS, fifos) == ALL_PORTS
        _route_w(pipe, burst, bytes(range(32)))
        assert pipe.issue(ALL_PORTS, fifos) == 0
        assert [tag[2] for tag in _tags(fifos)] == list(range(8))
        assert burst.batch.beat_payload == [bytes(range(32)), None]
        assert pipe.issue(ALL_PORTS, fifos) == ALL_PORTS

    def test_memory_writes_the_payload_slots(self):
        """Issued into a banked memory's FIFOs, each word's data comes from
        its slot of the W beat's payload."""
        _, pipe, burst = _strided_write(3)
        payload = bytes(range(32))
        _route_w(pipe, burst, payload)
        storage = MemoryStorage(1 << 12)
        memory = BankedMemory("mem", BankedMemoryConfig(), storage)
        assert pipe.issue(ALL_PORTS, memory.req_fifos) == 0
        for cycle in range(3):
            memory.tick(cycle)
        for element in range(8):
            word = storage.read_bytes(element * 3 * 4, 4)
            assert word == payload[element * 4:element * 4 + 4]


    def test_a_partial_word_write_is_refused_at_acceptance(self):
        """The model writes whole words only: a contiguous write that starts
        mid-word is refused when its burst is accepted, before any word
        issues."""
        request = BusRequest(addr=6, is_write=True, num_elements=4,
                             elem_bytes=4, bus_bytes=32, contiguous=True)
        pipe = LaneWritePipe("w", _config())
        with pytest.raises(SimulationError,
                           match="w: partial-word write at word 0x1"):
            pipe.accept(request, batch_contiguous(request, 4, 8))
        assert not pipe.busy()


class TestInFlightAccounting:
    def test_retiring_a_word_with_no_slot_in_flight_raises(self):
        """The adapter checks each retired word against its pipe's
        ``in_flight`` count: a response with no issued access behind it is
        a bookkeeping bug, not a silent negative count."""
        port = AxiPort("port", 32)
        memory = BankedMemory("mem", BankedMemoryConfig(),
                              MemoryStorage(1 << 12))
        adapter = AxiPackAdapter("adapter", port, memory)
        port.ar.push(BusRequest(addr=0x100, is_write=False, num_elements=8,
                                elem_bytes=4, bus_bytes=32, contiguous=True))
        port.ar.commit()
        cycle = 0
        while not any(memory.rsp_fifos):
            adapter.tick(cycle)
            memory.tick(cycle)
            cycle += 1
        pipe = memory.rsp_fifos[0][0][0]
        assert pipe.in_flight == [1] * 8
        pipe.in_flight[0] = 0
        with pytest.raises(SimulationError, match="underflow on port 0"):
            adapter.tick(cycle)

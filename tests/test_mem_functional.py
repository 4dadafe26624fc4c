"""Unit tests for functional burst execution and the ideal memory endpoint."""

import numpy as np
import pytest

from repro.axi.pack import PackUserField
from repro.axi.port import AxiPort
from repro.axi.signals import WBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.errors import ProtocolError
from repro.mem.functional import (
    element_addresses,
    read_burst_payload,
    write_burst_payload,
)
from repro.mem.ideal import IdealMemoryEndpoint
from repro.mem.storage import MemoryStorage
from repro.sim.engine import Engine


@pytest.fixture
def filled_storage():
    storage = MemoryStorage(1 << 18)
    storage.write_array(0, np.arange(4096, dtype=np.float32))
    return storage


class TestFunctionalHelpers:
    def test_contiguous_read(self, filled_storage):
        request = BusRequest(addr=16, is_write=False, num_elements=8, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        payload = read_burst_payload(filled_storage, request).view(np.float32)
        assert payload.tolist() == [4, 5, 6, 7, 8, 9, 10, 11]

    def test_strided_read(self, filled_storage):
        request = BusRequest(addr=0, is_write=False, num_elements=5, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(3))
        payload = read_burst_payload(filled_storage, request).view(np.float32)
        assert payload.tolist() == [0, 3, 6, 9, 12]

    def test_indirect_read_uses_memory_indices(self, filled_storage):
        indices = np.asarray([5, 1, 100, 7], dtype=np.uint32)
        filled_storage.write_array(0x10000, indices)
        request = BusRequest(addr=0, is_write=False, num_elements=4, elem_bytes=4,
                             bus_bytes=32,
                             pack=PackUserField.indirect(4, 0x10000))
        payload = read_burst_payload(filled_storage, request).view(np.float32)
        assert payload.tolist() == [5, 1, 100, 7]

    def test_element_addresses_strided(self, filled_storage):
        request = BusRequest(addr=8, is_write=False, num_elements=3, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(2))
        assert element_addresses(filled_storage, request).tolist() == [8, 16, 24]

    def test_write_payload_contiguous(self, filled_storage):
        request = BusRequest(addr=64, is_write=True, num_elements=4, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        values = np.asarray([9.0, 8.0, 7.0, 6.0], dtype=np.float32)
        write_burst_payload(filled_storage, request, values.view(np.uint8))
        assert filled_storage.read_array(64, 4, np.float32).tolist() == [9, 8, 7, 6]

    def test_write_payload_size_checked(self, filled_storage):
        request = BusRequest(addr=64, is_write=True, num_elements=4, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        with pytest.raises(ProtocolError):
            write_burst_payload(filled_storage, request, b"\x00" * 8)

    def test_read_helper_rejects_write_request(self, filled_storage):
        request = BusRequest(addr=0, is_write=True, num_elements=4, elem_bytes=4,
                             bus_bytes=32, contiguous=True)
        with pytest.raises(ProtocolError):
            read_burst_payload(filled_storage, request)


class TestIdealEndpoint:
    def _run(self, storage, requests, payloads=None):
        port = AxiPort("p", 32)
        endpoint = IdealMemoryEndpoint("ideal", port, storage)
        engine = Engine()
        engine.add_component(endpoint)
        for queue in port.all_queues():
            engine.add_queue(queue)
        received = {r.txn_id: [] for r in requests}
        pending_w = []
        for request in requests:
            if request.is_write:
                payload = payloads[request.txn_id]
                for beat in range(request.num_beats):
                    chunk = payload[beat * 32:(beat + 1) * 32]
                    pending_w.append(WBeat(data=chunk, useful_bytes=len(chunk),
                                           last=beat == request.num_beats - 1))
        reads = [r for r in requests if not r.is_write]
        writes = [r for r in requests if r.is_write]
        done_b = []
        for cycle in range(2000):
            if reads and port.ar.can_push():
                port.ar.push(reads.pop(0))
            if writes and port.aw.can_push():
                port.aw.push(writes.pop(0))
            if pending_w and port.w.can_push():
                port.w.push(pending_w.pop(0))
            if port.r.can_pop():
                beat = port.r.pop()
                received[beat.txn_id].append(bytes(beat.data)[: beat.useful_bytes])
            if port.b.can_pop():
                done_b.append(port.b.pop().txn_id)
            engine.step()
            if not reads and not writes and not pending_w and not endpoint.busy() \
                    and port.is_idle():
                break
        return received, done_b

    def test_read_delivers_packed_payload(self, filled_storage):
        request = BusRequest(addr=0, is_write=False, num_elements=16, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(4))
        received, _ = self._run(filled_storage, [request])
        data = np.frombuffer(b"".join(received[request.txn_id]), dtype=np.float32)
        assert data.tolist() == list(range(0, 64, 4))

    def test_write_updates_storage(self, filled_storage):
        request = BusRequest(addr=0x8000, is_write=True, num_elements=8, elem_bytes=4,
                             bus_bytes=32, pack=PackUserField.strided(2))
        values = np.arange(100, 108, dtype=np.float32)
        received, done_b = self._run(filled_storage, [request],
                                     payloads={request.txn_id: values.tobytes()})
        assert done_b == [request.txn_id]
        back = filled_storage.read_array(0x8000, 16, np.float32)[::2]
        assert back.tolist() == values.tolist()

    def test_out_of_range_read_answers_phantom_beats(self):
        storage = MemoryStorage(1 << 12)
        request = BusRequest(addr=1 << 12, is_write=False,
                             num_elements=32, elem_bytes=4, bus_bytes=32,
                             contiguous=True)
        port = AxiPort("p", 32)
        endpoint = IdealMemoryEndpoint("ideal", port, storage)
        engine = Engine()
        engine.add_component(endpoint)
        for queue in port.all_queues():
            engine.add_queue(queue)
        port.ar.push(request)
        beats = []
        while len(beats) < request.num_beats and engine.cycle < 100:
            if port.r.can_pop():
                beats.append(port.r.pop())
            engine.step()
        # The whole burst answers SLVERR, one phantom beat per planned beat.
        assert len(beats) == request.num_beats
        assert all(b.resp is Resp.SLVERR and b.useful_bytes == 0
                   and b.data == b"" for b in beats)
        assert beats[-1].last
        assert endpoint.stats.get("ideal.r_useful_bytes") == 0

    def test_back_to_back_reads_stream_efficiently(self, filled_storage):
        requests = [
            BusRequest(addr=128 * i, is_write=False, num_elements=64, elem_bytes=4,
                       bus_bytes=32, contiguous=True)
            for i in range(4)
        ]
        port = AxiPort("p", 32)
        endpoint = IdealMemoryEndpoint("ideal", port, filled_storage)
        engine = Engine()
        engine.add_component(endpoint)
        for queue in port.all_queues():
            engine.add_queue(queue)
        beats = 0
        pending = list(requests)
        cycles = 0
        while beats < 4 * 8 and cycles < 500:
            if pending and port.ar.can_push():
                port.ar.push(pending.pop(0))
            if port.r.can_pop():
                port.r.pop()
                beats += 1
            engine.step()
            cycles += 1
        # 32 beats should take barely more than 32 cycles end to end.
        assert cycles < 60

"""Integration tests: the adapter + banked memory against the golden model.

Every burst flavour is driven through the cycle-level controller and the
resulting data is compared byte for byte with the zero-time functional model
(:mod:`repro.mem.functional`) — if packing, indirection or unpacking dropped
or reordered a single element, these tests fail.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.axi.builder import RequestBuilder
from repro.axi.pack import PackMode, PackUserField
from repro.axi.port import AxiPort
from repro.axi.signals import WBeat
from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.axi.transaction import BusRequest
from repro.controller.adapter import AxiPackAdapter
from repro.controller.base_converter import BaseAxi4Converter
from repro.controller.index_stage import IndexStage, read_index_oracle
from repro.controller.indirect_read import IndirectReadConverter
from repro.controller.indirect_write import IndirectWriteConverter
from repro.controller.lanes import (
    LaneReadPipe,
    LaneWritePipe,
    batch_contiguous,
    batch_index_fetch,
)
from repro.controller.strided_read import StridedReadConverter
from repro.controller.strided_write import StridedWriteConverter
from repro.controller.testbench import ControllerTestbench
from repro.errors import ProtocolError, SimulationError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.functional import read_burst_payload
from repro.mem.storage import MemoryStorage
from repro.sim.stats import StatsRegistry


def make_testbench(num_banks: int = 17) -> ControllerTestbench:
    return ControllerTestbench(BankedMemoryConfig(num_banks=num_banks),
                               memory_bytes=1 << 21)


@pytest.fixture
def builder():
    return RequestBuilder(32)


def fill(tb, count=8192, seed=3):
    data = np.random.default_rng(seed).standard_normal(count).astype(np.float32)
    tb.storage.write_array(0, data)
    return data


def run_reads(tb, requests):
    result = tb.run(requests)
    payload = b"".join(result.outcomes[r.txn_id].payload for r in requests)
    return np.frombuffer(payload, dtype=np.float32), result


class TestReadCorrectness:
    def test_contiguous_read(self, builder):
        tb = make_testbench()
        data = fill(tb)
        requests = builder.contiguous(ContiguousStream(0, 512, 4), is_write=False)
        values, result = run_reads(tb, requests)
        assert np.array_equal(values, data[:512])
        assert result.r_beats == 64

    def test_strided_read_packs_correctly(self, builder):
        tb = make_testbench()
        data = fill(tb)
        stream = StridedStream(base=0, num_elements=128, elem_bytes=4, stride_elems=7)
        values, _ = run_reads(tb, builder.pack_strided(stream, is_write=False))
        assert np.array_equal(values, data[::7][:128])

    def test_indirect_read_gathers_correctly(self, builder):
        tb = make_testbench()
        data = fill(tb)
        indices = np.random.default_rng(0).integers(0, 8192, 200).astype(np.uint32)
        tb.storage.write_array(0x20000, indices)
        stream = IndirectStream(base=0, num_elements=200, elem_bytes=4,
                                index_base=0x20000, index_bytes=4)
        values, _ = run_reads(tb, builder.pack_indirect(stream, is_write=False))
        assert np.array_equal(values, data[indices])

    def test_indirect_read_with_16bit_indices(self, builder):
        tb = make_testbench()
        data = fill(tb)
        indices = np.random.default_rng(1).integers(0, 4096, 64).astype(np.uint16)
        tb.storage.write_array(0x20000, indices)
        stream = IndirectStream(base=0, num_elements=64, elem_bytes=4,
                                index_base=0x20000, index_bytes=2)
        values, _ = run_reads(tb, builder.pack_indirect(stream, is_write=False))
        assert np.array_equal(values, data[indices])

    def test_narrow_reads_match_strided(self, builder):
        tb = make_testbench()
        data = fill(tb)
        stream = StridedStream(base=0, num_elements=64, elem_bytes=4, stride_elems=9)
        values, result = run_reads(tb, builder.base_strided(stream, is_write=False))
        assert np.array_equal(values, data[::9][:64])
        # One narrow beat per element.
        assert result.r_beats == 64

    def test_wide_elements(self, builder):
        tb = make_testbench()
        data64 = np.random.default_rng(2).standard_normal(1024)
        tb.storage.write_array(0, data64)
        stream = StridedStream(base=0, num_elements=32, elem_bytes=8, stride_elems=3)
        requests = builder.pack_strided(stream, is_write=False)
        result = tb.run(requests)
        payload = b"".join(result.outcomes[r.txn_id].payload for r in requests)
        values = np.frombuffer(payload, dtype=np.float64)
        assert np.array_equal(values, data64[::3][:32])

    def test_mixed_burst_types_interleave_correctly(self, builder):
        tb = make_testbench()
        data = fill(tb)
        indices = np.arange(100, 164, dtype=np.uint32)
        tb.storage.write_array(0x20000, indices)
        requests = []
        requests += builder.contiguous(ContiguousStream(0, 64, 4), is_write=False)
        requests += builder.pack_strided(
            StridedStream(base=0, num_elements=64, elem_bytes=4, stride_elems=5), False
        )
        requests += builder.pack_indirect(
            IndirectStream(base=0, num_elements=64, elem_bytes=4,
                           index_base=0x20000, index_bytes=4), False
        )
        result = tb.run(requests, max_outstanding=6)
        for request in requests:
            expected = read_burst_payload(tb.storage, request).tobytes()
            assert result.outcomes[request.txn_id].payload == expected


class TestWriteCorrectness:
    def test_strided_write(self, builder):
        tb = make_testbench()
        stream = StridedStream(base=0x40000, num_elements=96, elem_bytes=4, stride_elems=4)
        requests = builder.pack_strided(stream, is_write=True)
        values = np.arange(96, dtype=np.float32)
        payloads, offset = {}, 0
        for request in requests:
            payloads[request.txn_id] = values.tobytes()[offset:offset + request.payload_bytes]
            offset += request.payload_bytes
        tb.run(requests, write_payloads=payloads)
        back = tb.storage.read_array(0x40000, 96 * 4, np.float32)[::4]
        assert np.array_equal(back, values)

    def test_indirect_write_scatters(self, builder):
        tb = make_testbench()
        indices = np.random.default_rng(5).permutation(256)[:64].astype(np.uint32)
        tb.storage.write_array(0x20000, indices)
        stream = IndirectStream(base=0x40000, num_elements=64, elem_bytes=4,
                                index_base=0x20000, index_bytes=4)
        requests = builder.pack_indirect(stream, is_write=True)
        values = np.arange(64, dtype=np.float32) + 1000
        payloads = {requests[0].txn_id: values.tobytes()}
        tb.run(requests, write_payloads=payloads)
        region = tb.storage.read_array(0x40000, 256, np.float32)
        assert np.array_equal(region[indices], values)

    def test_contiguous_write(self, builder):
        tb = make_testbench()
        stream = ContiguousStream(base=0x40000, num_elements=128, elem_bytes=4)
        requests = builder.contiguous(stream, is_write=True)
        values = np.arange(128, dtype=np.float32)
        payloads, offset = {}, 0
        for request in requests:
            payloads[request.txn_id] = values.tobytes()[offset:offset + request.payload_bytes]
            offset += request.payload_bytes
        tb.run(requests, write_payloads=payloads)
        assert np.array_equal(tb.storage.read_array(0x40000, 128, np.float32), values)

    def test_read_write_concurrency(self, builder):
        tb = make_testbench()
        data = fill(tb)
        read_stream = StridedStream(base=0, num_elements=64, elem_bytes=4, stride_elems=3)
        write_stream = StridedStream(base=0x40000, num_elements=64, elem_bytes=4, stride_elems=3)
        reads = builder.pack_strided(read_stream, is_write=False)
        writes = builder.pack_strided(write_stream, is_write=True)
        values = np.arange(64, dtype=np.float32)
        payloads = {writes[0].txn_id: values.tobytes()}
        result = tb.run(reads + writes, write_payloads=payloads, max_outstanding=4)
        read_back = np.frombuffer(result.outcomes[reads[0].txn_id].payload, dtype=np.float32)
        assert np.array_equal(read_back, data[::3][:64])
        assert np.array_equal(tb.storage.read_array(0x40000, 64 * 3, np.float32)[::3], values)


class TestBandwidthBehaviour:
    def test_packed_strided_is_efficient_with_prime_banks(self, builder):
        tb = make_testbench(num_banks=17)
        fill(tb)
        stream = StridedStream(base=0, num_elements=512, elem_bytes=4, stride_elems=6)
        _, result = run_reads(tb, builder.pack_strided(stream, is_write=False))
        assert result.r_utilization > 0.7

    def test_packed_beats_narrow_by_large_factor(self, builder):
        stream = StridedStream(base=0, num_elements=256, elem_bytes=4, stride_elems=5)
        tb_pack = make_testbench()
        fill(tb_pack)
        _, packed = run_reads(tb_pack, builder.pack_strided(stream, is_write=False))
        tb_base = make_testbench()
        fill(tb_base)
        _, narrow = run_reads(tb_base, builder.base_strided(stream, is_write=False))
        assert narrow.cycles > 4 * packed.cycles
        assert packed.r_utilization > 4 * narrow.r_utilization

    def test_power_of_two_banks_suffer_on_even_strides(self, builder):
        stream = StridedStream(base=0, num_elements=256, elem_bytes=4, stride_elems=8)
        tb_po2 = make_testbench(num_banks=16)
        fill(tb_po2)
        _, po2 = run_reads(tb_po2, builder.pack_strided(stream, is_write=False))
        tb_prime = make_testbench(num_banks=17)
        fill(tb_prime)
        _, prime = run_reads(tb_prime, builder.pack_strided(stream, is_write=False))
        assert prime.r_utilization > 2 * po2.r_utilization
        assert po2.bank_conflicts > prime.bank_conflicts

    def test_backward_compatibility_plain_axi4_only(self, builder):
        """A requestor that never uses AXI-Pack sees a plain AXI4 memory."""
        tb = make_testbench()
        data = fill(tb)
        requests = builder.contiguous(ContiguousStream(0, 1024, 4), is_write=False)
        values, result = run_reads(tb, requests)
        assert np.array_equal(values, data[:1024])
        assert result.r_utilization > 0.9
        # Only the base converter should have been used.
        assert tb.stats.get("controller.base.read_bursts") == len(requests)
        assert tb.stats.get("controller.strided_read.bursts") == 0
        assert tb.stats.get("controller.indirect_read.bursts") == 0


class TestRandomizedAgainstGoldenModel:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=33),
        st.sampled_from([4, 8]),
    )
    def test_random_strided_reads_match_golden(self, elems, stride, elem_bytes):
        builder = RequestBuilder(32)
        tb = make_testbench()
        fill(tb, count=16384)
        stream = StridedStream(base=256, num_elements=elems, elem_bytes=elem_bytes,
                               stride_elems=stride)
        requests = builder.pack_strided(stream, is_write=False)
        result = tb.run(requests)
        for request in requests:
            expected = read_burst_payload(tb.storage, request).tobytes()
            assert result.outcomes[request.txn_id].payload == expected

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=1000))
    def test_random_indirect_reads_match_golden(self, elems, seed):
        builder = RequestBuilder(32)
        tb = make_testbench()
        fill(tb, count=16384)
        indices = np.random.default_rng(seed).integers(0, 16384, elems).astype(np.uint32)
        tb.storage.write_array(0x30000, indices)
        stream = IndirectStream(base=0, num_elements=elems, elem_bytes=4,
                                index_base=0x30000, index_bytes=4)
        requests = builder.pack_indirect(stream, is_write=False)
        result = tb.run(requests)
        for request in requests:
            expected = read_burst_payload(tb.storage, request).tobytes()
            assert result.outcomes[request.txn_id].payload == expected


#: (converter class, method) entry points the adapter calls per cycle.  A
#: per-layer profiler wraps them on the class itself (``cls.__dict__``), so
#: each must be defined on its own class and reached through the class.
ENTRY_POINTS = [
    (BaseAxi4Converter, "issue"),
    (StridedReadConverter, "issue"),
    (StridedWriteConverter, "issue"),
    (IndirectReadConverter, "issue"),
    (IndirectReadConverter, "step"),
    (IndirectWriteConverter, "issue"),
    (IndirectWriteConverter, "step"),
]

#: Lane pipes each converter drives its word accesses through, in issue order.
CONVERTER_PIPES = {
    "base": ["LaneReadPipe", "LaneWritePipe"],
    "strided_read": ["LaneReadPipe"],
    "strided_write": ["LaneWritePipe"],
    "indirect_read": ["LaneReadPipe", "LaneReadPipe"],
    "indirect_write": ["LaneWritePipe", "LaneReadPipe"],
}


def _every_converter_stream(tb, builder):
    """Plain, strided and indirect reads and writes: every converter's bursts."""
    fill(tb)
    tb.storage.write_array(0x20000, np.arange(100, 132, dtype=np.uint32))
    requests = []
    for base, is_write in ((0, False), (0x40000, True)):
        requests += builder.contiguous(ContiguousStream(base, 32, 4), is_write)
        requests += builder.pack_strided(
            StridedStream(base=base, num_elements=32, elem_bytes=4,
                          stride_elems=3), is_write
        )
        requests += builder.pack_indirect(
            IndirectStream(base=base, num_elements=32, elem_bytes=4,
                           index_base=0x20000, index_bytes=4), is_write
        )
    payloads = {
        request.txn_id: bytes(request.payload_bytes)
        for request in requests if request.is_write
    }
    return requests, payloads


class TestConverterEntryPoints:
    @pytest.mark.parametrize(
        "cls,method", ENTRY_POINTS,
        ids=[f"{cls.__name__}.{method}" for cls, method in ENTRY_POINTS],
    )
    def test_class_wrapper_sees_calls(self, cls, method, builder, monkeypatch):
        assert method in cls.__dict__, f"{cls.__name__} inherits {method}"
        original = cls.__dict__[method]
        calls = []

        def wrapper(self, *args):
            calls.append(self.name)
            return original(self, *args)

        monkeypatch.setattr(cls, method, wrapper)
        tb = make_testbench()
        requests, payloads = _every_converter_stream(tb, builder)
        tb.run(requests, write_payloads=payloads)
        assert calls

    @pytest.mark.parametrize("attr", sorted(CONVERTER_PIPES))
    def test_converter_runs_on_lane_pipes(self, attr):
        """``pipes`` names every lane pipe the converter owns, its index
        stage's included, and work in any of them keeps the converter
        ``busy``, is issued by its ``issue`` and goes on ``reset``, so no
        pipe misses the adapter's issue scan or the stream step's issue
        order; ``reads`` and ``writes`` are among them."""
        converter = getattr(make_testbench().adapter, attr)
        pipes = converter.pipes
        assert [type(pipe).__name__ for pipe in pipes] == CONVERTER_PIPES[attr]
        owned = [value for part in vars(converter).values()
                 for value in (part, *getattr(part, "__dict__", {}).values())
                 if isinstance(value, (LaneReadPipe, LaneWritePipe))]
        assert {id(pipe) for pipe in owned} == {id(pipe) for pipe in pipes}
        for name, kind in (("reads", LaneReadPipe), ("writes", LaneWritePipe)):
            pipe = getattr(converter, name, None)
            assert pipe is None or (isinstance(pipe, kind) and pipe in pipes)
        request = BusRequest(addr=0, is_write=False, num_elements=8,
                             elem_bytes=4, bus_bytes=32, contiguous=True)
        for pipe in pipes:
            batch = batch_contiguous(request, 4, 8)
            pipe._unissued.append([batch, 0, batch.num_slots])
            pipe._beats.append((batch, 0, request))
            assert converter.busy()
            fifos = [deque() for _ in range(8)]
            assert converter.issue(0xFF, fifos) == 0
            assert [tag[0] for fifo in fifos for tag in fifo] == [pipe] * 8
            converter.reset()
            assert not converter.busy() and not pipe._unissued


class TestIndexOracle:
    """``read_index_oracle``: functional index values for a poisoned line."""

    @staticmethod
    def _request(index_base, num_elements=8, index_bytes=2):
        return BusRequest(addr=0, is_write=False, num_elements=num_elements,
                          elem_bytes=4, bus_bytes=32,
                          pack=PackUserField.indirect(index_bytes, index_base))

    def test_reads_indices_from_backing_storage(self):
        storage = MemoryStorage(1 << 12)
        indices = np.arange(100, 108, dtype=np.uint16)
        storage.write_array(0x200, indices)
        values = read_index_oracle(storage, self._request(0x200))
        assert values.dtype == np.uint16
        assert values.tolist() == indices.tolist()

    def test_indices_past_the_storage_resolve_to_zero(self):
        storage = MemoryStorage(1 << 12)
        storage.write_array((1 << 12) - 6, np.array([7, 8, 9], dtype=np.uint16))
        values = read_index_oracle(storage, self._request((1 << 12) - 6))
        assert values.tolist() == [7, 8, 9, 0, 0, 0, 0, 0]


class TestIndexStage:
    def test_a_line_of_another_burst_raises(self):
        """The index pipe returns lines in burst order, so a line that is
        not the oldest owed burst's is a bookkeeping fault, never dropped."""
        memory = BankedMemory("mem", BankedMemoryConfig(), MemoryStorage(1 << 12))
        stage = IndexStage("stage", "controller.indirect_read", memory,
                           StatsRegistry())
        owed, other = (
            BusRequest(addr=0, is_write=False, num_elements=8, elem_bytes=4,
                       bus_bytes=32, pack=PackUserField.indirect(4, 0x400))
            for _ in range(2))
        stage.accept(owed)
        # Replace the owed burst's fetch by a returned line of ``other``.
        stage.pipe.reset()
        batch = batch_index_fetch(other, 32, 4, 8)
        stage.pipe.add_batch(other, batch)
        stage.pipe._unissued.clear()
        batch.beat_remaining[0] = 0
        with pytest.raises(SimulationError, match=f"line of txn {other.txn_id} "
                                                  "does not belong"):
            stage.extract_indices()


class TestAdapterConstruction:
    """The adapter refuses an AXI port that is not one memory word per
    word port wide."""

    @pytest.mark.parametrize(("port_bytes", "memory", "message"), [
        (64, BankedMemoryConfig(),
         "AXI port width 64B does not match the memory's 8 word ports of 4B"),
        (32, BankedMemoryConfig(word_bytes=8),
         "AXI port width 32B does not match the memory's 8 word ports of 8B"),
        (32, BankedMemoryConfig(num_ports=4),
         "AXI port width 32B does not match the memory's 4 word ports of 4B"),
    ], ids=["bus-width", "word-width", "word-ports"])
    def test_mismatch_rejected(self, port_bytes, memory, message):
        banked = BankedMemory("mem", memory, MemoryStorage(1 << 12))
        with pytest.raises(ProtocolError, match=message):
            AxiPackAdapter("adapter", AxiPort("port", port_bytes), banked)


#: The converter that serves a burst of each (mode, is_write).
ROUTES = {
    (PackMode.NONE, False): "base",
    (PackMode.NONE, True): "base",
    (PackMode.STRIDED, False): "strided_read",
    (PackMode.STRIDED, True): "strided_write",
    (PackMode.INDIRECT, False): "indirect_read",
    (PackMode.INDIRECT, True): "indirect_write",
}

#: A user field of each mode.
PACKS = {
    PackMode.NONE: PackUserField(),
    PackMode.STRIDED: PackUserField.strided(2),
    PackMode.INDIRECT: PackUserField.indirect(4, 0x400),
}


class TestRouting:
    """The adapter hands each burst to the converter its mode names, and
    refuses a burst on the other direction's address channel, as the IDEAL
    endpoint does."""

    @pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize("mode", list(PackMode), ids=lambda mode: mode.value)
    def test_burst_lands_on_its_converter_and_only_on_its_channel(
        self, mode, is_write
    ):
        def adapter_with(channel_of):
            port = AxiPort("port", 32)
            memory = BankedMemory("mem", BankedMemoryConfig(),
                                  MemoryStorage(1 << 12))
            adapter = AxiPackAdapter("adapter", port, memory)
            channel = channel_of(port)
            channel.push(BusRequest(
                addr=0, is_write=is_write, num_elements=8, elem_bytes=4,
                bus_bytes=32, contiguous=mode is PackMode.NONE,
                pack=PACKS[mode]))
            channel.commit()
            return adapter

        adapter = adapter_with(lambda port: port.aw if is_write else port.ar)
        adapter.tick(0)
        busy = [name for name in sorted(set(ROUTES.values()))
                if getattr(adapter, name).busy()]
        assert busy == [ROUTES[mode, is_write]]

        adapter = adapter_with(lambda port: port.ar if is_write else port.aw)
        direction, channel = ("write", "AR") if is_write else ("read", "AW")
        with pytest.raises(ProtocolError,
                           match=f"{direction} request arrived on the {channel} "
                                 "channel"):
            adapter.tick(0)


class TestWRouting:
    """The adapter's W routing decides which write burst each W beat
    belongs to: one ``(converter, burst record)`` entry per burst still
    owed data, in AW-acceptance order."""

    @staticmethod
    def _write(addr, elems, stride=None):
        pack = {} if stride is None else dict(pack=PackUserField.strided(stride))
        return BusRequest(addr=addr, is_write=True, num_elements=elems,
                          elem_bytes=4, bus_bytes=32,
                          contiguous=stride is None, **pack)

    def test_w_beats_fill_bursts_in_acceptance_order(self):
        """Each W beat goes to the oldest burst still owed data, whichever
        converter holds it; once every accepted burst has its beats, there
        is no one to take more, and the spare beat stays on the channel."""
        port = AxiPort("port", 32)
        storage = MemoryStorage(1 << 12)
        memory = BankedMemory("mem", BankedMemoryConfig(), storage)
        adapter = AxiPackAdapter("adapter", port, memory)
        requests = [
            self._write(0x000, 16, stride=2),  # two beats, strided converter
            self._write(0x400, 8),             # one beat, base converter
            self._write(0x800, 8, stride=2),   # one beat, strided converter
        ]
        for request in requests:
            port.aw.push(request)
        responses = []

        def run(cycles):
            for cycle in cycles:
                for queue in port.all_queues():
                    queue.commit()
                while port.b.can_pop():
                    responses.append(port.b.pop().txn_id)
                adapter.tick(cycle)
                memory.tick(cycle)

        run(range(3))  # one AW accepted per cycle
        assert [(converter, burst.request)
                for converter, burst in adapter._w_routing] == [
            (adapter.strided_write, requests[0]),
            (adapter.base, requests[1]),
            (adapter.strided_write, requests[2]),
        ]
        bursts = [burst for _, burst in adapter._w_routing]
        payloads = [bytes([beat + 1]) * 32 for beat in range(4)]
        for payload in payloads + [bytes(32)]:  # one beat too many
            port.w.push(WBeat(payload, 32, True))
        run(range(3, 40))
        assert [burst.w_beats_received for burst in bursts] == [2, 1, 1]
        assert not adapter._w_routing and len(port.w) == 1
        assert responses == [request.txn_id for request in requests]
        elements = storage.read_array(0x000, 32, np.uint32)[::2]
        assert elements.tobytes() == payloads[0] + payloads[1]
        assert storage.read_bytes(0x400, 32) == payloads[2]
        assert storage.read_array(0x800, 16, np.uint32)[::2].tobytes() == payloads[3]

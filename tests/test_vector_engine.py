"""Integration tests for the vector engine on all three system flavours."""

import types

import numpy as np
import pytest

import repro.system.soc as soc_module
import repro.vector.engine as engine_module
from repro.axi.port import AxiPort
from repro.axi.signals import RBeat
from repro.controller.testbench import ControllerTestbench
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.system.soc import build_system
from repro.vector.builder import AraProgramBuilder
from repro.vector.config import (
    REGISTER_GROUP_BYTES,
    LoweringMode,
    VectorEngineConfig,
    max_vl,
)
from repro.vector.engine import EngineResult, VectorEngine
from repro.workloads import make_workload


def run_program(kind, build_fn, init_fn=None, config=None):
    """Build a SoC, assemble a program against its mode, and run it."""
    config = config or SystemConfig(kind=kind, memory_bytes=1 << 20)
    config = config.with_kind(kind)
    soc = build_system(config)
    if init_fn is not None:
        init_fn(soc.storage)
    builder = AraProgramBuilder("test", config.lowering)
    build_fn(builder)
    cycles, result = soc.run_program(builder.build())
    return soc, cycles, result


ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


class TestFunctionalExecution:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_load_compute_store(self, kind):
        data = np.arange(32, dtype=np.float32)

        def init(storage):
            storage.write_array(0x100, data)

        def build(builder):
            builder.vle32("v1", 0x100, 32)
            builder.vfmul("v2", "v1", "v1", 32)
            builder.vse32("v2", 0x800, 32)

        soc, cycles, _ = run_program(kind, build, init)
        out = soc.storage.read_array(0x800, 32, np.float32)
        assert np.array_equal(out, data * data)
        assert cycles > 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strided_load_store(self, kind):
        data = np.arange(256, dtype=np.float32)

        def init(storage):
            storage.write_array(0, data)

        def build(builder):
            builder.vlse32("v1", 0, 16, stride_elems=8)
            builder.vsse32("v1", 0x4000, 16, stride_elems=3)

        soc, _, _ = run_program(kind, build, init)
        back = soc.storage.read_array(0x4000, 16 * 3, np.float32)[::3]
        assert np.array_equal(back, data[::8][:16])

    def test_in_memory_indexed_gather_on_pack(self):
        data = np.arange(512, dtype=np.float32)
        indices = np.asarray([5, 99, 0, 255, 17, 3, 400, 2], dtype=np.uint32)

        def init(storage):
            storage.write_array(0, data)
            storage.write_array(0x8000, indices)

        def build(builder):
            builder.vlimxei32("v1", 0, 0x8000, 8)
            builder.vse32("v1", 0xC000, 8)

        soc, _, result = run_program(SystemKind.PACK, build, init)
        out = soc.storage.read_array(0xC000, 8, np.float32)
        assert np.array_equal(out, data[indices])
        # No index traffic crosses the bus with in-memory indexing.
        assert result.r_index_bytes == 0

    def test_register_indexed_gather_on_base(self):
        data = np.arange(512, dtype=np.float32)
        indices = np.asarray([7, 1, 300, 2], dtype=np.uint32)

        def init(storage):
            storage.write_array(0, data)
            storage.write_array(0x8000, indices)

        def build(builder):
            builder.vle32("v9", 0x8000, 4, kind="index", dtype="uint32")
            builder.vluxei32("v1", 0, "v9", 4, index_base=0x8000)
            builder.vse32("v1", 0xC000, 4)

        soc, _, result = run_program(SystemKind.BASE, build, init)
        out = soc.storage.read_array(0xC000, 4, np.float32)
        assert np.array_equal(out, data[indices])
        # The index fetch is visible as index traffic on the R channel.
        assert result.r_index_bytes == 16

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_reduction(self, kind):
        data = np.arange(64, dtype=np.float32)

        def init(storage):
            storage.write_array(0, data)

        def build(builder):
            builder.vle32("v1", 0, 64)
            builder.vfredsum("v2", "v1", 64)
            builder.vse32("v2", 0x1000, 1)

        soc, _, _ = run_program(kind, build, init)
        out = soc.storage.read_array(0x1000, 1, np.float32)[0]
        assert out == pytest.approx(float(np.sum(data)), rel=1e-5)


class TestTimingBehaviour:
    def _strided_kernel(self, kind, elems=256, stride=5):
        def init(storage):
            storage.write_array(0, np.zeros(elems * stride + 8, dtype=np.float32))

        def build(builder):
            builder.vlse32("v1", 0, elems, stride_elems=stride)

        return run_program(kind, build, init)

    def test_pack_much_faster_than_base_on_strided(self):
        _, base_cycles, base_result = self._strided_kernel(SystemKind.BASE)
        _, pack_cycles, pack_result = self._strided_kernel(SystemKind.PACK)
        assert pack_cycles * 3 < base_cycles
        assert pack_result.r_utilization > 3 * base_result.r_utilization

    def test_ideal_at_least_as_fast_as_pack_on_strided(self):
        _, pack_cycles, _ = self._strided_kernel(SystemKind.PACK)
        _, ideal_cycles, _ = self._strided_kernel(SystemKind.IDEAL)
        assert ideal_cycles <= pack_cycles * 1.1

    def test_contiguous_loads_similar_on_base_and_pack(self):
        def init(storage):
            storage.write_array(0, np.zeros(1024, dtype=np.float32))

        def build(builder):
            builder.vle32("v1", 0, 1024)

        _, base_cycles, _ = run_program(SystemKind.BASE, build, init)
        _, pack_cycles, _ = run_program(SystemKind.PACK, build, init)
        assert abs(base_cycles - pack_cycles) / base_cycles < 0.05

    def test_chaining_overlaps_compute_with_loads(self):
        """With chaining, compute time hides behind the second load."""
        def init(storage):
            storage.write_array(0, np.zeros(2048, dtype=np.float32))

        def build_with_compute(builder):
            builder.vle32("v1", 0, 512)
            builder.vfmul("v3", "v1", "v1", 512)
            builder.vle32("v2", 4096, 512)
            builder.vfmul("v4", "v2", "v2", 512)

        def build_loads_only(builder):
            builder.vle32("v1", 0, 512)
            builder.vle32("v2", 4096, 512)

        _, with_compute, _ = run_program(SystemKind.PACK, build_with_compute, init)
        _, loads_only, _ = run_program(SystemKind.PACK, build_loads_only, init)
        # The chained multiplies should add only a small tail.
        assert with_compute < loads_only + 40

    def test_ordered_store_fences_later_loads(self):
        def init(storage):
            storage.write_array(0, np.zeros(4096, dtype=np.float32))

        def build_fenced(builder):
            builder.vle32("v1", 0, 256)
            builder.vse32("v1", 0x2000, 256, ordered=True)
            builder.vle32("v2", 0x4000, 256)

        def build_unfenced(builder):
            builder.vle32("v1", 0, 256)
            builder.vse32("v1", 0x2000, 256)
            builder.vle32("v2", 0x4000, 256)

        _, fenced, _ = run_program(SystemKind.PACK, build_fenced, init)
        _, unfenced, _ = run_program(SystemKind.PACK, build_unfenced, init)
        assert fenced > unfenced

    def test_scalar_work_costs_cycles(self):
        def init(storage):
            storage.write_array(0, np.zeros(64, dtype=np.float32))

        def build_with_scalar(builder):
            for _ in range(20):
                builder.scalar(10)
            builder.vle32("v1", 0, 8)

        def build_without_scalar(builder):
            builder.vle32("v1", 0, 8)

        _, slow, _ = run_program(SystemKind.PACK, build_with_scalar, init)
        _, fast, _ = run_program(SystemKind.PACK, build_without_scalar, init)
        assert slow >= fast + 190


def _gated_dispatch_run(monkeypatch, event_driven, gated=True):
    """Run a program whose memory ops block on the outstanding-load limit
    and on a fence, with ``MAX_OUTSTANDING_LOADS`` lowered to 1.

    Returns ``(cycles, calls, retired)``: every ``_try_dispatch_memory``
    call as ``(op id, cycle, dispatched)`` and the cycle of every load or
    store retirement.  ``gated=False`` clears the blocked flag before each
    dispatch, so a blocked op retries on every tick, as it would without
    the gate.
    """
    calls, retired = [], []

    class Probe(VectorEngine):
        def _dispatch(self, cycle):
            if not gated:
                self._dispatch_blocked = False
            return super()._dispatch(cycle)

        def _try_dispatch_memory(self, op, cycle):
            dispatched = super()._try_dispatch_memory(op, cycle)
            calls.append((op.op_id, cycle, dispatched))
            return dispatched

        def _finish_load(self, state, cycle):
            super()._finish_load(state, cycle)
            retired.append(cycle)

        def _consume_b(self, cycle):
            before = len(self._active_stores)
            super()._consume_b(cycle)
            if len(self._active_stores) < before:
                retired.append(cycle)

    monkeypatch.setattr(soc_module, "VectorEngine", Probe)
    monkeypatch.setattr(engine_module, "MAX_OUTSTANDING_LOADS", 1)
    config = SystemConfig(kind=SystemKind.PACK, memory_bytes=1 << 20)
    soc = build_system(config)
    soc.storage.write_array(0, np.arange(4096, dtype=np.float32))
    builder = AraProgramBuilder("gate", config.lowering)
    builder.vle32("v1", 0x0, 256)
    builder.vle32("v2", 0x1000, 64)  # waits for the first load to retire
    builder.vse32("v1", 0x8000, 256)
    builder.vse32("v1", 0xA000, 64)
    builder.vse32("v2", 0x9000, 64, ordered=True)  # waits for both stores
    builder.vle32("v3", 0x2000, 64)
    cycles, _ = soc.run_program(builder.build(), event_driven=event_driven)
    return cycles, calls, retired


class TestDispatchGate:
    """A memory op that fails to dispatch retries only when an op retires."""

    def test_blocked_ops_dispatch_on_the_same_cycle(self, monkeypatch):
        """Gated and retry-every-tick dispatch agree cycle for cycle under
        both engines, for an op blocked by the limit and one by a fence."""
        runs = {
            (event_driven, gated): _gated_dispatch_run(
                monkeypatch, event_driven, gated)
            for event_driven in (True, False) for gated in (True, False)
        }
        outcomes = {
            key: (cycles, [call for call in calls if call[2]])
            for key, (cycles, calls, _) in runs.items()
        }
        assert len(set(map(repr, outcomes.values()))) == 1
        blocked = {op for op, _, dispatched in runs[True, True][1]
                   if not dispatched}
        assert blocked == {1, 4}  # the second load and the ordered store

    @pytest.mark.parametrize("event_driven", [True, False])
    def test_blocked_op_retries_once_per_retirement(self, monkeypatch,
                                                    event_driven):
        _, calls, retired = _gated_dispatch_run(monkeypatch, event_driven)
        assert len(calls) == 9  # six dispatches and three failed attempts
        for op in {op for op, _, dispatched in calls if not dispatched}:
            cycles = [cycle for op_id, cycle, _ in calls if op_id == op]
            first, dispatched_at = cycles[0], cycles[-1]
            # One retry per retirement while blocked, and no other.
            assert cycles[1:] == sorted(
                {cycle for cycle in retired if first < cycle <= dispatched_at})


class TestResultAccounting:
    def test_utilization_accounting_matches_beats(self):
        def init(storage):
            storage.write_array(0, np.zeros(2048, dtype=np.float32))

        def build(builder):
            builder.vle32("v1", 0, 1024)

        _, cycles, result = run_program(SystemKind.PACK, build, init)
        assert result.r_beats == 128
        assert result.r_useful_bytes == 4096
        assert 0 < result.r_utilization <= 1.0
        assert result.r_utilization == pytest.approx(4096 / (32 * cycles))
        assert result.instructions == 1

    def test_zero_cycles_give_zero_utilization(self):
        empty = EngineResult(cycles=0, instructions=0, r_beats=0,
                             r_useful_bytes=0, r_data_bytes=0, r_index_bytes=0,
                             w_beats=0, w_useful_bytes=0, bus_bytes=32)
        assert empty.r_utilization == 0.0
        assert empty.r_utilization_no_index == 0.0
        assert empty.w_utilization == 0.0
        tb_result = ControllerTestbench().run([])
        assert (tb_result.cycles, tb_result.r_utilization) == (0, 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_spmv_splits_index_from_data_bytes(self, kind):
        """Fig. 3a's two IDEAL utilizations rest on this split: BASE and
        IDEAL fetch the column indices over the R bus, PACK's ``vlimxei``
        leaves them in memory."""
        workload = make_workload("spmv", size=16, avg_nnz_per_row=4.0)
        nnz = workload.matrix.nnz
        result = run_workload(workload, kind=kind).engine
        assert result.r_index_bytes == (0 if kind is SystemKind.PACK else 4 * nnz)
        assert result.r_data_bytes == 8 * nnz  # the values and the gathered x
        assert result.r_data_bytes + result.r_index_bytes == result.r_useful_bytes


def _bare_engine(build_fn):
    """A PACK vector engine on a 32-byte port of its own, ticked by hand."""
    builder = AraProgramBuilder("bare", LoweringMode.PACK)
    build_fn(builder)
    port = AxiPort("bare", 32)
    return VectorEngine("ara", builder.build(), port), port


def _tick(engine, port, cycle):
    engine.tick(cycle)
    for queue in port.all_queues():
        queue.commit()


class TestBeatRangeCheck:
    """A beat that claims more payload than the bus carries is a simulator
    fault, never a utilization above 1."""

    def test_oversized_r_beat_raises(self):
        engine, port = _bare_engine(lambda builder: builder.vle32("v1", 0, 8))
        cycle = 0
        while not port.ar.can_pop() and cycle < 16:
            _tick(engine, port, cycle)
            cycle += 1
        request = port.ar.pop()
        port.r.push(RBeat(request.txn_id, bytes(33), 33, True))
        port.r.commit()
        with pytest.raises(SimulationError,
                           match="R beat of 33 useful bytes on a 32-byte bus"):
            engine.tick(cycle)
        assert engine.r_beats == 0

    def test_oversized_w_beat_raises(self):
        def build(builder):
            builder.vmv_vx("v1", 1.0, 8)
            builder.vse32("v1", 0, 8)

        engine, port = _bare_engine(build)
        cycle = 0
        while not engine._w_backlog and cycle < 64:
            _tick(engine, port, cycle)
            cycle += 1
        store, position, beat = engine._w_backlog[0]
        engine._w_backlog[0] = (store, position, beat._replace(useful_bytes=33))
        with pytest.raises(SimulationError,
                           match="W beat of 33 useful bytes on a 32-byte bus"):
            for cycle in range(cycle, cycle + 64):
                _tick(engine, port, cycle)
        assert engine.w_beats == 0


class TestLoweringErrors:
    """Ops the builder would refuse still fail cleanly when lowered."""

    @staticmethod
    def _run_on_base(program):
        soc = build_system(SystemConfig(kind=SystemKind.BASE,
                                        memory_bytes=1 << 20))
        return soc.run_program(program)

    def test_in_memory_indices_without_axi_pack(self):
        builder = AraProgramBuilder("test", LoweringMode.PACK)
        builder.vlimxei32("v1", 0, 0x8000, 8)
        builder.vse32("v1", 0xC000, 8)
        program = builder.build()
        program.mode = LoweringMode.BASE
        with pytest.raises(WorkloadError, match="without AXI-Pack"):
            self._run_on_base(program)

    def test_register_indexed_access_without_index_register(self):
        builder = AraProgramBuilder("test", LoweringMode.BASE)
        builder.vle32("v9", 0x8000, 4, kind="index", dtype="uint32")
        builder.vluxei32("v1", 0, "v9", 4, index_base=0x8000)
        builder.vse32("v1", 0xC000, 4)
        program = builder.build()
        program.ops[1].index_values_reg = None
        with pytest.raises(WorkloadError, match="without an index register"):
            self._run_on_base(program)

    def test_unknown_stream_type(self):
        builder = AraProgramBuilder("test", LoweringMode.BASE)
        builder.vle32("v1", 0, 8)
        builder.vse32("v1", 0xC000, 8)
        program = builder.build()
        program.ops[0].stream = types.SimpleNamespace(
            base=0, num_elements=8, elem_bytes=4, total_bytes=32)
        with pytest.raises(WorkloadError, match="cannot lower stream of type"):
            self._run_on_base(program)


class TestVectorConfig:
    @pytest.mark.parametrize("lanes", [0, 3])
    def test_lane_count_must_be_a_power_of_two(self, lanes):
        with pytest.raises(ConfigurationError):
            VectorEngineConfig(lanes=lanes)

    def test_register_group_bounds_vector_length(self):
        # 4096-bit registers grouped by LMUL 8 hold 4 KiB.
        assert REGISTER_GROUP_BYTES == 4096
        assert [max_vl(size) for size in (1, 2, 4, 8)] == [4096, 2048,
                                                           1024, 512]

    def test_compute_throughput_follows_the_lane_count(self):
        """Half the lanes (a 128-bit system) run a long compute chain at
        half the element rate."""
        def build(builder):
            builder.vmv_vx("v1", 1.0, 1024)
            for _ in range(4):
                builder.vfadd("v1", "v1", "v1", 1024)

        cycles = {}
        for bus_bytes in (32, 16):
            config = SystemConfig(kind=SystemKind.PACK, bus_bytes=bus_bytes,
                                  memory_bytes=1 << 20)
            assert config.vector_config().lanes == bus_bytes // 4
            _, cycles[bus_bytes], _ = run_program(SystemKind.PACK, build,
                                                  config=config)
        # Five ops of 1024 elements: 128 cycles each on 8 lanes, 256 on 4.
        assert cycles[16] - cycles[32] >= 5 * 128

    def test_min_sub_and_min_reduction_compute_real_values(self):
        a = np.linspace(-4, 4, 64, dtype=np.float32)
        b = a[::-1].copy()

        def init(storage):
            storage.write_array(0x0, a)
            storage.write_array(0x1000, b)

        def build(builder):
            builder.vle32("va", 0x0, 64)
            builder.vle32("vb", 0x1000, 64)
            builder.vfsub("vd", "va", "vb", 64)
            builder.vfmin("vm", "va", "vb", 64)
            builder.vfredmin("vr", "vd", 64)

        soc, _, _ = run_program(SystemKind.PACK, build, init)
        regs = soc.last_engines[0].regfile._vector
        assert np.array_equal(regs["vd"], a - b)
        assert np.array_equal(regs["vm"], np.minimum(a, b))
        assert regs["vr"].tolist() == [float(np.min(a - b))]

"""Tests for the multi-requestor topology: cycle-level mux/demux components,
multi-engine SoC assembly, the sharded workload driver, and the single-`Soc`
reuse fixes (per-run stats/queue reset)."""

import pytest

from repro.axi.interconnect import InterleavedAddressMap
from repro.axi.mux import CycleAxiDemux, CycleAxiMux
from repro.axi.port import AxiPort
from repro.axi.signals import RBeat, WBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.errors import ConfigurationError, ProtocolError, WorkloadError
from repro.sim.engine import Engine
from repro.sim.queue import DecoupledQueue
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.system.soc import build_system
from repro.vector.engine import EngineResult
from repro.workloads import make_workload
from repro.workloads.base import shard_ranges

BUS = 32

ALL_WORKLOADS = ("ismt", "gemv", "trmv", "spmv", "prank", "sssp", "csrspmv")
ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


def read_burst(addr, elems=8, bus=BUS):
    return BusRequest(addr=addr, is_write=False, num_elements=elems,
                      elem_bytes=4, bus_bytes=bus, contiguous=True)


def write_burst(addr, elems=8, bus=BUS):
    return BusRequest(addr=addr, is_write=True, num_elements=elems,
                      elem_bytes=4, bus_bytes=bus, contiguous=True)


def make_mux(n=2, arbitration="rr", r_depth=None):
    """A mux with registered queues and a naive engine driving it.

    ``r_depth`` swaps in shallower R queues on the requestor-side ports
    only; the downstream port keeps its depths so endpoint-side pushes
    never overflow.
    """
    ups = [AxiPort(f"u{i}", BUS) for i in range(n)]
    if r_depth is not None:
        for port in ups:
            port.r = DecoupledQueue(f"{port.name}.R", r_depth)
    down = AxiPort("down", BUS)
    mux = CycleAxiMux("mux", ups, down, arbitration=arbitration)
    engine = Engine(event_driven=False)
    engine.add_component(mux)
    for port in (*ups, down):
        for queue in port.all_queues():
            engine.add_queue(queue)
    return ups, down, mux, engine


class TestCycleAxiMux:
    def test_construction_checks(self):
        down = AxiPort("d", BUS)
        with pytest.raises(ConfigurationError):
            CycleAxiMux("m", [], down)
        with pytest.raises(ConfigurationError):
            CycleAxiMux("m", [AxiPort("u", BUS)], down, arbitration="lottery")
        with pytest.raises(ProtocolError):
            CycleAxiMux("m", [AxiPort("u", 16)], down)

    def test_round_robin_alternates_between_requestors(self):
        ups, down, mux, engine = make_mux(2)
        for _ in range(2):
            ups[0].ar.push(read_burst(0x100))
        ups[1].ar.push(read_burst(0x200))
        order = []
        for _ in range(8):
            engine.step()
            while down.ar.can_pop():
                order.append(down.ar.pop().addr)
        # One AR per cycle; rr picks u0, then u1, then u0's second burst.
        assert order == [0x100, 0x200, 0x100]
        assert mux.ar_grants == [2, 1]

    def test_qos_priority_drains_port0_first(self):
        ups, down, mux, engine = make_mux(2, arbitration="qos")
        for _ in range(2):
            ups[0].ar.push(read_burst(0x100))
            ups[1].ar.push(read_burst(0x200))
        order = []
        for _ in range(8):
            engine.step()
            while down.ar.can_pop():
                order.append(down.ar.pop().addr)
        assert order == [0x100, 0x100, 0x200, 0x200]

    def test_r_beats_route_back_by_txn_id(self):
        ups, down, mux, engine = make_mux(2)
        first = read_burst(0x100, elems=16)  # 2 beats
        second = read_burst(0x200, elems=8)  # 1 beat
        ups[0].ar.push(first)
        ups[1].ar.push(second)
        engine.step(4)  # both ARs forwarded downstream
        # The endpoint answers out of order, interleaving the two bursts.
        down.r.push(RBeat(txn_id=second.txn_id, data=b"", useful_bytes=BUS,
                          last=True))
        down.r.push(RBeat(txn_id=first.txn_id, data=b"", useful_bytes=BUS,
                          last=False))
        down.r.push(RBeat(txn_id=first.txn_id, data=b"", useful_bytes=BUS,
                          last=True))
        engine.step(6)
        assert [ups[1].r.pop().txn_id] == [second.txn_id]
        assert [ups[0].r.pop().txn_id, ups[0].r.pop().txn_id] == [
            first.txn_id, first.txn_id,
        ]
        assert not mux.busy()  # owner maps drained after the last beats

    def test_w_beats_follow_aw_acceptance_order(self):
        ups, down, mux, engine = make_mux(2)
        first = write_burst(0x100, elems=16)  # 2 beats
        second = write_burst(0x200, elems=8)  # 1 beat
        ups[0].aw.push(first)
        ups[1].aw.push(second)
        # Both requestors present their W data immediately.
        for beat in range(2):
            ups[0].w.push(WBeat(data=b"", useful_bytes=BUS, last=beat == 1))
        ups[1].w.push(WBeat(data=b"", useful_bytes=BUS, last=True))
        engine.step(8)
        # Downstream W order interleaves nothing: u0's burst (accepted first)
        # is complete before u1's single beat.
        assert down.w.occupancy == 3
        lasts = [down.w.pop().last for _ in range(3)]
        assert lasts == [False, True, True]

    def test_full_requestor_r_queue_blocks_shared_channel(self):
        ups, down, mux, engine = make_mux(2, r_depth=1)
        first = read_burst(0x100, elems=16)  # 2 beats
        second = read_burst(0x200)
        ups[0].ar.push(first)
        ups[1].ar.push(second)
        engine.step(4)
        down.r.push(RBeat(txn_id=first.txn_id, data=b"", useful_bytes=BUS,
                          last=False))
        down.r.push(RBeat(txn_id=first.txn_id, data=b"", useful_bytes=BUS,
                          last=True))
        down.r.push(RBeat(txn_id=second.txn_id, data=b"", useful_bytes=BUS,
                          last=True))
        engine.step(4)
        # u0's first beat fills its depth-1 R queue and is never popped; its
        # second beat stalls at the head of the shared channel, and u1's beat
        # queued behind it is blocked even though u1 has room.
        assert ups[0].r.occupancy == 1
        assert ups[1].r.occupancy == 0
        assert down.r.occupancy == 2
        ups[0].r.pop()
        engine.step(3)
        ups[0].r.pop()
        engine.step(3)
        assert ups[1].r.pop().txn_id == second.txn_id

    def test_unknown_txn_id_rejected(self):
        ups, down, mux, engine = make_mux(2)
        down.r.push(RBeat(txn_id=12345, data=b"", useful_bytes=BUS, last=True))
        with pytest.raises(ProtocolError):
            engine.step(3)


class TestCycleAxiDemux:
    def make_demux(self):
        up = AxiPort("up", BUS)
        downs = [AxiPort("d0", BUS), AxiPort("d1", BUS)]
        address_map = InterleavedAddressMap(num_targets=2, stripe_bytes=0x800,
                                            size_bytes=0x1000)
        demux = CycleAxiDemux("demux", up, downs, address_map)
        engine = Engine(event_driven=False)
        engine.add_component(demux)
        for port in (up, *downs):
            for queue in port.all_queues():
                engine.add_queue(queue)
        return up, downs, demux, engine

    def test_routes_by_address(self):
        up, downs, demux, engine = self.make_demux()
        up.ar.push(read_burst(0x0100))
        up.ar.push(read_burst(0x0900))
        engine.step(4)
        assert downs[0].ar.pop().addr == 0x0100
        assert downs[1].ar.pop().addr == 0x0900
        assert demux.routed_counts == [1, 1]

    def test_unmapped_address_decerr(self):
        up, downs, demux, engine = self.make_demux()
        request = read_burst(0x9000)
        up.ar.push(request)
        engine.step(6)
        beats = []
        while up.r.can_pop():
            beats.append(up.r.pop())
        assert len(beats) == request.num_beats
        assert all(b.resp is Resp.DECERR for b in beats)
        assert beats[-1].last

    def test_return_beats_merge_round_robin(self):
        up, downs, demux, engine = self.make_demux()
        first = read_burst(0x0100)
        second = read_burst(0x0900)
        up.ar.push(first)
        up.ar.push(second)
        engine.step(4)
        downs[0].ar.pop(), downs[1].ar.pop()
        downs[0].r.push(RBeat(txn_id=first.txn_id, data=b"", useful_bytes=BUS,
                              last=True))
        downs[1].r.push(RBeat(txn_id=second.txn_id, data=b"", useful_bytes=BUS,
                              last=True))
        engine.step(5)
        merged = {up.r.pop().txn_id, up.r.pop().txn_id}
        assert merged == {first.txn_id, second.txn_id}

    def test_w_beats_follow_aw_target(self):
        up, downs, demux, engine = self.make_demux()
        up.aw.push(write_burst(0x0900))
        up.w.push(WBeat(data=b"", useful_bytes=BUS, last=True))
        engine.step(5)
        assert downs[1].aw.occupancy == 1
        assert downs[1].w.occupancy == 1
        assert downs[0].w.occupancy == 0


class TestShardRanges:
    def test_balanced_contiguous(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_more_shards_than_rows(self):
        bounds = shard_ranges(2, 4)
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_invalid_shard_count(self):
        with pytest.raises(WorkloadError):
            shard_ranges(4, 0)


def _config(kind, engines=1, **kwargs):
    return SystemConfig(memory_bytes=1 << 20, num_engines=engines,
                        **kwargs).with_kind(kind)


class TestMultiEngineSoc:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sharded_run_verifies(self, workload, kind):
        result = run_workload(make_workload(workload, size=20),
                              _config(kind, engines=2))
        assert result.verified is True
        assert result.engines is not None and len(result.engines) == 2
        assert result.num_engines == 2
        # The aggregate is the sum of the per-engine traffic.
        assert result.engine.r_beats == sum(e.r_beats for e in result.engines)
        assert result.engine.instructions == sum(
            e.instructions for e in result.engines
        )

    def test_more_engines_than_rows_still_verifies(self):
        result = run_workload(make_workload("gemv", size=4),
                              _config(SystemKind.PACK, engines=6))
        assert result.verified is True
        assert len(result.engines) == 6

    def test_contention_speedup_on_underutilized_bus(self):
        one = run_workload(make_workload("spmv", size=24),
                           _config(SystemKind.PACK))
        two = run_workload(make_workload("spmv", size=24),
                           _config(SystemKind.PACK, engines=2))
        # spmv leaves most R-bus cycles idle (paper: ~39% ceiling), so a
        # second engine interleaves almost for free.
        assert two.cycles < one.cycles
        assert two.r_utilization > one.r_utilization

    def test_qos_arbitration_runs_and_verifies(self):
        result = run_workload(make_workload("spmv", size=20),
                              _config(SystemKind.PACK, engines=2,
                                      arbitration="qos"))
        assert result.verified is True
        assert result.stats.get("mux.ar_grants", 0) > 0

    def test_single_engine_list_form_bit_identical(self):
        from repro.axi.transaction import reset_txn_ids

        runs = []
        for list_form in (False, True):
            reset_txn_ids()
            workload = make_workload("spmv", size=20)
            config = _config(SystemKind.PACK)
            soc = build_system(config)
            workload.initialize(soc.storage)
            program = workload.build_program(config.lowering,
                                             config.vector_config())
            if list_form:
                cycles, results = soc.run_programs([program])
                result = results[0]
            else:
                cycles, result = soc.run_program(program)
            runs.append((cycles, soc.stats.as_dict(), result))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("engines", [2, 3])
    def test_event_naive_and_policy_parity(self, engines):
        from repro.axi.transaction import reset_txn_ids

        def run(event):
            reset_txn_ids()
            workload = make_workload("csrspmv", size=16)
            config = _config(SystemKind.PACK, engines=engines)
            soc = build_system(config)
            workload.initialize(soc.storage)
            programs = workload.build_sharded_programs(
                config.lowering, config.vector_config(), engines
            )
            cycles, results = soc.run_programs(programs, event_driven=event)
            return cycles, soc.stats.as_dict(), results

        assert run(True) == run(False)

    def test_wrong_program_count_rejected(self):
        config = _config(SystemKind.PACK, engines=2)
        soc = build_system(config)
        workload = make_workload("gemv", size=8)
        workload.initialize(soc.storage)
        program = workload.build_program(config.lowering, config.vector_config())
        with pytest.raises(ConfigurationError):
            soc.run_program(program)  # a 2-engine SoC needs 2 programs
        with pytest.raises(ConfigurationError):
            soc.run_programs([program])

    def test_invalid_topology_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_engines=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(arbitration="lottery")

    def test_unsharded_workload_rejected(self):
        from repro.workloads.base import Workload

        class Opaque(Workload):
            name = "opaque"

            def initialize(self, storage):
                pass

            def build_program(self, mode, config):
                raise NotImplementedError

            def verify(self, storage):
                return True

        with pytest.raises(WorkloadError):
            config = _config(SystemKind.PACK, engines=2)
            Opaque().build_sharded_programs(
                config.lowering, config.vector_config(), 2
            )


class TestSocReuse:
    """Regression tests for the single-``Soc`` reuse bugs: stats accumulated
    across runs and stale queue state survived into the next run."""

    @pytest.mark.parametrize("engines", [1, 2])
    def test_back_to_back_runs_identical(self, engines):
        workload = make_workload("spmv", size=16)
        config = _config(SystemKind.PACK, engines=engines)
        soc = build_system(config)
        workload.initialize(soc.storage)
        programs = workload.build_sharded_programs(
            config.lowering, config.vector_config(), engines
        )
        first = (*soc.run_programs(programs),)
        first_stats = soc.stats.as_dict()
        second = (*soc.run_programs(programs),)
        second_stats = soc.stats.as_dict()
        assert first[0] == second[0]          # cycles
        assert first[1] == second[1]          # per-engine results
        assert first_stats == second_stats    # no cross-run accumulation
        assert first_stats["adapter.r_beats"] > 0

    def test_reuse_recovers_from_aborted_run(self):
        from repro.errors import SimulationError

        workload = make_workload("gemv", size=16)
        config = _config(SystemKind.PACK)
        soc = build_system(config)
        workload.initialize(soc.storage)
        program = workload.build_program(config.lowering, config.vector_config())
        with pytest.raises(SimulationError):
            soc.run_program(program, max_cycles=10)  # aborts mid-flight
        cycles, _ = soc.run_program(program)  # queues reset, run completes
        assert cycles > 10
        assert workload.verify(soc.storage)

    def test_run_result_not_polluted_by_previous_program(self):
        """Two different programs on one Soc: the second run's stats match a
        fresh SoC's run of the same program."""
        config = _config(SystemKind.PACK)
        shared = build_system(config)
        first = make_workload("gemv", size=16)
        first.initialize(shared.storage)
        shared.run_program(first.build_program(config.lowering,
                                               config.vector_config()))
        second = make_workload("spmv", size=16)
        second.initialize(shared.storage)
        reused = shared.run_program(
            second.build_program(config.lowering, config.vector_config())
        )
        reused_stats = shared.stats.as_dict()

        fresh_soc = build_system(config)
        fresh_workload = make_workload("spmv", size=16)
        fresh_workload.initialize(fresh_soc.storage)
        fresh = fresh_soc.run_program(
            fresh_workload.build_program(config.lowering, config.vector_config())
        )
        assert reused[0] == fresh[0]
        assert reused[1] == fresh[1]
        # Counters that existed only in the first workload's run stay zeroed.
        fresh_stats = {k: v for k, v in reused_stats.items() if v != 0.0}
        assert fresh_stats == {
            k: v for k, v in fresh_soc.stats.as_dict().items() if v != 0.0
        }


class TestEngineResultAggregate:
    def test_sums_traffic_keeps_shared_cycles(self):
        a = EngineResult(cycles=10, instructions=2, r_beats=3,
                         r_useful_bytes=96, r_data_bytes=64, r_index_bytes=32,
                         w_beats=1, w_useful_bytes=32, bus_bytes=32)
        b = EngineResult(cycles=10, instructions=4, r_beats=5,
                         r_useful_bytes=160, r_data_bytes=160, r_index_bytes=0,
                         w_beats=0, w_useful_bytes=0, bus_bytes=32)
        total = EngineResult.aggregate([a, b], cycles=20)
        assert total.cycles == 20
        assert total.instructions == 6
        assert total.r_beats == 8
        assert total.r_useful_bytes == 256
        assert total.bus_bytes == 32
        assert total.r_utilization == 256 / (32 * 20)

    def test_empty_aggregate_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            EngineResult.aggregate([], cycles=1)


class TestOrchestrationIntegration:
    def test_runspec_fingerprint_names_topology(self):
        from repro.orchestrate.spec import RunSpec, WorkloadSpec

        workload = WorkloadSpec.create("spmv", size=16)
        one = RunSpec(workload=workload, config=_config(SystemKind.PACK))
        two = RunSpec(workload=workload,
                      config=_config(SystemKind.PACK, engines=2))
        qos = RunSpec(workload=workload,
                      config=_config(SystemKind.PACK, engines=2,
                                     arbitration="qos"))
        keys = {one.cache_key(), two.cache_key(), qos.cache_key()}
        assert len(keys) == 3  # engines and arbitration are part of the key

    def test_multi_engine_result_roundtrips_through_cache_json(self):
        from repro.orchestrate.serialize import (
            system_run_result_from_dict,
            system_run_result_to_dict,
        )

        result = run_workload(make_workload("gemv", size=8),
                              _config(SystemKind.PACK, engines=2))
        data = system_run_result_to_dict(result)
        back = system_run_result_from_dict(data)
        assert back == result

    def test_contention_experiment_tiny(self):
        from repro.analysis.experiments import run_experiment

        table = run_experiment("contention", scale="tiny",
                               workloads=("spmv",), engines=(1, 2))
        rows = table.to_dicts()
        assert {row["engines"] for row in rows} == {1, 2}
        assert all(row["verified"] for row in rows)
        by_point = {(row["system"], row["engines"]): row for row in rows}
        # The 1-engine rows are their own speedup baseline.
        assert by_point[("base", 1)]["speedup"] == 1.0
        assert by_point[("pack", 2)]["speedup"] > 1.0

"""Tests for the M×N crossbar topology: stripe-interleaved address decode,
the demux's same-target AW gate, multi-channel SoC assembly, per-channel
statistics, and end-to-end verified workloads across the topology grid."""

import pytest

from repro.axi.interconnect import InterleavedAddressMap
from repro.axi.mux import CycleAxiDemux
from repro.axi.port import AxiPort
from repro.axi.signals import WBeat
from repro.axi.transaction import BusRequest
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.system.config import SystemConfig, SystemKind
from repro.system.runner import run_workload
from repro.system.soc import build_system
from repro.workloads import make_workload

BUS = 32

ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


def small_config(kind=SystemKind.PACK, engines=1, channels=1, **kwargs):
    config = SystemConfig(memory_bytes=1 << 20, **kwargs).with_kind(kind)
    return config.with_engines(engines).with_channels(channels)


class TestInterleavedAddressMap:
    def test_stripes_rotate_across_targets(self):
        amap = InterleavedAddressMap(num_targets=4, stripe_bytes=1024,
                                     size_bytes=1 << 20)
        assert [amap.try_route(i * 1024) for i in range(6)] == [0, 1, 2, 3, 0, 1]
        assert amap.try_route(1023) == 0
        assert amap.try_route(1024) == 1
        assert amap.num_targets == 4

    def test_out_of_range_is_decerr(self):
        amap = InterleavedAddressMap(num_targets=2, stripe_bytes=64,
                                     size_bytes=4096)
        assert amap.try_route(4096) == -1
        assert amap.try_route(-1) == -1

    def test_construction_checks(self):
        with pytest.raises(ConfigurationError):
            InterleavedAddressMap(num_targets=0, stripe_bytes=64,
                                  size_bytes=4096)
        with pytest.raises(ConfigurationError):
            InterleavedAddressMap(num_targets=2, stripe_bytes=96,
                                  size_bytes=4096)
        with pytest.raises(ConfigurationError):
            InterleavedAddressMap(num_targets=4, stripe_bytes=2048,
                                  size_bytes=4096)


class TestConfigChannels:
    def test_defaults_single_channel(self):
        config = SystemConfig()
        assert config.num_channels == 1
        assert config.channel_stripe_bytes == 1024

    def test_with_channels_copies(self):
        config = SystemConfig()
        other = config.with_channels(4, stripe_bytes=256)
        assert other.num_channels == 4
        assert other.channel_stripe_bytes == 256
        assert config.num_channels == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_channels=0)
        with pytest.raises(ConfigurationError):
            SystemConfig(channel_stripe_bytes=96)
        with pytest.raises(ConfigurationError):
            SystemConfig(channel_stripe_bytes=16)  # narrower than the bus
        with pytest.raises(ConfigurationError):
            SystemConfig(num_channels=4, memory_bytes=2048)

    def test_channel_address_map_matches_config(self):
        config = SystemConfig(num_channels=2, memory_bytes=1 << 20)
        amap = config.channel_address_map()
        assert amap.num_targets == 2
        assert amap.stripe_bytes == config.channel_stripe_bytes
        assert amap.size_bytes == config.memory_bytes


def make_demux(channels=2, stripe=1024):
    """A demux over an interleaved map with a naive engine driving it."""
    up = AxiPort("up", BUS)
    downs = [AxiPort(f"d{i}", BUS) for i in range(channels)]
    amap = InterleavedAddressMap(num_targets=channels, stripe_bytes=stripe,
                                 size_bytes=1 << 20)
    demux = CycleAxiDemux("demux", up, downs, amap)
    engine = Engine(event_driven=False)
    engine.add_component(demux)
    for port in (up, *downs):
        for queue in port.all_queues():
            engine.add_queue(queue)
    return up, downs, demux, engine


def write_burst(addr, elems=8):
    return BusRequest(addr=addr, is_write=True, num_elements=elems,
                      elem_bytes=4, bus_bytes=BUS, contiguous=True)


def read_burst(addr, elems=8):
    return BusRequest(addr=addr, is_write=False, num_elements=elems,
                      elem_bytes=4, bus_bytes=BUS, contiguous=True)


class TestDemuxCrossbarRules:
    def test_straddling_burst_routes_by_start_address(self):
        # 16 elems * 4 B = 64 B starting 32 B before the stripe edge: the
        # footprint crosses into stripe 1, but stripe-ownership semantics
        # route (and serve) the whole burst on the owner of the start addr.
        up, downs, demux, engine = make_demux(channels=2, stripe=1024)
        up.ar.push(read_burst(1024 - 32, elems=16))
        engine.step(3)
        assert downs[0].ar.can_pop()
        assert demux.routed_counts == [1, 0]

    def test_same_target_aw_gate_holds_cross_channel_write(self):
        up, downs, demux, engine = make_demux(channels=2, stripe=1024)
        first = write_burst(0, elems=16)       # 2 beats -> channel 0
        second = write_burst(1024, elems=8)    # 1 beat  -> channel 1
        up.aw.push(first)
        up.aw.push(second)
        up.w.push(WBeat(data=None, useful_bytes=BUS, last=False))
        engine.step(3)
        # First AW forwarded; second held: its target differs from the
        # outstanding W debt on channel 0.
        assert downs[0].aw.can_pop()
        assert not downs[1].aw.can_pop()
        assert demux.busy()
        # Draining the W debt releases the gate.
        up.w.push(WBeat(data=None, useful_bytes=BUS, last=True))
        engine.step(4)
        assert downs[1].aw.can_pop()
        assert downs[0].w.can_pop()

    def test_same_target_aw_not_gated(self):
        up, downs, demux, engine = make_demux(channels=2, stripe=1024)
        first = write_burst(0, elems=16)   # channel 0
        second = write_burst(64, elems=8)  # channel 0 as well
        up.aw.push(first)
        up.aw.push(second)
        engine.step(4)
        assert downs[0].aw.pop().txn_id == first.txn_id
        assert downs[0].aw.pop().txn_id == second.txn_id

    def test_target_count_validated_against_ports(self):
        up = AxiPort("up", BUS)
        downs = [AxiPort("d0", BUS)]
        amap = InterleavedAddressMap(num_targets=2, stripe_bytes=1024,
                                     size_bytes=1 << 20)
        with pytest.raises(ConfigurationError):
            CycleAxiDemux("demux", up, downs, amap)


class TestCrossbarSoc:
    def test_multi_channel_shape(self):
        soc = build_system(small_config(engines=2, channels=2))
        assert len(soc.demuxes) == 2
        assert len(soc.channel_muxes) == 2
        assert len(soc.endpoints) == 2
        assert len(soc.memories) == 2
        assert len(soc.channel_stats) == 2
        assert soc.mux is None
        # Single-channel aliases are explicitly absent on the crossbar.
        assert soc.memory is None and soc.endpoint is None
        assert [len(row) for row in soc.link_ports] == [2, 2]

    def test_ideal_channels_have_no_banked_memory(self):
        soc = build_system(small_config(SystemKind.IDEAL, engines=1,
                                        channels=2))
        assert soc.memories == []
        assert len(soc.endpoints) == 2

    def test_single_channel_attributes_unchanged(self):
        soc = build_system(small_config())
        assert soc.memory is not None and soc.endpoint is not None
        assert soc.demuxes == [] and soc.channel_muxes == []
        assert soc.stats_snapshot() == dict(soc.stats.as_dict())

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("engines,channels", [(1, 2), (2, 2), (4, 2),
                                                  (2, 4)])
    def test_workloads_verify_on_crossbar(self, kind, engines, channels):
        config = small_config(kind, engines, channels)
        result = run_workload(make_workload("spmv", size=24), config)
        assert result.verified is True
        assert result.cycles > 0

    def test_per_channel_stats_sum_to_aggregate(self):
        config = small_config(SystemKind.PACK, engines=2, channels=2,
                              channel_stripe_bytes=256)
        result = run_workload(make_workload("gemv", size=24), config)
        counters = ("adapter.r_beats", "adapter.w_beats",
                    "mem.bank_accesses", "mux.ar_grants")
        for counter in counters:
            total = result.stats[counter]
            parts = [result.stats[f"chan{j}.{counter}"] for j in range(2)]
            assert sum(parts) == total
        # Both channels carried some of the traffic (reads and writes may
        # land on different channels at this footprint; sum over counters).
        for j in range(2):
            assert sum(result.stats[f"chan{j}.{c}"] for c in counters) > 0

    def test_event_and_naive_engines_identical_on_crossbar(self):
        config = small_config(SystemKind.PACK, engines=2, channels=2)
        workload = make_workload("spmv", size=24)
        runs = {}
        for event in (True, False):
            soc = build_system(config)
            workload.initialize(soc.storage)
            programs = workload.build_sharded_programs(
                config.lowering, config.vector_config(), 2
            )
            cycles, results = soc.run_programs(programs, event_driven=event)
            runs[event] = (cycles, dict(soc.stats_snapshot()), tuple(results))
        assert runs[True] == runs[False]

    def test_soc_reuse_resets_channel_state(self):
        config = small_config(SystemKind.PACK, engines=2, channels=2)
        workload = make_workload("gemv", size=24)
        soc = build_system(config)
        workload.initialize(soc.storage)
        programs = workload.build_sharded_programs(
            config.lowering, config.vector_config(), 2
        )
        first = soc.run_programs(list(programs))
        first_stats = dict(soc.stats_snapshot())
        second = soc.run_programs(list(programs))
        assert first[0] == second[0]
        assert dict(soc.stats_snapshot()) == first_stats

    def test_cross_channel_write_storm_terminates(self):
        # Writes alternating between channels from both engines: the
        # workload shape that deadlocks a gate-less crossbar once the link
        # queues fill.  ismt is write-heavy; a small stripe forces frequent
        # channel changes.
        config = small_config(SystemKind.BASE, engines=2, channels=2,
                              channel_stripe_bytes=32)
        result = run_workload(make_workload("ismt", size=24), config,
                              max_cycles=2_000_000)
        assert result.verified is True

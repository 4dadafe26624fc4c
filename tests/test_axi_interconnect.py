"""Tests for address decode and the AXI-Pack compatibility story (§II-A)."""

import pytest

from repro.axi.interconnect import AddressMap, AddressRegion
from repro.axi.mux import CycleAxiDemux, CycleAxiMux
from repro.axi.pack import PackUserField
from repro.axi.port import AxiPort
from repro.axi.transaction import BusRequest
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.engine import Engine


def strided_request(elems=64, stride=3, bus=32, addr=0x1000):
    return BusRequest(addr=addr, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=bus, pack=PackUserField.strided(stride))


def indirect_request(elems=64, bus=32, addr=0x1000, idx_base=0x9000):
    return BusRequest(addr=addr, is_write=False, num_elements=elems, elem_bytes=4,
                      bus_bytes=bus, pack=PackUserField.indirect(4, idx_base))


MAP = AddressMap([
    AddressRegion(base=0x0000, size=0x8000, target=0),
    AddressRegion(base=0x8000, size=0x8000, target=1),
])


class TestAddressMap:
    def test_route(self):
        assert MAP.try_route(0x10) == 0
        assert MAP.try_route(0x8000) == 1
        assert MAP.num_targets == 2

    def test_region_boundary_addresses(self):
        """Regions are half-open: base inclusive, end exclusive."""
        assert MAP.try_route(0x0000) == 0        # first byte of region 0
        assert MAP.try_route(0x7FFF) == 0        # last byte of region 0
        assert MAP.try_route(0x8000) == 1        # first byte of region 1
        assert MAP.try_route(0xFFFF) == 1        # last byte of region 1
        assert MAP.try_route(0x1_0000) == -1     # one past the last region

    def test_adjacent_regions_are_not_overlapping(self):
        adjacent = AddressMap([
            AddressRegion(0, 0x100, 0),
            AddressRegion(0x100, 0x100, 1),
        ])
        assert adjacent.try_route(0xFF) == 0
        assert adjacent.try_route(0x100) == 1

    def test_gap_between_regions_decerr(self):
        gappy = AddressMap([
            AddressRegion(0, 0x100, 0),
            AddressRegion(0x200, 0x100, 1),
        ])
        assert gappy.try_route(0x180) == -1

    def test_unordered_regions_are_sorted(self):
        shuffled = AddressMap([
            AddressRegion(0x8000, 0x8000, 1),
            AddressRegion(0x0000, 0x8000, 0),
        ])
        assert [region.base for region in shuffled.regions] == [0x0000, 0x8000]
        assert shuffled.try_route(0x10) == 0

    def test_shared_target_counts_once(self):
        split = AddressMap([
            AddressRegion(0x0000, 0x100, 7),
            AddressRegion(0x1000, 0x100, 7),
        ])
        assert split.num_targets == 1

    def test_unmapped_address_decerr(self):
        assert MAP.try_route(0x2_0000) == -1

    def test_invalid_region_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressRegion(base=-1, size=0x100, target=0)
        with pytest.raises(ConfigurationError):
            AddressRegion(base=0, size=0, target=0)
        with pytest.raises(ConfigurationError):
            AddressRegion(base=0, size=0x100, target=-1)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap([
                AddressRegion(0, 0x100, 0),
                AddressRegion(0x80, 0x100, 1),
            ])

    def test_empty_map_rejected(self):
        with pytest.raises(ConfigurationError):
            AddressMap([])


def _engine_for(component, ports):
    engine = Engine(event_driven=False)
    engine.add_component(component)
    for port in ports:
        for queue in port.all_queues():
            engine.add_queue(queue)
    return engine


class TestPackedBurstsPassUnmodified:
    """Routing IP needs no AXI-Pack awareness (paper §II-A): the cycle-level
    mux and demux hand the very burst object a requestor pushed to the
    downstream AR queue, ``user`` field included."""

    @staticmethod
    def _packed_bursts():
        return [strided_request(), indirect_request()]

    def test_cycle_mux_forwards_packed_bursts_verbatim(self):
        ups = [AxiPort("u0", 32), AxiPort("u1", 32)]
        down = AxiPort("down", 32)
        engine = _engine_for(CycleAxiMux("mux", ups, down), (*ups, down))
        bursts = self._packed_bursts()
        packs = [burst.pack for burst in bursts]
        for port, burst in zip(ups, bursts):
            port.ar.push(burst)
        engine.step(4)
        # Round-robin grants u0 first, then u1.
        forwarded = [down.ar.pop() for _ in range(down.ar.occupancy)]
        assert len(forwarded) == 2
        for item, burst, pack in zip(forwarded, bursts, packs):
            assert item is burst                          # same object
            assert item.pack is pack and item.pack == pack

    def test_cycle_demux_forwards_packed_bursts_verbatim(self):
        up = AxiPort("up", 32)
        downs = [AxiPort("d0", 32), AxiPort("d1", 32)]
        engine = _engine_for(
            CycleAxiDemux("demux", up, downs, MAP), (up, *downs)
        )
        bursts = self._packed_bursts()
        packs = [burst.pack for burst in bursts]
        for burst in bursts:
            up.ar.push(burst)
        engine.step(4)
        # Both start in region 0, so both reach target 0 in order.
        assert downs[1].ar.occupancy == 0
        forwarded = [downs[0].ar.pop() for _ in range(downs[0].ar.occupancy)]
        assert len(forwarded) == 2
        for item, burst, pack in zip(forwarded, bursts, packs):
            assert item is burst                          # same object
            assert item.pack is pack and item.pack == pack


class TestCycleInterconnectConstruction:
    """The cycle mux and demux refuse a topology they cannot simulate."""

    @pytest.mark.parametrize("kwargs", [
        {"upstreams": []},
        {"arbitration": "lottery"},
        {"arbitration": "qos", "qos": [1]},
    ], ids=["no-upstream", "unknown-arbitration", "qos-per-port"])
    def test_mux_rejects(self, kwargs):
        args = {"upstreams": [AxiPort("u0", 32), AxiPort("u1", 32)],
                "downstream": AxiPort("down", 32), **kwargs}
        with pytest.raises(ConfigurationError):
            CycleAxiMux("mux", **args)

    def test_mux_rejects_a_port_of_another_width(self):
        # No width converter exists: every port of a mux shares one width.
        ups = [AxiPort("u0", 32), AxiPort("narrow", 16)]
        with pytest.raises(ProtocolError, match="narrow"):
            CycleAxiMux("mux", ups, AxiPort("down", 32))

    @pytest.mark.parametrize("num_downstreams", [0, 1],
                             ids=["no-downstream", "region-target-missing"])
    def test_demux_rejects(self, num_downstreams):
        downs = [AxiPort(f"d{i}", 32) for i in range(num_downstreams)]
        # MAP's second region targets port 1.
        with pytest.raises(ConfigurationError):
            CycleAxiDemux("demux", AxiPort("up", 32), downs, MAP)

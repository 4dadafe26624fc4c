"""Tests for address decode and the AXI-Pack compatibility story (§II-A)."""

import pytest

from repro.axi.interconnect import InterleavedAddressMap
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


#: Two 32 KiB stripes over a 64 KiB space: target 0, then target 1.
MAP = InterleavedAddressMap(num_targets=2, stripe_bytes=0x8000,
                            size_bytes=0x1_0000)


class TestAddressDecode:
    def test_route(self):
        assert MAP.try_route(0x10) == 0
        assert MAP.try_route(0x8000) == 1
        assert MAP.num_targets == 2

    def test_stripe_boundary_addresses(self):
        """Stripes are half-open: base inclusive, end exclusive."""
        assert MAP.try_route(0x0000) == 0        # first byte of stripe 0
        assert MAP.try_route(0x7FFF) == 0        # last byte of stripe 0
        assert MAP.try_route(0x8000) == 1        # first byte of stripe 1
        assert MAP.try_route(0xFFFF) == 1        # last byte of stripe 1
        assert MAP.try_route(0x1_0000) == -1     # one past the address space


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
        # Both start in stripe 0, so both reach target 0 in order.
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
    ], ids=["no-upstream", "unknown-arbitration"])
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
                             ids=["no-downstream", "target-missing"])
    def test_demux_rejects(self, num_downstreams):
        downs = [AxiPort(f"d{i}", 32) for i in range(num_downstreams)]
        # MAP's second stripe targets port 1.
        with pytest.raises(ConfigurationError):
            CycleAxiDemux("demux", AxiPort("up", 32), downs, MAP)

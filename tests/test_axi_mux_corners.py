"""Interconnect corner coverage the program fuzzer cannot reach.

The fuzzer drives the mux only through well-behaved vector engines, so two
classes of behaviour need direct stimulus: qos arbitration under sustained
asymmetric traffic (starvation is the *specified* behaviour, and fairness
bookkeeping must survive it), and demux routing exactly at the stripe
boundaries of an ``InterleavedAddressMap`` and past its address space.
"""

from repro.axi.interconnect import InterleavedAddressMap
from repro.axi.mux import CycleAxiDemux, CycleAxiMux
from repro.axi.pack import PackMode, PackUserField
from repro.axi.port import AxiPort
from repro.axi.signals import WBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.sim.engine import Engine

BUS = 32


def read_burst(addr, elems=8, bus=BUS):
    return BusRequest(addr=addr, is_write=False, num_elements=elems,
                      elem_bytes=4, bus_bytes=bus, contiguous=True)


def write_burst(addr, elems=8, bus=BUS):
    return BusRequest(addr=addr, is_write=True, num_elements=elems,
                      elem_bytes=4, bus_bytes=bus, contiguous=True)


def strided_burst(addr, elems=8, stride_elems=16, bus=BUS):
    return BusRequest(addr=addr, is_write=False, num_elements=elems,
                      elem_bytes=4, bus_bytes=bus, contiguous=False,
                      pack=PackUserField(mode=PackMode.STRIDED,
                                         stride_elems=stride_elems))


def make_mux(n=2, arbitration="rr"):
    ups = [AxiPort(f"u{i}", BUS) for i in range(n)]
    down = AxiPort("down", BUS)
    mux = CycleAxiMux("mux", ups, down, arbitration=arbitration)
    engine = Engine(event_driven=False)
    engine.add_component(mux)
    for port in (*ups, down):
        for queue in port.all_queues():
            engine.add_queue(queue)
    return ups, down, mux, engine


def make_demux():
    up = AxiPort("up", BUS)
    downs = [AxiPort(f"d{i}", BUS) for i in range(2)]
    # Stripe 0 is [0, 0x800) on target 0, stripe 1 [0x800, 0x1000) on
    # target 1; nothing is mapped from 0x1000 on.
    address_map = InterleavedAddressMap(num_targets=2, stripe_bytes=0x800,
                                        size_bytes=0x1000)
    demux = CycleAxiDemux("demux", up, downs, address_map)
    engine = Engine(event_driven=False)
    engine.add_component(demux)
    for port in (up, *downs):
        for queue in port.all_queues():
            engine.add_queue(queue)
    return up, downs, demux, engine


class TestQosUnderSustainedTraffic:
    def test_sustained_high_priority_starves_low_until_it_pauses(self):
        """Port 0 outranks port 1 by default: while port 0 keeps ARs coming,
        port 1 never receives a grant; once port 0 pauses, port 1 drains."""
        ups, down, mux, engine = make_mux(2, arbitration="qos")
        ups[1].ar.push(read_burst(0x200))
        granted = []
        for cycle in range(20):
            if ups[0].ar.can_push():
                ups[0].ar.push(read_burst(0x100 + cycle))
            engine.step()
            while down.ar.can_pop():
                granted.append(down.ar.pop().addr)
        # Every grant in the sustained window went to port 0.
        assert granted and all(addr >= 0x100 for addr in granted)
        assert ups[1].ar.occupancy == 1  # fully starved
        assert mux.ar_grants[1] == 0
        starved_grants = mux.ar_grants[0]
        # Stop refilling port 0: the starved port drains on the next grants.
        for _ in range(8):
            engine.step()
            while down.ar.can_pop():
                granted.append(down.ar.pop().addr)
        assert ups[1].ar.occupancy == 0
        # Port 0's queued leftovers still outrank, so its tally may grow,
        # but port 1 finally got its single grant.
        assert mux.ar_grants[0] >= starved_grants
        assert mux.ar_grants[1] == 1

    def test_qos_starves_write_channel_symmetrically(self):
        ups, down, mux, engine = make_mux(2, arbitration="qos")
        ups[1].aw.push(write_burst(0x200, elems=8))
        for cycle in range(12):
            if ups[0].aw.can_push():
                ups[0].aw.push(write_burst(0x100, elems=8))
            engine.step()
            while down.aw.can_pop():
                down.aw.pop()
        assert ups[1].aw.occupancy == 1
        assert mux.aw_grants[1] == 0

    def test_qos_priority_is_the_port_index(self):
        """With every port pending, "qos" grants strictly by port index."""
        ups, down, mux, engine = make_mux(3, arbitration="qos")
        for _ in range(2):
            for index in (2, 1, 0):
                ups[index].ar.push(read_burst(0x100 * (index + 1)))
        order = []
        for _ in range(12):
            engine.step()
            while down.ar.can_pop():
                order.append(down.ar.pop().addr)
        assert order == [0x100, 0x100, 0x200, 0x200, 0x300, 0x300]

    def test_round_robin_stays_fair_under_the_same_asymmetry(self):
        """The identical sustained-pressure stimulus, arbitrated rr: the
        port with a single request is served within one round."""
        ups, down, mux, engine = make_mux(2, arbitration="rr")
        ups[1].ar.push(read_burst(0x200))
        served_at = None
        for cycle in range(20):
            if ups[0].ar.can_push():
                ups[0].ar.push(read_burst(0x100 + cycle))
            engine.step()
            while down.ar.can_pop():
                if down.ar.pop().addr == 0x200 and served_at is None:
                    served_at = cycle
        assert served_at is not None and served_at <= 2
        # Both ports were granted; port 0 got everything else.
        assert mux.ar_grants[1] == 1
        assert mux.ar_grants[0] >= 8

    def test_rr_grants_balance_when_both_ports_saturate(self):
        ups, down, mux, engine = make_mux(2, arbitration="rr")
        for cycle in range(24):
            for port in ups:
                if port.ar.can_push():
                    port.ar.push(read_burst(0x100))
            engine.step()
            while down.ar.can_pop():
                down.ar.pop()
        assert abs(mux.ar_grants[0] - mux.ar_grants[1]) <= 1


class TestDemuxAtStripeBoundaries:
    def test_burst_ending_on_the_last_stripe_byte_is_routed(self):
        up, downs, demux, engine = make_demux()
        up.ar.push(read_burst(0x07E0, elems=8))  # bytes 0x7E0..0x7FF inclusive
        engine.step(3)
        assert downs[0].ar.occupancy == 1
        assert downs[1].ar.occupancy == 0

    def test_burst_crossing_one_byte_past_the_boundary_stays_whole(self):
        """Stripe ownership: the owner of the start address takes the
        whole burst, even when its last byte lands in the next stripe."""
        up, downs, demux, engine = make_demux()
        up.ar.push(read_burst(0x07E4, elems=8))  # last byte lands at 0x803
        engine.step(3)
        assert downs[0].ar.occupancy == 1
        assert downs[1].ar.occupancy == 0
        assert up.r.occupancy == 0

    def test_unmapped_write_answers_decerr_after_draining_w(self):
        up, downs, demux, engine = make_demux()
        request = write_burst(0x1000, elems=16)  # 2 beats, past the space
        up.aw.push(request)
        for beat in range(request.num_beats):
            up.w.push(WBeat(data=b"\x00" * BUS, useful_bytes=BUS,
                            last=beat == request.num_beats - 1))
        engine.step(6)
        beat = up.b.pop()
        assert beat.txn_id == request.txn_id
        assert beat.resp is Resp.DECERR
        # Every W beat was consumed and discarded; nothing reached a target.
        assert up.w.occupancy == 0
        assert downs[0].aw.occupancy == 0 and downs[1].aw.occupancy == 0
        assert not demux.busy()

    def test_unmapped_base_address_answers_decerr_phantom_burst(self):
        up, downs, demux, engine = make_demux()
        request = read_burst(0x1000, elems=16)  # 2 beats, past the mapped space
        up.ar.push(request)
        engine.step(6)
        beats = []
        while up.r.can_pop():
            beats.append(up.r.pop())
        # Phantom beats preserve the burst length per the AXI spec.
        assert len(beats) == request.num_beats
        assert all(b.resp is Resp.DECERR and b.useful_bytes == 0 for b in beats)
        assert [b.last for b in beats] == [False, True]
        assert not demux.busy()

    def test_packed_burst_spanning_the_boundary_routes_by_base(self):
        """A packed-strided burst's elements may land past the boundary; the
        demux routes by base address only (the straddle rule is for plain
        contiguous bursts, which slaves decode as linear address ranges)."""
        up, downs, demux, engine = make_demux()
        # Elements at 0x7C0, 0x800, 0x840 ... — wider than region 0.
        up.ar.push(strided_burst(0x07C0, elems=4, stride_elems=16))
        engine.step(3)
        assert downs[0].ar.occupancy == 1
        assert downs[1].ar.occupancy == 0

"""The banked channel stage: event-vs-naive parity and its wake rule.

``BankedChannel`` runs the adapter and the banked memory as one engine
component and decides itself which half is due each cycle.  The naive
engine ticks both halves every cycle, so it is the reference the stage's
wake rule is checked against.  The parity grid sweeps the FIFO depth and
the bank latency, where a missed wake shows first: shallow FIFOs make
back-pressure frequent and long latencies open the windows the event
engine skips.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest

from repro.axi.pack import PackUserField
from repro.axi.port import AxiPort
from repro.axi.transaction import BusRequest, reset_txn_ids
from repro.controller.adapter import AxiPackAdapter, BankedChannel
from repro.controller.testbench import ControllerTestbench
from repro.errors import DeadlockError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.sim.component import IDLE, Component
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry

BUS = 32
WORD = 4
MEMORY_BYTES = 1 << 16
DATA_BASE = 0x1000
#: streams per (queue depth, latency) point: 9 points x 12 = 108 cases
STREAMS_PER_POINT = 12


def _stream(seed):
    """A seeded mix of contiguous and strided bursts, reads and writes.

    Bursts overlap one 8 KiB region, so reads observe earlier writes and
    the final image depends on the order the banks performed them.
    Returns ``(requests, payloads)``.
    """
    rng = random.Random(seed)
    requests = []
    payloads = {}
    for _ in range(rng.randint(3, 8)):
        is_write = rng.random() < 0.4
        count = rng.randint(1, 48)
        if rng.random() < 0.5:
            # Within one 4 KiB page, as AXI4 INCR bursts must be.
            page = DATA_BASE + 4096 * rng.randrange(2)
            addr = page + WORD * rng.randrange(0, 1024 - count + 1)
            request = BusRequest(addr=addr, is_write=is_write,
                                 num_elements=count, elem_bytes=WORD,
                                 bus_bytes=BUS, contiguous=True)
        else:
            addr = DATA_BASE + WORD * rng.randrange(0, 1024)
            request = BusRequest(addr=addr, is_write=is_write,
                                 num_elements=count, elem_bytes=WORD,
                                 bus_bytes=BUS,
                                 pack=PackUserField.strided(rng.randint(1, 9)))
        if is_write:
            payloads[request.txn_id] = bytes(
                rng.randrange(256) for _ in range(request.num_beats * BUS)
            )
        requests.append(request)
    return requests, payloads


def _run(seed, queue_depth, latency, event_driven):
    reset_txn_ids()
    requests, payloads = _stream(seed)
    bench = ControllerTestbench(
        BankedMemoryConfig(num_ports=BUS // WORD, latency=latency,
                           queue_depth=queue_depth),
        memory_bytes=MEMORY_BYTES,
    )
    image = np.random.default_rng(seed).integers(
        0, 256, size=MEMORY_BYTES, dtype=np.uint8)
    bench.storage.write_array(0, image)
    result = bench.run(requests, write_payloads=payloads,
                       event_driven=event_driven)
    outcomes = {
        txn: (outcome.issue_cycle, outcome.complete_cycle,
              outcome.beats_received, outcome.payload)
        for txn, outcome in result.outcomes.items()
    }
    return (result.cycles, dict(bench.stats.as_dict()), outcomes,
            bench.storage.snapshot().tobytes())


def _check_req_full(memory):
    """``req_full`` has bit *p* set exactly while port *p*'s request FIFO
    is at depth."""
    depth = memory.config.queue_depth
    for port, fifo in enumerate(memory.req_fifos):
        full = bool(memory.req_full >> port & 1)
        assert full == (len(fifo) >= depth), (
            f"port {port}: req_full bit {full}, FIFO {len(fifo)}/{depth}")
    assert memory.req_full >> len(memory.req_fifos) == 0


class TestParityGrid:
    @pytest.mark.parametrize("latency", [1, 3, 5])
    @pytest.mark.parametrize("queue_depth", [1, 2, 4])
    def test_event_matches_naive(self, queue_depth, latency, monkeypatch):
        """Cycles, stats, per-burst issue/complete cycles and payloads, and
        the final memory image agree between the engine modes; after every
        stage tick the memory's full-FIFO mask matches its FIFOs."""
        stage_tick = BankedChannel.tick

        def checked_tick(stage, cycle):
            hint = stage_tick(stage, cycle)
            _check_req_full(stage.memory)
            return hint

        monkeypatch.setattr(BankedChannel, "tick", checked_tick)
        for index in range(STREAMS_PER_POINT):
            seed = 1000 * queue_depth + 100 * latency + index
            naive = _run(seed, queue_depth, latency, event_driven=False)
            event = _run(seed, queue_depth, latency, event_driven=True)
            assert event[0] == naive[0], f"seed {seed}: cycles"
            assert event[1] == naive[1], f"seed {seed}: stats"
            assert event[2] == naive[2], f"seed {seed}: bursts"
            assert event[3] == naive[3], f"seed {seed}: memory image"


class ScriptedReader(Component):
    """Pushes each read burst's AR at a scripted cycle and drains R."""

    def __init__(self, port, schedule):
        super().__init__("reader")
        self.port = port
        self.schedule = deque(schedule)  #: (cycle, request), in cycle order
        self.beats = []  #: (cycle, txn_id) of every R beat received
        self.open = len(schedule)  #: bursts whose last beat is still due

    def tick(self, cycle):
        port = self.port
        if port.r.can_pop():
            beat = port.r.pop()
            self.beats.append((cycle, beat.txn_id))
            self.open -= beat.last
        if self.schedule and self.schedule[0][0] <= cycle and port.ar.can_push():
            port.ar.push(self.schedule.popleft()[1])
        if self.schedule and self.schedule[0][0] > cycle:
            return self.schedule[0][0]
        return IDLE

    def wake_queues(self):
        return self.port.all_queues()

    def done(self):
        return not self.open


def _scripted_run(latency, ar_cycles, event_driven):
    """One-beat reads with their ARs pushed at ``ar_cycles``; returns the R
    beat arrivals and the cycles each half of the stage ran."""
    reset_txn_ids()
    port = AxiPort("tb", BUS)
    stats = StatsRegistry()
    memory = BankedMemory("mem", BankedMemoryConfig(latency=latency),
                          MemoryStorage(MEMORY_BYTES), stats)
    adapter = AxiPackAdapter("adapter", port, memory, stats)
    ran = {"adapter": [], "memory": []}
    for name, half in (("adapter", adapter), ("memory", memory)):
        def counted(cycle, _tick=half.tick, _log=ran[name]):
            _log.append(cycle)
            return _tick(cycle)
        half.tick = counted
    requests = [
        BusRequest(addr=DATA_BASE + BUS * index, is_write=False,
                   num_elements=BUS // WORD, elem_bytes=WORD, bus_bytes=BUS,
                   contiguous=True)
        for index in range(len(ar_cycles))
    ]
    reader = ScriptedReader(port, list(zip(ar_cycles, requests)))
    engine = Engine(event_driven=event_driven)
    engine.add_component(reader)  # ticks before the stage within a cycle
    engine.add_component(BankedChannel("channel", adapter))
    for queue in port.all_queues():
        engine.add_queue(queue)
    engine.run_until(reader.done, max_cycles=1000)
    return reader.beats, ran


class TestWakeRule:
    def test_adapter_sleeps_through_memory_only_cycles(self):
        """A maturity with quiet AXI queues runs the memory alone."""
        # The AR lands at 0, the adapter issues at 1, the banks grant at 2
        # and the words mature at 22.
        beats, ran = _scripted_run(20, [0], event_driven=True)
        assert 22 in ran["memory"]
        assert 22 not in ran["adapter"]
        assert ran["adapter"][:4] == [0, 1, 2, 3]
        assert beats == _scripted_run(20, [0], event_driven=False)[0]

    @pytest.mark.parametrize(
        ("latency", "second_ar", "maturity"),
        [(20, 21, 22),  # AR at the maturity's eve, after a long sleep
         (2, 3, 4)],    # AR before the stage's tick on the previous cycle
        ids=["after-sleep", "next-cycle"])
    def test_port_activity_on_a_maturity_cycle_runs_the_adapter(
            self, latency, second_ar, maturity):
        """An AR pushed the cycle before a maturity is accepted on the
        maturity cycle, exactly as under the tick-every-cycle engine."""
        beats, ran = _scripted_run(latency, [0, second_ar], event_driven=True)
        assert maturity in ran["adapter"]
        assert beats == _scripted_run(latency, [0, second_ar],
                                      event_driven=False)[0]

    def test_word_hand_offs_count_as_progress(self):
        """With nothing but words in the banks, deadlock detection runs
        from the last FIFO hand-off, in both engine modes."""
        for event_driven in (True, False):
            reset_txn_ids()
            port = AxiPort("tb", BUS)
            memory = BankedMemory("mem", BankedMemoryConfig(latency=500),
                                  MemoryStorage(MEMORY_BYTES))
            adapter = AxiPackAdapter("adapter", port, memory)
            reader = ScriptedReader(port, [(0, BusRequest(
                addr=DATA_BASE, is_write=False, num_elements=8,
                elem_bytes=WORD, bus_bytes=BUS, contiguous=True))])
            engine = Engine(deadlock_window=100, event_driven=event_driven)
            engine.add_component(reader)
            engine.add_component(BankedChannel("channel", adapter))
            for queue in port.all_queues():
                engine.add_queue(queue)
            with pytest.raises(DeadlockError) as info:
                engine.run_until(reader.done, max_cycles=10_000)
            # The AR pop and the word issue at 1 are the last queue moves;
            # the grant at 2 is the last hand-off, so the 100-cycle window
            # runs out after cycle 102.
            assert info.value.diagnosis.cycle == 103
            assert "channel" in info.value.diagnosis.busy_components

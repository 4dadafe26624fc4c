"""Unit tests for the cycle-level banked memory and its port FIFOs."""

import numpy as np
import pytest

from repro.axi.faults import BusFaultPlan
from repro.axi.port import AxiPort
from repro.axi.signals import BBeat, WBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.controller.adapter import AxiPackAdapter
from repro.controller.lanes import LaneReadPipe, LaneWritePipe, SlotBatch
from repro.errors import ConfigurationError
from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.sim.component import IDLE
from repro.sim.stats import StatsRegistry


def make_memory(num_banks=17, num_ports=8, latency=1, conflict_free=False,
                queue_depth=4, bus_faults=None):
    storage = MemoryStorage(1 << 16)
    config = BankedMemoryConfig(num_ports=num_ports, num_banks=num_banks,
                                latency=latency, conflict_free=conflict_free,
                                queue_depth=queue_depth)
    stats = StatsRegistry()
    memory = BankedMemory("mem", config, storage, stats, bus_faults=bus_faults)
    return memory, storage, stats


def word_batch(words, payload=None):
    """One beat of whole-word accesses, slot ``i`` at payload offset ``4*i``;
    a write batch when ``payload`` is given, else a read batch."""
    count = len(words)
    batch = SlotBatch(
        ports=[i % 8 for i in range(count)], words=list(words),
        offsets=[4 * i for i in range(count)], nbytes=[4] * count,
        shifts=[0] * count, beat_of=[0] * count, beat_start=[0, count],
        beat_useful=[4 * count], beat_last=[True], all_full_words=True,
    )
    if payload is None:
        batch.alloc_read_buffers()
    else:
        batch.init_write_state()
        batch.beat_payload[0] = bytes(payload)
    return batch


def push(memory, port, batch, slot, cycle=-1):
    """Append one request as the adapter would at ``cycle``."""
    memory.req_fifos[port].append((None, batch, slot))
    memory.req_pushed_at[port] = cycle


def run(memory, max_cycles=1000):
    """Tick the memory until idle, popping one response per port per cycle
    before it as the adapter does; returns ``{port: [(cycle, tag)]}`` and
    the cycle count."""
    responses = {port: [] for port in range(memory.config.num_ports)}
    for cycle in range(max_cycles):
        for port, fifo in enumerate(memory.rsp_fifos):
            if fifo:
                responses[port].append((cycle, fifo.popleft()))
        memory.tick(cycle)
        if not memory.busy():
            return responses, cycle + 1
    raise AssertionError("memory did not drain")


class TestConfig:
    @pytest.mark.parametrize(("field", "value", "message"), [
        ("num_ports", 6, "powers of two"),
        ("word_bytes", 3, "powers of two"),
        ("num_banks", 0, "num_banks must be positive"),
        ("latency", 0, "latency must be positive"),
        ("queue_depth", 0, "queue_depth must be positive"),
    ])
    def test_invalid_value_rejected(self, field, value, message):
        """The channel's one config checks every value it carries."""
        with pytest.raises(ConfigurationError, match=message):
            BankedMemoryConfig(**{field: value})


class TestFunctional:
    def test_read_lands_in_beat(self):
        memory, storage, _ = make_memory()
        storage.write_array(0x40, np.asarray([0xDEADBEEF], dtype=np.uint32))
        batch = word_batch([0x10])
        push(memory, 0, batch, 0)
        responses, _ = run(memory)
        assert responses[0][0][1] == (None, batch, 0)
        assert np.frombuffer(batch.beat_data[0], dtype=np.uint32)[0] == 0xDEADBEEF

    def test_write_takes_data_from_beat_payload(self):
        memory, storage, _ = make_memory()
        payload = np.asarray([7, 1234], dtype=np.uint32).tobytes()
        batch = word_batch([9, 5], payload)
        push(memory, 3, batch, 1)  # slot 1: payload bytes 4..8
        run(memory)
        assert storage.read_array(20, 1, np.uint32)[0] == 1234
        assert storage.read_array(36, 1, np.uint32)[0] == 0  # slot 0 untouched

    def test_out_of_range_word_poisons_beat(self):
        memory, storage, _ = make_memory()
        batch = word_batch([(1 << 16) // 4], payload=b"\xff" * 4)
        push(memory, 0, batch, 0)
        responses, _ = run(memory)
        assert len(responses[0]) == 1  # completes in band
        assert batch.beat_resp == [Resp.SLVERR]
        assert not storage.snapshot().any()


class TestTimingAndConflicts:
    def test_parallel_ports_no_conflict(self):
        memory, _, stats = make_memory(num_banks=17)
        batch = word_batch(range(8))
        for port in range(8):
            push(memory, port, batch, port)
        _, cycles = run(memory)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles == 3  # granted at 0, delivered at 1, popped at 2

    def test_same_bank_conflicts_serialize(self):
        memory, _, stats = make_memory(num_banks=16)
        # All eight ports target bank 0 in the same cycle.
        batch = word_batch([16 * p for p in range(8)])
        for port in range(8):
            push(memory, port, batch, port)
        _, cycles = run(memory)
        assert stats.get("mem.bank_conflicts") == 7 + 6 + 5 + 4 + 3 + 2 + 1
        assert cycles == 10  # one grant per cycle at 0..7

    def test_prime_bank_count_spreads_a_power_of_two_stride(self):
        # The stride-16 words that all hit bank 0 of 16 banks land on eight
        # different banks of 17.
        memory, _, stats = make_memory(num_banks=17)
        batch = word_batch([16 * p for p in range(8)])
        for port in range(8):
            push(memory, port, batch, port)
        _, cycles = run(memory)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles == 3

    def test_conflict_free_mode_ignores_conflicts(self):
        memory, _, stats = make_memory(num_banks=16, conflict_free=True)
        batch = word_batch([16 * p for p in range(8)])
        for port in range(8):
            push(memory, port, batch, port)
        _, cycles = run(memory)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles == 3

    def test_per_port_responses_in_order(self):
        memory, _, _ = make_memory(num_banks=17)
        batch = word_batch([5, 22, 39, 1])
        for slot in range(4):
            push(memory, 0, batch, slot)
        responses, _ = run(memory)
        assert [tag[2] for _, tag in responses[0]] == [0, 1, 2, 3]

    def test_registered_fifo_timing(self):
        """Appended at t, granted at t+1, response visible at t+2+latency."""
        memory, _, _ = make_memory(latency=5)
        batch = word_batch([0])
        push(memory, 0, batch, 0, cycle=10)
        assert memory.tick(10) == 0  # a lone request appended this cycle
        assert memory.tick(11) == 1  # the grant
        assert memory.next_ready(11) == 16
        for cycle in range(12, 16):
            assert memory.tick(cycle) == 0
        assert not memory.rsp_fifos[0]
        assert memory.tick(16) == 1  # the delivery; the adapter pops at 17
        assert list(memory.rsp_fifos[0]) == [(None, batch, 0)]
        assert memory.next_ready(16) == IDLE

    def test_older_request_behind_a_fresh_one_is_granted(self):
        memory, _, _ = make_memory()
        batch = word_batch([0, 17])
        push(memory, 0, batch, 0, cycle=3)
        push(memory, 0, batch, 1, cycle=4)
        assert memory.tick(4) == 1
        assert list(memory.req_fifos[0]) == [(None, batch, 1)]

    def test_response_room_limits_delivery(self):
        """Matured accesses wait in flight while the response FIFO is full,
        and the in-flight cap of 4 x response depth holds back grants."""
        memory, _, _ = make_memory(queue_depth=1)
        batch = word_batch(range(6))
        for slot in range(6):
            push(memory, 0, batch, slot)
        for cycle in range(8):
            memory.tick(cycle)  # nobody pops the response FIFO
        assert len(memory.rsp_fifos[0]) == 1
        assert len(memory._in_flight[0]) == 4
        assert len(memory.req_fifos[0]) == 1
        assert memory.next_ready(8) == IDLE  # woken by the adapter's pop
        memory.rsp_fifos[0].popleft()
        assert memory.tick(8) == 2  # one delivery frees room for one grant

    def test_access_counters(self):
        memory, _, stats = make_memory()
        push(memory, 0, word_batch([0]), 0)
        push(memory, 1, word_batch([1], payload=bytes(4)), 0)
        run(memory)
        assert stats.get("mem.word_reads") == 1
        assert stats.get("mem.word_writes") == 1
        assert stats.get("mem.bank_accesses") == 2

    def test_reset_clears_state(self):
        memory, _, _ = make_memory()
        push(memory, 0, word_batch([0, 17]), 0)
        push(memory, 0, word_batch([0, 17]), 1)
        memory.tick(0)
        memory.tick(1)
        assert memory.busy()
        memory.reset()
        assert not memory.busy()
        assert memory.req_pushed_at == [-1] * 8


class TestFaults:
    @staticmethod
    def plan(kind, **extra):
        return BusFaultPlan.from_json({"faults": [
            {"kind": kind, "addr_lo": 0x100, "addr_hi": 0x104, **extra}]})

    def test_slverr_poisons_without_access(self):
        memory, storage, _ = make_memory(bus_faults=self.plan("slverr"))
        batch = word_batch([0x40], payload=b"\x01\x02\x03\x04")
        push(memory, 0, batch, 0)
        responses, _ = run(memory)
        assert len(responses[0]) == 1
        assert batch.beat_resp == [Resp.SLVERR]
        assert storage.read_bytes(0x100, 4) == bytes(4)

    def test_stall_delays_the_response(self):
        memory, _, _ = make_memory(bus_faults=self.plan("stall",
                                                        stall_cycles=7))
        batch = word_batch([0x40, 0x41])
        push(memory, 0, batch, 0)
        push(memory, 0, batch, 1)
        responses, _ = run(memory)
        # Granted at 0 and 1; the stalled head holds the port's responses.
        assert [cycle for cycle, _ in responses[0]] == [9, 10]

    @staticmethod
    def channel(kind):
        """An adapter in front of a memory whose plan faults bursts that
        start in ``[0x100, 0x104)``."""
        port = AxiPort("tb", 32)
        memory, storage, stats = make_memory(bus_faults=TestFaults.plan(kind))
        adapter = AxiPackAdapter("adapter", port, memory, stats)
        return port, adapter, memory, storage, stats

    @staticmethod
    def drain(port, adapter, memory, cycles=60):
        """Tick both halves as the naive engine does; collect R and B."""
        beats = []
        for cycle in range(cycles):
            for queue in port.all_queues():
                queue.commit()
            for queue in (port.r, port.b):
                while queue.can_pop():
                    beats.append(queue.pop())
            adapter.tick(cycle)
            memory.tick(cycle)
        return beats

    @staticmethod
    def pipes(adapter):
        return [value for converter in adapter.converters
                for value in vars(converter).values()
                if isinstance(value, (LaneReadPipe, LaneWritePipe))]

    def test_lost_read_is_dropped_at_acceptance(self):
        """A lost read burst issues no word and sends no R beat; the read
        behind it is served, and every pipe's in-flight count ends at 0."""
        port, adapter, memory, _, stats = self.channel("lost")
        lost, served = (
            BusRequest(addr=addr, is_write=False, num_elements=8,
                       elem_bytes=4, bus_bytes=32, contiguous=True)
            for addr in (0x100, 0x200))
        port.ar.push(lost)
        port.ar.push(served)
        beats = self.drain(port, adapter, memory)
        assert [beat.txn_id for beat in beats] == [served.txn_id]
        assert stats.get("adapter.word_requests") == 8
        assert stats.get("mem.bank_accesses") == 8
        assert all(not any(pipe.in_flight) for pipe in self.pipes(adapter))
        assert not adapter.busy() and not memory.busy()

    def test_lost_write_drains_its_data_and_writes_nothing(self):
        """A lost write's W beats are consumed and discarded: no word is
        written and no B comes back, while the next write completes."""
        port, adapter, memory, storage, _ = self.channel("lost")
        for addr in (0x100, 0x200):
            port.aw.push(BusRequest(addr=addr, is_write=True, num_elements=8,
                                    elem_bytes=4, bus_bytes=32,
                                    contiguous=True))
            port.w.push(WBeat(data=bytes(range(1, 33)), useful_bytes=32,
                              last=True))
        beats = self.drain(port, adapter, memory)
        assert [type(beat) for beat in beats] == [BBeat]
        assert storage.read_bytes(0x100, 32) == bytes(32)
        assert storage.read_bytes(0x200, 32) == bytes(range(1, 33))
        assert port.w.is_empty()
        assert all(not any(pipe.in_flight) for pipe in self.pipes(adapter))
        assert not adapter.busy() and not memory.busy()


class TestVectorizedArbitration:
    """The batched arbiter grants exactly what the scalar reference would."""

    @staticmethod
    def _reference_grants(ports_words, last_grant, num_ports, num_banks,
                          conflict_free):
        """Seed-tree scalar arbiter: claims dict + per-bank round-robin."""
        claims = {}
        for port, word in ports_words:
            bank = word % num_banks
            claims.setdefault(bank, []).append(port)
        granted = []
        conflicts = 0
        for bank, ports in claims.items():
            if conflict_free:
                granted.extend(ports)
                continue
            if len(ports) == 1:
                winner = ports[0]
            else:
                last = last_grant[bank]
                winner = min(ports, key=lambda p: (p - last - 1) % num_ports)
                conflicts += len(ports) - 1
            last_grant[bank] = winner
            granted.append(winner)
        return sorted(granted), conflicts

    @pytest.mark.parametrize("conflict_free", [False, True],
                             ids=["round-robin", "conflict-free"])
    def test_matches_scalar_reference(self, conflict_free):
        rng = np.random.default_rng(7)
        storage = MemoryStorage(1 << 16)
        config = BankedMemoryConfig(num_ports=8, num_banks=17,
                                    conflict_free=conflict_free)
        memory = BankedMemory("mem", config, storage)
        for trial in range(200):
            memory.reset()
            # Randomize the round-robin history.
            memory._bank_last_grant = [
                int(rng.integers(0, config.num_ports))
                for _ in range(config.num_banks)
            ]
            last_copy = list(memory._bank_last_grant)
            num_claimants = int(rng.integers(1, config.num_ports + 1))
            ports = sorted(rng.choice(config.num_ports, size=num_claimants,
                                      replace=False).tolist())
            words = [int(rng.integers(0, 64)) for _ in ports]
            batch = word_batch(words)
            for slot, port in enumerate(ports):
                push(memory, port, batch, slot)
            before_conflicts = memory.stats.get("mem.bank_conflicts")
            memory._grant(cycle=trial)
            granted = sorted(
                port for port, flight in enumerate(memory._in_flight) if flight
            )
            conflicts = memory.stats.get("mem.bank_conflicts") - before_conflicts
            expected, expected_conflicts = self._reference_grants(
                list(zip(ports, words)), last_copy,
                config.num_ports, config.num_banks, conflict_free,
            )
            assert granted == expected, f"trial {trial}"
            if not conflict_free:
                assert conflicts == expected_conflicts
                assert memory._bank_last_grant == last_copy

    def test_granted_read_deposits_bytes_at_grant(self):
        """The grant itself copies the word into its beat; the response
        FIFO then carries only the tag."""
        storage = MemoryStorage(1 << 16)
        word = np.asarray([0xCAFEF00D], dtype=np.uint32)
        storage.write_array(5 * 4, word)
        memory = BankedMemory(
            "mem", BankedMemoryConfig(num_ports=2, num_banks=3), storage
        )
        batch = word_batch([5])
        push(memory, 0, batch, 0)
        memory._grant(cycle=0)
        assert memory._in_flight[0][0] == (1, (None, batch, 0))
        assert bytes(batch.beat_data[0]) == word.tobytes()

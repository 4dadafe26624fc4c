"""Unit tests for the cycle-level banked memory."""

import numpy as np
import pytest

from repro.mem.banked import BankedMemory, BankedMemoryConfig
from repro.mem.storage import MemoryStorage
from repro.mem.words import WordRequest
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


def make_memory(num_banks=17, num_ports=8, latency=1, conflict_free=False):
    storage = MemoryStorage(1 << 16)
    config = BankedMemoryConfig(num_ports=num_ports, num_banks=num_banks,
                                latency=latency, conflict_free=conflict_free)
    stats = StatsRegistry()
    memory = BankedMemory("mem", config, storage, stats)
    engine = Engine()
    engine.add_component(memory)
    for queue in memory.all_queues():
        engine.add_queue(queue)
    return memory, engine, storage, stats


def push_and_run(memory, engine, requests, max_cycles=1000):
    for request in requests:
        memory.request_queues[request.port].push(request)
    responses = {port: [] for port in range(memory.config.num_ports)}
    def drain():
        done = True
        for port, queue in enumerate(memory.response_queues):
            if queue.can_pop():
                responses[port].append(queue.pop())
        outstanding = memory.busy() or any(
            not q.is_empty() for q in memory.request_queues
        )
        return not outstanding
    cycles = 0
    while cycles < max_cycles:
        engine.step()
        cycles += 1
        if drain() and all(q.is_empty() for q in memory.response_queues):
            break
    return responses, cycles


class TestFunctional:
    def test_read_returns_stored_word(self):
        memory, engine, storage, _ = make_memory()
        storage.write_array(0x40, np.asarray([0xDEADBEEF], dtype=np.uint32))
        responses, _ = push_and_run(memory, engine, [
            WordRequest(port=0, word_addr=0x10, is_write=False, tag="t")
        ])
        # Read responses carry the word payload as raw bytes.
        data = np.frombuffer(responses[0][0].data, dtype=np.uint32)[0]
        assert data == 0xDEADBEEF
        assert responses[0][0].tag == "t"

    def test_write_updates_storage(self):
        memory, engine, storage, _ = make_memory()
        word = np.asarray([1234], dtype=np.uint32).view(np.uint8)
        push_and_run(memory, engine, [
            WordRequest(port=3, word_addr=5, is_write=True, data=word, tag=None)
        ])
        assert storage.read_array(20, 1, np.uint32)[0] == 1234

    def test_write_without_data_rejected(self):
        memory, engine, _, _ = make_memory()
        with pytest.raises(Exception):
            push_and_run(memory, engine, [
                WordRequest(port=0, word_addr=0, is_write=True, data=None)
            ])


class TestTimingAndConflicts:
    def test_parallel_ports_no_conflict(self):
        memory, engine, _, stats = make_memory(num_banks=17)
        requests = [WordRequest(port=p, word_addr=p, is_write=False) for p in range(8)]
        _, cycles = push_and_run(memory, engine, requests)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles <= 6  # one access cycle + latency + queue hops

    def test_same_bank_conflicts_serialize(self):
        memory, engine, _, stats = make_memory(num_banks=16)
        # All eight ports target bank 0 in the same cycle.
        requests = [WordRequest(port=p, word_addr=16 * p, is_write=False) for p in range(8)]
        _, cycles = push_and_run(memory, engine, requests)
        assert stats.get("mem.bank_conflicts") > 0
        assert cycles >= 8

    def test_conflict_free_mode_ignores_conflicts(self):
        memory, engine, _, stats = make_memory(num_banks=16, conflict_free=True)
        requests = [WordRequest(port=p, word_addr=16 * p, is_write=False) for p in range(8)]
        _, cycles = push_and_run(memory, engine, requests)
        assert stats.get("mem.bank_conflicts") == 0
        assert cycles <= 6

    def test_per_port_responses_in_order(self):
        memory, engine, _, _ = make_memory(num_banks=17)
        requests = [
            WordRequest(port=0, word_addr=addr, is_write=False, tag=addr)
            for addr in (5, 22, 39, 1)
        ]
        responses, _ = push_and_run(memory, engine, requests)
        assert [r.tag for r in responses[0]] == [5, 22, 39, 1]

    def test_latency_is_respected(self):
        memory, engine, _, _ = make_memory(latency=5)
        responses, cycles = push_and_run(memory, engine, [
            WordRequest(port=0, word_addr=0, is_write=False)
        ])
        assert len(responses[0]) == 1
        assert cycles >= 6

    def test_access_counters(self):
        memory, engine, _, stats = make_memory()
        word = np.zeros(4, dtype=np.uint8)
        push_and_run(memory, engine, [
            WordRequest(port=0, word_addr=0, is_write=False),
            WordRequest(port=1, word_addr=1, is_write=True, data=word),
        ])
        assert stats.get("mem.word_reads") == 1
        assert stats.get("mem.word_writes") == 1
        assert stats.get("mem.bank_accesses") == 2

    def test_reset_clears_state(self):
        memory, engine, _, _ = make_memory()
        memory.request_queues[0].push(WordRequest(port=0, word_addr=0, is_write=False))
        memory.request_queues[0].commit()
        memory.reset()
        assert not memory.busy()


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
            for port, word in zip(ports, words):
                queue = memory.request_queues[port]
                queue.push(WordRequest(port=port, word_addr=word, is_write=False))
                queue.commit()
            before_conflicts = memory.stats.get("mem.bank_conflicts")
            memory._accept_requests(cycle=trial)
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

    def test_granted_read_reuses_request_as_response(self):
        """A granted read travels back as its own request object, carrying
        the word's bytes in ``data``."""
        storage = MemoryStorage(1 << 16)
        word = np.asarray([0xCAFEF00D], dtype=np.uint32)
        storage.write_array(5 * 4, word)
        memory = BankedMemory(
            "mem", BankedMemoryConfig(num_ports=2, num_banks=3), storage
        )
        request = WordRequest(port=0, word_addr=5, is_write=False, tag="t")
        memory.request_queues[0].push(request)
        memory.request_queues[0].commit()
        memory._accept_requests(cycle=0)
        _ready, response = memory._in_flight[0][0]
        assert response is request
        assert response.data == word.tobytes()

"""Unit tests for the cycle engine and statistics registry."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class Producer(Component):
    """Pushes a fixed number of tokens into a queue."""

    def __init__(self, queue, count):
        super().__init__("producer")
        self.queue = queue
        self.remaining = count

    def tick(self, cycle):
        if self.remaining and self.queue.can_push():
            self.queue.push(self.remaining)
            self.remaining -= 1

    def busy(self):
        return self.remaining > 0


class Consumer(Component):
    """Pops every available token."""

    def __init__(self, queue):
        super().__init__("consumer")
        self.queue = queue
        self.received = []

    def tick(self, cycle):
        if self.queue.can_pop():
            self.received.append(self.queue.pop())


class Stuck(Component):
    """Always busy, never makes progress."""

    def tick(self, cycle):
        pass

    def busy(self):
        return True


class TestEngine:
    def test_producer_consumer_drains(self):
        engine = Engine()
        queue = engine.new_queue("q", 2)
        producer = engine.add_component(Producer(queue, 10))
        consumer = engine.add_component(Consumer(queue))
        engine.drain()
        assert len(consumer.received) == 10
        assert not producer.busy()

    def test_throughput_is_one_item_per_cycle(self):
        engine = Engine()
        queue = engine.new_queue("q", 2)
        engine.add_component(Producer(queue, 20))
        consumer = engine.add_component(Consumer(queue))
        cycles = engine.run_until(lambda: len(consumer.received) == 20, max_cycles=100)
        # One cycle of fill latency plus one item per cycle.
        assert 20 <= cycles <= 25

    def test_run_until_max_cycles(self):
        engine = Engine()
        engine.add_component(Stuck("stuck"))
        with pytest.raises(SimulationError):
            engine.run_until(lambda: False, max_cycles=50)

    def test_deadlock_detection(self):
        engine = Engine(deadlock_window=20)
        engine.new_queue("q", 2)
        engine.add_component(Stuck("stuck"))
        with pytest.raises(DeadlockError):
            engine.drain(max_cycles=10_000)

    def test_reset_restores_cycle_and_queues(self):
        engine = Engine()
        queue = engine.new_queue("q", 2)
        engine.add_component(Producer(queue, 3))
        engine.step(2)
        engine.reset()
        assert engine.cycle == 0
        assert queue.is_empty()

    def test_step_advances_cycle_counter(self):
        engine = Engine()
        engine.step(5)
        assert engine.cycle == 5


class TestStatsRegistry:
    def test_lazy_counter_creation(self):
        stats = StatsRegistry()
        stats.add("a.b", 2)
        stats.add("a.b")
        assert stats.get("a.b") == 3

    def test_get_default(self):
        stats = StatsRegistry()
        assert stats.get("missing", 7.0) == 7.0

    def test_as_dict_sorted(self):
        stats = StatsRegistry()
        stats.add("z")
        stats.add("a")
        assert list(stats.as_dict().keys()) == ["a", "z"]

    def test_reset_keeps_counters(self):
        stats = StatsRegistry()
        stats.add("x", 5)
        stats.reset()
        assert "x" in stats
        assert stats.get("x") == 0

    def test_len(self):
        stats = StatsRegistry()
        stats.add("one")
        stats.add("two")
        assert len(stats) == 2

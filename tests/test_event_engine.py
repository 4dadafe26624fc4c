"""Tests for the event-driven scheduler: wake hints, idle skipping, parity.

The contract under test (see ``docs/simulation.md``): the event-driven
engine must produce *exactly* the same cycle counts, queue contents,
statistics and error behaviour as ticking every component on every cycle —
it is a scheduling optimization, never a semantic change.
"""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.component import IDLE, Component
from repro.sim.engine import Engine


class PeriodicProducer(Component):
    """Pushes one token every ``period`` cycles using wake hints.

    Spurious-wake safe, as the wake-hint contract requires: the push is
    gated on simulated time (``_next_push``), so being ticked early — by
    queue activity or by the tick-every-cycle engine — changes nothing.
    """

    def __init__(self, queue, count, period):
        super().__init__("producer")
        self.queue = queue
        self.remaining = count
        self.period = period
        self._next_push = 0
        self.tick_cycles = []

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        if self.remaining and cycle >= self._next_push and self.queue.can_push():
            self.queue.push(cycle)
            self.remaining -= 1
            self._next_push = cycle + self.period
        if not self.remaining:
            return IDLE
        return self._next_push

    def wake_queues(self):
        return [self.queue]

    def busy(self):
        return self.remaining > 0


class SleepyConsumer(Component):
    """Pops everything available, then sleeps until poked."""

    def __init__(self, queue):
        super().__init__("consumer")
        self.queue = queue
        self.received = []
        self.tick_cycles = []

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        while self.queue.can_pop():
            self.received.append(self.queue.pop())
        return IDLE

    def wake_queues(self):
        return [self.queue]


class LegacyConsumer(Component):
    """Seed-style component: no hints, ticked every cycle."""

    def __init__(self, queue):
        super().__init__("legacy_consumer")
        self.queue = queue
        self.received = []
        self.tick_cycles = []

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        if self.queue.can_pop():
            self.received.append(self.queue.pop())


class StuckSleeper(Component):
    """Claims to be busy forever but never wakes: a genuine deadlock."""

    def tick(self, cycle):
        return IDLE

    def busy(self):
        return True


def build(event_driven, count=5, period=7, consumer_cls=SleepyConsumer):
    engine = Engine(event_driven=event_driven)
    queue = engine.new_queue("q", 4)
    producer = engine.add_component(PeriodicProducer(queue, count, period))
    consumer = engine.add_component(consumer_cls(queue))
    return engine, queue, producer, consumer


class TestIdleSkipCorrectness:
    def test_fast_forward_matches_naive_cycles(self):
        naive, _, np_, nc = build(event_driven=False)
        event, _, ep, ec = build(event_driven=True)
        n_cycles = naive.drain()
        e_cycles = event.drain()
        assert e_cycles == n_cycles
        assert ec.received == nc.received
        assert event.cycle == naive.cycle

    def test_idle_windows_are_actually_skipped(self):
        event, _, producer, consumer = build(event_driven=True, count=5, period=50)
        cycles = event.drain()
        assert cycles > 200  # five tokens, fifty cycles apart
        # The producer runs at its period, not every cycle.
        assert len(producer.tick_cycles) < 20
        assert len(consumer.tick_cycles) < 20

    def test_default_engine_skips_idle_windows(self):
        engine = Engine()
        queue = engine.new_queue("q", 4)
        producer = engine.add_component(PeriodicProducer(queue, 5, 50))
        engine.add_component(SleepyConsumer(queue))
        assert engine.drain() > 200
        assert len(producer.tick_cycles) < 20

    def test_hinted_component_ticks_exactly_at_wake_cycles(self):
        event, _, producer, _ = build(event_driven=True, count=3, period=10)
        event.drain()
        # First tick at registration (cycle 0), then at the hinted period —
        # plus the self-wake one cycle after each push (its queue was touched).
        assert producer.tick_cycles[0] == 0
        assert 10 in producer.tick_cycles
        assert 20 in producer.tick_cycles

    def test_queue_activity_wakes_sleeping_consumer(self):
        event, queue, producer, consumer = build(event_driven=True, count=1, period=30)
        event.drain()
        # Push at cycle 0 commits at end of cycle 0; the consumer must see
        # the token on cycle 1 despite having returned IDLE at cycle 0.
        assert consumer.received == [0]
        assert 1 in consumer.tick_cycles

    def test_step_api_still_advances_one_cycle_at_a_time(self):
        event, _, _, _ = build(event_driven=True)
        event.step(5)
        assert event.cycle == 5

    def test_external_push_commits_while_all_components_sleep(self):
        # A queue pushed from outside the engine (no component awake) must
        # still commit on the next cycle instead of being skipped over.
        event = Engine(event_driven=True)
        queue = event.new_queue("q", 4)
        consumer = event.add_component(SleepyConsumer(queue))
        event.drain()  # consumer goes IDLE with nothing to do
        queue.push("late")
        cycles = event.run_until(lambda: consumer.received == ["late"], max_cycles=10)
        assert consumer.received == ["late"]
        assert cycles <= 2


class TestMixedComponents:
    def test_legacy_component_is_ticked_every_cycle(self):
        event, _, producer, consumer = build(
            event_driven=True, count=3, period=10, consumer_cls=LegacyConsumer
        )
        cycles = event.drain()
        # The legacy consumer pins the engine to cycle-by-cycle stepping...
        assert len(consumer.tick_cycles) == cycles
        # ...while the hinted producer still sleeps between its wakes.
        assert len(producer.tick_cycles) < cycles

    def test_mixed_engine_matches_naive_results(self):
        naive, _, _, nc = build(event_driven=False, consumer_cls=LegacyConsumer)
        event, _, _, ec = build(event_driven=True, consumer_cls=LegacyConsumer)
        assert naive.drain() == event.drain()
        assert ec.received == nc.received


class TestDeadlockAndBudgetParity:
    def test_deadlock_detected_across_skipped_windows(self):
        window = 123
        event = Engine(deadlock_window=window, event_driven=True)
        queue = event.new_queue("q", 2)
        queue.push(1)  # a stuck item keeps drain() from succeeding
        event.add_component(StuckSleeper("stuck"))
        with pytest.raises(DeadlockError):
            event.drain(max_cycles=100_000)
        naive = Engine(deadlock_window=window, event_driven=False)
        nqueue = naive.new_queue("q", 2)
        nqueue.push(1)
        naive.add_component(StuckSleeper("stuck"))
        with pytest.raises(DeadlockError):
            naive.drain(max_cycles=100_000)
        # The error fires at the same simulated cycle in both engines, even
        # though the event engine reached it in one jump.
        assert event.cycle == naive.cycle

    def test_deadlock_counts_cycles_before_and_after_skips(self):
        # Activity at cycle 0 (the push commits), then silence: the window
        # must be measured from the last activity, not from the skip start.
        window = 50
        event = Engine(deadlock_window=window, event_driven=True)
        queue = event.new_queue("q", 4)
        producer = PeriodicProducer(queue, 1, 1000)  # one push, then idle
        event.add_component(producer)
        with pytest.raises(DeadlockError):
            event.run_until(lambda: False, max_cycles=10_000)
        naive = Engine(deadlock_window=window, event_driven=False)
        nqueue = naive.new_queue("q", 4)
        naive.add_component(PeriodicProducer(nqueue, 1, 1000))
        with pytest.raises(DeadlockError):
            naive.run_until(lambda: False, max_cycles=10_000)
        assert event.cycle == naive.cycle

    def test_max_cycles_parity_with_skips(self):
        event = Engine(deadlock_window=10**9, event_driven=True)
        event.add_component(StuckSleeper("stuck"))
        with pytest.raises(SimulationError):
            event.run_until(lambda: False, max_cycles=777)
        naive = Engine(deadlock_window=10**9, event_driven=False)
        naive.add_component(StuckSleeper("stuck"))
        with pytest.raises(SimulationError):
            naive.run_until(lambda: False, max_cycles=777)
        assert event.cycle == naive.cycle == 777


class FractionalWaker(Component):
    """Returns a non-integral wake hint (allowed by the WakeHint contract)."""

    def __init__(self):
        super().__init__("fractional")
        self.tick_cycles = []

    def tick(self, cycle):
        self.tick_cycles.append(cycle)
        return cycle + 1.5


class TestFractionalHints:
    def test_fractional_wake_hint_cannot_stall_the_loop(self):
        event = Engine(event_driven=True)
        waker = event.add_component(FractionalWaker())
        with pytest.raises(SimulationError):
            event.run_until(lambda: False, max_cycles=100)
        assert event.cycle == 100
        # Woken at the first whole cycle at or after each hint, never later.
        assert waker.tick_cycles[:4] == [0, 2, 4, 6]


class TestSystemErrorParity:
    """Error behaviour of real components does not depend on the engine mode."""

    @pytest.mark.parametrize("event_driven", [True, False],
                             ids=["event", "naive"])
    def test_soc_max_cycles_exceeded(self, event_driven):
        """A too-small cycle budget raises on a whole SoC in both modes."""
        from repro.axi.transaction import reset_txn_ids
        from repro.orchestrate.spec import WorkloadSpec
        from repro.system.config import SystemConfig
        from repro.system.soc import build_system

        reset_txn_ids()
        workload = WorkloadSpec.create("gemv", size=16).build()
        config = SystemConfig(memory_bytes=1 << 22)
        soc = build_system(config)
        workload.initialize(soc.storage)
        program = workload.build_program(config.lowering, config.vector_config())
        with pytest.raises(SimulationError):
            soc.run_program(program, max_cycles=10, event_driven=event_driven)

    @pytest.mark.parametrize("event_driven", [True, False],
                             ids=["event", "naive"])
    def test_banked_channel_deadlock_cycle(self, event_driven):
        """A memory latency longer than the deadlock window wedges a PACK
        run at the same cycle in both modes.

        The first word accesses sit in the bank for 11,000 cycles, so no
        queue moves after the adapter's last word hand-off.  Those hand-offs
        through the channel's memory FIFOs count as progress: the window
        runs from the last of them, not from the last AXI queue push.
        """
        from repro.axi.transaction import reset_txn_ids
        from repro.orchestrate.spec import WorkloadSpec
        from repro.system.config import SystemConfig, SystemKind
        from repro.system.soc import build_system

        reset_txn_ids()
        workload = WorkloadSpec.create("spmv", size=16, avg_nnz_per_row=4).build()
        config = SystemConfig(kind=SystemKind.PACK, memory_latency=11_000)
        soc = build_system(config)
        workload.initialize(soc.storage)
        program = workload.build_program(config.lowering, config.vector_config())
        with pytest.raises(DeadlockError) as info:
            soc.run_program(program, event_driven=event_driven)
        diagnosis = info.value.diagnosis
        assert diagnosis.cycle == 10_010
        assert diagnosis.busy_components == ("ara", "banked_channel")


class TestSystemParity:
    """End-to-end: a real workload on both engines, byte-identical."""

    @pytest.mark.parametrize("kind_name", ["base", "pack", "ideal"])
    def test_workload_cycles_and_stats_identical(self, kind_name):
        from repro.axi.transaction import reset_txn_ids
        from repro.orchestrate.spec import WorkloadSpec
        from repro.system.config import SystemConfig, SystemKind
        from repro.system.soc import build_system

        kind = SystemKind(kind_name)

        def run(event_driven):
            reset_txn_ids()
            workload = WorkloadSpec.create("gemv", size=16).build()
            config = SystemConfig().with_kind(kind)
            soc = build_system(config)
            workload.initialize(soc.storage)
            program = workload.build_program(config.lowering, config.vector_config())
            cycles, result = soc.run_program(program, event_driven=event_driven)
            assert workload.verify(soc.storage)
            return cycles, dict(soc.stats.as_dict()), result

        n_cycles, n_stats, n_result = run(False)
        e_cycles, e_stats, e_result = run(True)
        assert e_cycles == n_cycles
        assert e_stats == n_stats
        assert e_result == n_result

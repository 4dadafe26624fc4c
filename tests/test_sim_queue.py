"""Unit tests for the decoupled queue."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.queue import DecoupledQueue


class TestDecoupledQueue:
    def test_push_not_visible_before_commit(self):
        queue = DecoupledQueue("q", 4)
        queue.push(1)
        assert not queue.can_pop()
        queue.commit()
        assert queue.can_pop()
        assert queue.pop() == 1

    def test_fifo_order(self):
        queue = DecoupledQueue("q", 8)
        for value in range(5):
            queue.push(value)
        queue.commit()
        assert [queue.pop() for _ in range(5)] == list(range(5))

    def test_capacity_includes_pending(self):
        queue = DecoupledQueue("q", 2)
        queue.push(1)
        queue.push(2)
        assert not queue.can_push()
        with pytest.raises(SimulationError):
            queue.push(3)

    def test_pop_empty_raises(self):
        queue = DecoupledQueue("q", 2)
        with pytest.raises(SimulationError):
            queue.pop()

    def test_peek_returns_without_removing(self):
        queue = DecoupledQueue("q", 2)
        queue.push("a")
        queue.commit()
        assert queue.peek() == "a"
        assert queue.can_pop()

    def test_peek_empty_raises(self):
        queue = DecoupledQueue("q", 2)
        with pytest.raises(SimulationError):
            queue.peek()

    def test_len_counts_pending_and_committed(self):
        queue = DecoupledQueue("q", 4)
        queue.push(1)
        queue.commit()
        queue.push(2)
        assert len(queue) == 2
        assert queue.occupancy == 1
        assert queue.pending == 1

    def test_depth_must_be_positive(self):
        with pytest.raises(Exception):
            DecoupledQueue("q", 0)

    def test_statistics(self):
        queue = DecoupledQueue("q", 4)
        for value in range(3):
            queue.push(value)
        queue.commit()
        queue.pop()
        assert queue.total_pushed == 3
        assert queue.total_popped == 1

    def test_clear(self):
        queue = DecoupledQueue("q", 4)
        queue.push(1)
        queue.commit()
        queue.push(2)
        queue.clear()
        assert queue.is_empty()

    @given(st.lists(st.integers(), max_size=30))
    def test_order_preserved_property(self, items):
        queue = DecoupledQueue("q", max(1, len(items)))
        for item in items:
            queue.push(item)
        queue.commit()
        popped = [queue.pop() for _ in range(len(items))]
        assert popped == items

"""The event-driven cycle simulation engine.

Per-cycle evaluation keeps the seed engine's two-phase contract:

1. every component *due* this cycle has its
   :meth:`~repro.sim.component.Component.tick` called (order does not affect
   results because queue pushes are not visible until commit);
2. every queue touched this cycle is committed, and every component
   subscribed to a touched queue is woken for the next cycle;
3. the cycle counter increments.

What makes the engine event-driven is *which* components are due: each tick
returns a wake hint (see :mod:`repro.sim.component`), and a component is
only revisited at its hinted cycle or when one of its subscribed queues sees
activity.  When no component is due at the current cycle at all,
:meth:`Engine.run_until` fast-forwards the cycle counter straight to the
earliest wake — preserving exact cycle counts, statistics, deadlock
detection and ``max_cycles`` semantics, because a skipped window is by
construction free of ticks and queue activity.

Deadlock detection watches total queue activity through an O(1) counter
incremented by the queues themselves (instead of summing every queue's
totals each cycle), and by components that hand items between their own
parts without a queue: if no item moves anywhere for ``deadlock_window``
consecutive cycles, a :class:`DeadlockError` is raised with a snapshot of
component states to aid debugging.

A *macro-step* (``Engine.macro_step``) may advance a whole window of busy
cycles in one call instead of ticking the components cycle by cycle; see
:class:`MacroStep`.  Only :meth:`Engine.run_until` in event-driven mode
calls it.

For A/B comparison and regression hunting the seed behaviour is still
available: construct ``Engine(event_driven=False)`` to tick every component
and commit every queue on every cycle.  It never macro-steps.  Both modes
produce identical cycle counts and statistics; the event-driven mode is
simply faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.component import IDLE, Component
from repro.sim.queue import DecoupledQueue


@dataclass(frozen=True)
class QueueState:
    """Occupancy snapshot of one simulation queue at diagnosis time."""

    name: str
    occupancy: int
    depth: int
    #: components subscribed to (i.e. woken by) this queue — the candidates
    #: that should have drained it
    waiters: Tuple[str, ...]

    def describe(self) -> str:
        consumers = ", ".join(self.waiters) if self.waiters else "<none>"
        return f"{self.name} ({self.occupancy}/{self.depth}; waiters: {consumers})"


@dataclass(frozen=True)
class HangDiagnosis:
    """Structured snapshot of a simulation that stopped making progress.

    Attached to :class:`~repro.errors.DeadlockError` (``.diagnosis``) so
    harnesses and the CLI can render *why* a run wedged instead of just that
    it did: which components still claim outstanding work, which queues hold
    undelivered items, and the single most-suspect queue (``blame`` — the
    fullest stuck queue, whose subscribed consumers stopped draining it).
    """

    cycle: int
    window: int
    busy_components: Tuple[str, ...]
    queues: Tuple[QueueState, ...]
    blame: Optional[QueueState]

    def to_dict(self) -> dict:
        """Plain JSON-serializable form for logs and run journals."""
        return {
            "cycle": self.cycle,
            "window": self.window,
            "busy_components": list(self.busy_components),
            "queues": [
                {"name": q.name, "occupancy": q.occupancy, "depth": q.depth,
                 "waiters": list(q.waiters)}
                for q in self.queues
            ],
            "blame": None if self.blame is None else self.blame.name,
        }

    def render(self) -> str:
        """Multi-line human-readable rendering (CLI error output)."""
        lines = [
            f"no forward progress for {self.window} cycles at cycle {self.cycle}",
            "busy components: "
            + (", ".join(self.busy_components) if self.busy_components else "<none>"),
        ]
        if self.queues:
            lines.append("non-empty queues:")
            lines.extend(f"  {q.describe()}" for q in self.queues)
        else:
            lines.append("non-empty queues: <none>")
        if self.blame is not None:
            lines.append(
                f"blame: {self.blame.describe()} — fullest stuck queue; its "
                "waiters stopped draining it"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line form, compatible with the pre-diagnosis report string."""
        stuck = [f"{q.name}({q.occupancy}/{q.depth})" for q in self.queues]
        return (
            f"no forward progress for {self.window} cycles at cycle "
            f"{self.cycle}; busy components: {list(self.busy_components)}; "
            f"non-empty queues: {stuck}"
        )


class MacroStep(Protocol):
    """Advances the components it owns through a window of cycles at once.

    ``advance(cycle, stop)`` is called at the start of ``cycle``, before any
    tick.  If the window it checks for holds, it simulates cycles
    ``cycle .. end - 1`` (``end <= stop``) exactly as the engine would tick
    them, leaves every component, queue, wake and the engine's activity
    counter as those ticks would, commits the queues it touched, and returns
    ``end``; otherwise it returns ``cycle`` and changes nothing.
    ``quiet_from`` is the cycle after the last one of the window that moved
    anything (``cycle`` when none did), for deadlock accounting, and after
    a failed attempt ``retry_at`` is the first cycle worth trying again.  A
    window must not contain a cycle at which ``run_until``'s ``done()``
    turns true.
    """

    quiet_from: int
    retry_at: int

    def advance(self, cycle: int, stop: int) -> int: ...


class Engine:
    """Owns components and queues and advances them cycle by cycle."""

    def __init__(
        self,
        deadlock_window: int = 10_000,
        event_driven: bool = True,
    ) -> None:
        from repro.sim.stats import StatsRegistry

        self.event_driven = event_driven
        self.cycle = 0
        self.stats = StatsRegistry()
        self.deadlock_window = deadlock_window
        self._components: List[Component] = []
        self._wakes: List[float] = []  #: next due cycle per component slot
        self._queues: List[DecoupledQueue] = []
        #: O(1) progress counter, bumped by bound queues on every push/pop
        #: and by components on internal hand-offs (Component._engine)
        self._activity = 0
        self._touched_queues: List[DecoupledQueue] = []  #: dirty list, per cycle
        #: the macro-step ``run_until`` tries in event-driven mode, if any
        self.macro_step: Optional[MacroStep] = None
        #: cycles advanced by the macro-step so far
        self.stepped_cycles = 0

    # ------------------------------------------------------------ registration
    def add_component(self, component: Component) -> Component:
        """Register a component; it is due immediately and then follows hints."""
        component._engine_slot = len(self._components)
        component._engine = self
        self._components.append(component)
        self._wakes.append(self.cycle)
        for queue in component.wake_queues():
            self._subscribe(component, queue)
        return component

    def _subscribe(self, component: Component, queue: DecoupledQueue) -> None:
        """Wake ``component`` whenever ``queue`` sees a push or pop."""
        if queue._waiters_engine is not self:
            queue._waiters_engine = self
            queue._waiters = []
        if component not in queue._waiters:
            queue._waiters.append(component)

    def add_queue(self, queue: DecoupledQueue) -> DecoupledQueue:
        """Register a queue: it joins the engine's dirty/wake bookkeeping."""
        self._queues.append(queue)
        queue._engine = self
        queue._touched = False
        if queue._waiters_engine is not self:
            queue._waiters_engine = self
            queue._waiters = []
        if queue._incoming:
            # Items pushed before registration must still commit next cycle.
            queue._touched = True
            self._touched_queues.append(queue)
        return queue

    def new_queue(self, name: str, depth: int) -> DecoupledQueue:
        """Create and register a queue in one call."""
        return self.add_queue(DecoupledQueue(name, depth))

    # ----------------------------------------------------------------- running
    def step(self, cycles: int = 1) -> None:
        """Advance the simulation by ``cycles`` clock cycles (no skipping)."""
        for _ in range(cycles):
            self._step_one()

    def _step_one(self) -> None:
        """Advance exactly one cycle: tick due components, commit, wake."""
        cycle = self.cycle
        wakes = self._wakes
        if self.event_driven:
            for slot, component in enumerate(self._components):
                if wakes[slot] <= cycle:
                    hint = component.tick(cycle)
                    wakes[slot] = cycle + 1 if hint is None else hint
        else:
            for component in self._components:
                component.tick(cycle)
        touched = self._touched_queues
        if touched:
            next_cycle = cycle + 1
            for queue in touched:
                queue._touched = False
                if queue._incoming:
                    queue.commit()
                for waiter in queue._waiters:
                    slot = waiter._engine_slot
                    if wakes[slot] > next_cycle:
                        wakes[slot] = next_cycle
            del touched[:]
        if not self.event_driven:
            # Seed behaviour: every queue committed every cycle.
            for queue in self._queues:
                queue.commit()
        self.cycle = cycle + 1

    def run_until(
        self,
        done: Callable[[], bool],
        max_cycles: int = 50_000_000,
    ) -> int:
        """Run until ``done()`` returns True; return the cycle count.

        In event-driven mode, windows in which no component is due are
        skipped in one jump (``done()`` cannot change inside such a window:
        no tick runs and no queue moves).  Deadlock and ``max_cycles``
        accounting treat skipped cycles exactly as if they had been stepped
        one by one.

        Raises
        ------
        DeadlockError
            If no queue activity is observed for ``deadlock_window`` cycles.
        SimulationError
            If ``max_cycles`` elapse without completion.
        """
        if not self.event_driven:
            return self._run_until_naive(done, max_cycles)
        start_cycle = self.cycle
        idle_cycles = 0
        last_activity = self._activity
        window = self.deadlock_window
        # The loop below is the simulator's hottest code: the body of
        # ``_step_one`` is inlined and containers are hoisted into locals
        # (registration mutates them in place, so identity is stable).
        wakes = self._wakes
        components = self._components
        touched = self._touched_queues
        step = self.macro_step
        #: next cycle at which to try the macro-step
        step_at: float = IDLE if step is None else start_cycle
        while not done():
            cycle = self.cycle
            if cycle - start_cycle >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without completing"
                )
            if cycle >= step_at:
                assert step is not None  # step_at is finite only with a step
                # The window may not run past the cycle at which the budget
                # or deadlock detection would fire.
                end = step.advance(cycle, min(
                    start_cycle + max_cycles, cycle + (window - idle_cycles)
                ))
                if end > cycle:
                    self.stepped_cycles += end - cycle
                    quiet_from = step.quiet_from
                    if quiet_from > cycle:
                        idle_cycles = end - quiet_from
                    else:
                        idle_cycles += end - cycle
                    last_activity = self._activity
                    self.cycle = end
                    if idle_cycles >= window:
                        raise self._deadlock_error()
                    # A window ends where a component needs a real tick.
                    step_at = end + 1
                    continue
                step_at = step.retry_at
            # Tick every due component; due-ness is discovered during the
            # scan itself, so busy cycles never pay a separate min(wakes).
            ticked = False
            for slot, component in enumerate(components):
                if wakes[slot] <= cycle:
                    hint = component.tick(cycle)
                    wakes[slot] = cycle + 1 if hint is None else hint
                    ticked = True
            # A dirty queue (e.g. pushed from outside the engine between
            # runs) counts as work due this cycle: stepping commits it and
            # wakes its subscribers, exactly like naive stepping would.
            if not ticked and not touched:
                # Nothing is due at the current cycle: fast-forward to the
                # earliest wake, stopping where deadlock detection or the
                # cycle budget would have fired during naive stepping.
                next_wake = min(wakes) if wakes else IDLE
                target = min(
                    next_wake,
                    cycle + (window - idle_cycles),
                    start_cycle + max_cycles,
                )
                # ceil: a fractional wake hint must not truncate to a
                # zero-cycle jump (the loop would never advance).
                skipped = math.ceil(target) - cycle
                idle_cycles += skipped
                self.cycle = cycle + skipped
                if idle_cycles >= window:
                    raise self._deadlock_error()
                continue
            if touched:
                next_cycle = cycle + 1
                for queue in touched:
                    queue._touched = False
                    incoming = queue._incoming
                    if incoming:
                        # Inlined DecoupledQueue.commit.
                        queue._storage.extend(incoming)
                        incoming.clear()
                    for waiter in queue._waiters:
                        slot = waiter._engine_slot
                        if wakes[slot] > next_cycle:
                            wakes[slot] = next_cycle
                del touched[:]
            self.cycle = cycle + 1
            activity = self._activity
            if activity == last_activity:
                idle_cycles += 1
                if idle_cycles >= window:
                    raise self._deadlock_error()
            else:
                idle_cycles = 0
                last_activity = activity
        return self.cycle - start_cycle

    def _run_until_naive(
        self, done: Callable[[], bool], max_cycles: int
    ) -> int:
        """Seed run loop: step every cycle, no skipping."""
        start_cycle = self.cycle
        idle_cycles = 0
        last_activity = self._activity
        while not done():
            if self.cycle - start_cycle >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without completing"
                )
            self._step_one()
            activity = self._activity
            if activity == last_activity:
                idle_cycles += 1
                if idle_cycles >= self.deadlock_window:
                    raise self._deadlock_error()
            else:
                idle_cycles = 0
                last_activity = activity
        return self.cycle - start_cycle

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until every component reports idle and every queue is empty."""
        return self.run_until(self._all_idle, max_cycles=max_cycles)

    # ----------------------------------------------------------------- helpers
    def _all_idle(self) -> bool:
        if any(component.busy() for component in self._components):
            return False
        return all(queue.is_empty() for queue in self._queues)

    def diagnose(self) -> HangDiagnosis:
        """Snapshot why the simulation is (or appears) wedged, right now.

        Public so harnesses can inspect a hung-but-not-yet-deadlocked run;
        the deadlock detector attaches the same snapshot to its
        :class:`~repro.errors.DeadlockError`.
        """
        busy = tuple(c.name for c in self._components if c.busy())
        queues = tuple(
            QueueState(
                name=q.name, occupancy=q.occupancy, depth=q.depth,
                waiters=tuple(w.name for w in q._waiters),
            )
            for q in self._queues
            if not q.is_empty()
        )
        blame = max(
            queues,
            key=lambda q: (q.occupancy / q.depth if q.depth else 0.0,
                           q.occupancy),
            default=None,
        )
        return HangDiagnosis(
            cycle=self.cycle, window=self.deadlock_window,
            busy_components=busy, queues=queues, blame=blame,
        )

    def _deadlock_error(self) -> DeadlockError:
        diagnosis = self.diagnose()
        return DeadlockError(diagnosis.render(), diagnosis=diagnosis)

    def reset(self) -> None:
        """Reset cycle count, statistics, components and queues."""
        self.cycle = 0
        self.stepped_cycles = 0
        self.stats.reset()
        self._wakes = [0] * len(self._components)
        for component in self._components:
            component.reset()
        for queue in self._queues:
            queue.clear()
        for queue in self._touched_queues:
            queue._touched = False
        del self._touched_queues[:]

"""The stream macro-step: exact against per-cycle ticks, and where it runs.

``Soc`` wires :class:`~repro.system.stream.StreamStep` into the
event-driven engine of a single-engine, single-channel banked system
without a fault plan; its windows carry loads, stores or both.  The
tick-every-cycle engine never steps, so it is the reference: every
program below must end with the same cycles,
``stats_snapshot()``, ``EngineResult``, register file and memory image on
both engines, over bank latencies {1, 3, 5} x FIFO depths {1, 2, 4}.  A
second check is stricter: before each window it deep-copies the whole
simulation, ticks the copy through the window cycle by cycle, and requires
every object reachable from the engine (queues, FIFOs, pipes, slot
batches, pointers, port stamps, counters and wakes) to end identical.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import replace
from functools import cached_property
from types import BuiltinFunctionType, FunctionType, MethodType

import numpy as np
import pytest

from repro.axi.faults import BusFaultPlan, BusFaultSpec
from repro.errors import DeadlockError, SimulationError
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.system.config import SystemConfig, SystemKind
from repro.system.stream import StreamStep
from repro.system.soc import build_system
from repro.vector.builder import AraProgramBuilder
from repro.vector.config import LoweringMode

MEMORY_BYTES = 1 << 18
IDX = 0x1000  #: index arrays
X = 0x4000  #: gathered / streamed data
Y = 0x20000  #: store targets
WORDS = 0x4000  #: 64 KiB of seeded data at X

LATENCIES = (1, 3, 5)
DEPTHS = (1, 2, 4)


# ----------------------------------------------------------------- programs
def _gather(builder, n, indices_at, dest="vg"):
    """A gather of ``n`` elements of X through the index array at
    ``indices_at``: in-memory indices on PACK, a register index on BASE."""
    if builder.mode is LoweringMode.PACK:
        builder.vlimxei32(dest, X, indices_at, n)
    else:
        builder.vle32("vi", indices_at, n, kind="index", dtype="uint32")
        builder.vluxei32(dest, X, "vi", n, index_base=indices_at)


def _stream(builder, n, indices_at, dest="vg"):
    """A read stream the step can advance on either system: a gather on
    BASE, a packed strided load on PACK (whose gathers need the index
    stage, which the step does not simulate)."""
    if builder.mode is LoweringMode.PACK:
        builder.vlse32(dest, X + 0x1000, n, stride_elems=3)
    else:
        _gather(builder, n, indices_at, dest)


def bank_colliding_gather(builder):
    # Indices 17 words apart all fall in one of 17 banks.
    _gather(builder, 48, IDX)
    builder.vfredsum("vs", "vg", 48)


def one_port_column(builder):
    # A column stride of 8 words puts every BASE word on one port.
    builder.vlse32("vc", X, 60, stride_elems=8)
    builder.vlse32("vd", X + 4, 60, stride_elems=64)


def full_width_bursts(builder):
    builder.vle32("va", X, 200)
    builder.vlse32("vb", X + 0x800, 90, stride_elems=3)
    builder.vle32("vc", X + 0x2000, 128)


def cut_by_timer(builder):
    # The short load finishes first; its completion timer matures while
    # the gather still streams.
    builder.vle32("va", X + 0x100, 8)
    _stream(builder, 40, IDX + 0x200)


def cut_by_stall_end(builder):
    # The scalar work stalls dispatch; when the stall ends the compute
    # dispatches in the middle of the gather's stream.
    builder.vmv_vx("vz", 2.0, 16)
    _stream(builder, 40, IDX)
    builder.scalar(12)
    builder.vfmul_vf("vy", "vz", 3.0, 16)


def cut_by_chained_compute(builder):
    # The multiply chains on the first load and retires while the second
    # load streams.
    builder.vle32("va", X + 0x40, 16)
    builder.vfmul("vm", "va", "va", 16)
    _stream(builder, 40, IDX + 0x200)


def overlapping_store(builder):
    builder.vmv_vx("vz", 1.5, 64)
    _stream(builder, 48, IDX)
    builder.vse32("vz", Y, 64)
    builder.vlse32("vc", X, 32, stride_elems=5)


def strided_store(builder):
    # BASE: one narrow AW, W beat and B response per element; PACK: packed
    # strided write bursts.
    builder.vle32("vz", X, 96)
    builder.vsse32("vz", Y, 96, stride_elems=3)


def ismt_row(builder):
    # One row of the in-place transpose of a 64 x 64 matrix at X: both
    # loads, then the two ordered stores, each fenced behind all earlier
    # memory traffic.
    builder.vle32("v1", X + 4, 63)
    builder.vlse32("v2", X + 256, 63, stride_elems=64)
    builder.vsse32("v1", X + 256, 63, stride_elems=64, ordered=True)
    builder.vse32("v2", X + 4, 63, ordered=True)


def gather_beside_a_store(builder):
    # csrspmv's first pass: each chunk's unordered product store streams
    # while the next chunk's loads and gather do.
    for chunk in range(3):
        builder.vle32("va", X + 0x2000 + chunk * 0x100, 48)
        _stream(builder, 48, IDX + 0x200 + chunk * 0xC0)
        builder.vfmul("vp", "va", "vg", 48)
        builder.vse32("vp", Y + chunk * 0x100, 48)


def cut_by_a_completing_store(builder):
    # Two unordered stores in flight at once: the first one's last B
    # response completes it while the second still streams.
    builder.vle32("vz", X, 64)
    builder.vsse32("vz", Y, 64, stride_elems=5)
    builder.vsse32("vz", Y + 0x2000, 64, stride_elems=7)


def one_port_store(builder):
    # A stride of 8 words puts every word on one port, whose request FIFO
    # fills and holds the write pipe back.
    builder.vle32("vz", X, 64)
    builder.vsse32("vz", Y, 64, stride_elems=8)


PROGRAMS = {
    "bank-colliding gather": bank_colliding_gather,
    "one-port column": one_port_column,
    "full-width bursts": full_width_bursts,
    "cut by a timer": cut_by_timer,
    "cut by a stall end": cut_by_stall_end,
    "cut by a chained compute": cut_by_chained_compute,
    "overlapping store": overlapping_store,
    "strided store": strided_store,
    "ismt row": ismt_row,
    "gather beside a store": gather_beside_a_store,
    "cut by a completing store": cut_by_a_completing_store,
    "one-port store": one_port_store,
}

#: every (system, program) with a window: a packed gather has none
STREAMS = [
    (kind, name)
    for kind in (SystemKind.BASE, SystemKind.PACK)
    for name in sorted(PROGRAMS)
    if (kind, name) != (SystemKind.PACK, "bank-colliding gather")
]


def _initialize(storage):
    rng = np.random.default_rng(7)
    storage.write(X, rng.random(WORDS, dtype=np.float32).tobytes())
    # 0, 17, 34, ...: every gathered word in one bank; then a spread.
    colliding = (np.arange(256, dtype=np.uint32) * 17) % 2048
    storage.write(IDX, colliding.tobytes())
    spread = rng.integers(0, 2048, 256, dtype=np.uint32)
    storage.write(IDX + 0x200, spread.tobytes())


def _config(kind, latency=1, depth=4, **changes):
    config = SystemConfig(memory_bytes=MEMORY_BYTES, memory_latency=latency,
                          queue_depth=depth).with_kind(kind)
    return replace(config, **changes)


def _run(config, name, event_driven=True):
    soc = build_system(config)
    _initialize(soc.storage)
    builder = AraProgramBuilder(name, config.lowering)
    PROGRAMS[name](builder)
    cycles, result = soc.run_program(builder.build(), event_driven=event_driven)
    registers = sorted(
        (reg, value.tobytes())
        for reg, value in soc.last_engines[0].regfile._vector.items()
    )
    outcome = (cycles, soc.stats_snapshot(), vars(result), registers,
               soc.storage.snapshot().tobytes())
    return outcome, soc


# ------------------------------------------------------------ exact states
def _state(root):
    """A comparable form of every object reachable from ``root``.

    Shared objects are kept shared (a second visit records the first
    visit's number), so aliasing must match too.  The macro-step object,
    the engine's own stepping bookkeeping and ``cached_property`` memos
    (which geometry a path happened to read) are left out.
    """
    seen = {}

    def walk(obj):
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return obj
        if isinstance(obj, enum.Enum):
            return ("enum", type(obj).__name__, obj.name)
        if isinstance(obj, (FunctionType, BuiltinFunctionType, type)):
            return ("code", getattr(obj, "__qualname__", repr(obj)))
        if isinstance(obj, (StreamStep, _CheckedStep)):
            return ("step",)
        key = id(obj)
        if key in seen:
            return ("ref", seen[key])
        seen[key] = len(seen)
        if isinstance(obj, MethodType):
            return ("method", obj.__func__.__qualname__, walk(obj.__self__))
        if isinstance(obj, (bytearray, memoryview)):
            return ("buffer", bytes(obj))
        if isinstance(obj, np.ndarray):
            return ("array", str(obj.dtype), obj.shape, obj.tobytes())
        if isinstance(obj, np.generic):
            return ("scalar", obj.item())
        if isinstance(obj, (list, tuple)) or type(obj).__name__ == "deque":
            return (type(obj).__name__, [walk(item) for item in obj])
        if isinstance(obj, dict):
            return ("dict", [(walk(k), walk(v)) for k, v in obj.items()])
        if isinstance(obj, (set, frozenset)):
            return ("set", sorted(repr(walk(item)) for item in obj))
        names = set(getattr(obj, "__dict__", ()))
        for cls in type(obj).__mro__:
            names.update(getattr(cls, "__slots__", ()))
        if isinstance(obj, Engine):
            names -= {"macro_step", "stepped_cycles", "cycle"}
        fields = []
        for name in sorted(names):
            if hasattr(obj, name) and not isinstance(
                getattr(type(obj), name, None), cached_property
            ):
                fields.append((name, walk(getattr(obj, name))))
        return (type(obj).__qualname__, fields)

    return walk(root)


def _copy_memoryview(view, memo):
    owner = view.obj
    assert view.nbytes == memoryview(owner).nbytes, "a sliced view"
    return memoryview(copy.deepcopy(owner, memo))


class _CheckedStep:
    """Wraps the wired step: each window is replayed tick by tick on a
    deep copy of the simulation, and both must end in the same state."""

    def __init__(self, step):
        self.step = step
        self.windows = 0

    @property
    def quiet_from(self):
        return self.step.quiet_from

    @property
    def retry_at(self):
        return self.step.retry_at

    def advance(self, cycle, stop):
        engine = self.step.engine
        copy._deepcopy_dispatch[memoryview] = _copy_memoryview
        try:
            reference = copy.deepcopy(engine)
        finally:
            del copy._deepcopy_dispatch[memoryview]
        end = self.step.advance(cycle, stop)
        if end > cycle:
            self.windows += 1
            reference.macro_step = None
            for _ in range(end - cycle):
                reference._step_one()
            assert reference.cycle == end
            assert _state(engine) == _state(reference), (
                f"window {cycle}..{end} left a different state than ticking"
            )
        return end


# -------------------------------------------------------------------- tests
@pytest.mark.parametrize("latency", LATENCIES)
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("kind", [SystemKind.BASE, SystemKind.PACK])
def test_event_and_naive_engines_agree(kind, depth, latency):
    stepped = 0
    for name in PROGRAMS:
        config = _config(kind, latency, depth)
        event, soc = _run(config, name)
        naive, _ = _run(config, name, event_driven=False)
        assert event == naive, name
        stepped += soc.last_sim.stepped_cycles
    assert stepped > 0


def _windows(monkeypatch):
    """Record every window the wired steps advance, as (start, end)."""
    windows = []
    original = StreamStep.advance

    def advance(step, cycle, stop):
        end = original(step, cycle, stop)
        if end > cycle:
            windows.append((cycle, end))
        return end

    monkeypatch.setattr(StreamStep, "advance", advance)
    return windows


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("kind", [SystemKind.BASE, SystemKind.PACK])
def test_the_step_advances_where_the_window_holds(kind, name, monkeypatch):
    windows = _windows(monkeypatch)
    event, soc = _run(_config(kind), name)
    stepped = soc.last_sim.stepped_cycles
    assert stepped == sum(end - start for start, end in windows)
    if (kind, name) not in STREAMS:
        # A packed gather keeps the index stage busy: no window holds.
        assert not windows
        return
    assert windows
    # Each window ends before the cycle that needs a real tick, so the
    # engine ticked the rest: the step never covers a whole run.
    assert stepped < event[0]
    if name.startswith("cut by"):
        assert len(windows) >= 2


@pytest.mark.parametrize("latency,depth", [(1, 4), (3, 1), (5, 2)])
@pytest.mark.parametrize("kind,name", STREAMS)
def test_each_window_writes_back_what_ticks_would(kind, name, latency, depth,
                                                  monkeypatch):
    checked = []
    original = Engine.run_until

    def run_until(engine, done, max_cycles=50_000_000):
        if engine.macro_step is not None:
            engine.macro_step = _CheckedStep(engine.macro_step)
            checked.append(engine.macro_step)
        return original(engine, done, max_cycles)

    monkeypatch.setattr(Engine, "run_until", run_until)
    config = _config(kind, latency, depth)
    event, _ = _run(config, name)
    monkeypatch.undo()
    naive, _ = _run(config, name, event_driven=False)
    assert event == naive
    assert checked and checked[0].windows > 0


def _stepped_share(kind, program):
    config = _config(kind)
    soc = build_system(config)
    _initialize(soc.storage)
    builder = AraProgramBuilder("stream", config.lowering)
    program(builder)
    cycles, _ = soc.run_program(builder.build())
    return soc.last_sim.stepped_cycles / cycles


def test_a_long_stream_is_mostly_stepped():
    """A BASE gather streams one word per cycle; nearly all of it is
    advanced by macro-steps."""
    share = _stepped_share(
        SystemKind.BASE, lambda builder: _gather(builder, 256, IDX + 0x200))
    assert share > 0.8


def test_a_long_narrow_store_stream_is_mostly_stepped():
    """A BASE strided store pushes one narrow AW and W beat and pops one B
    response per cycle; nearly all of it is advanced by macro-steps."""
    def program(builder):
        builder.vle32("vz", X, 256)
        builder.vsse32("vz", Y, 256, stride_elems=3)

    assert _stepped_share(SystemKind.BASE, program) > 0.8


def test_a_packed_scatter_gets_no_window(monkeypatch):
    """A PACK ``vsimxei32`` scatter keeps the index stage busy from its
    first AW on, so no window ever holds."""
    windows = _windows(monkeypatch)
    config = _config(SystemKind.PACK)
    soc = build_system(config)
    _initialize(soc.storage)
    builder = AraProgramBuilder("scatter", config.lowering)
    builder.vmv_vx("vz", 1.5, 64)
    builder.vsimxei32("vz", Y, IDX, 64)
    event = soc.run_program(builder.build())
    assert not windows and soc.last_sim.stepped_cycles == 0
    soc = build_system(config)
    _initialize(soc.storage)
    assert soc.run_program(builder.build(), event_driven=False) == event


# ------------------------------------------------ run_until's accounting
class _Scripted(Component):
    """Ticked every cycle; moves something on the cycles in ``active``."""

    def __init__(self, active):
        super().__init__("scripted")
        self.active = set(active)

    def tick(self, cycle):
        if cycle in self.active:
            self._engine._activity += 1
        return cycle + 1

    def busy(self):
        return True


class _ScriptedStep:
    """Advances a :class:`_Scripted` component in windows of ``size``
    cycles, exactly as its ticks would."""

    def __init__(self, engine, component, size):
        self.engine = engine
        self.component = component
        self.size = size
        self.quiet_from = 0
        self.retry_at = 0
        self.windows = []

    def advance(self, cycle, stop):
        end = min(cycle + self.size, stop)
        quiet = cycle
        for t in range(cycle, end):
            if t in self.component.active:
                self.engine._activity += 1
                quiet = t + 1
        self.engine._wakes[self.component._engine_slot] = end
        self.quiet_from = quiet
        self.windows.append((cycle, end, stop))
        return end


def _scripted(active, size, event_driven=True, window=25):
    engine = Engine(deadlock_window=window, event_driven=event_driven)
    component = engine.add_component(_Scripted(active))
    step = None
    if size:
        step = engine.macro_step = _ScriptedStep(engine, component, size)
    return engine, step


@pytest.mark.parametrize("size", [1, 2, 7, 24, 25, 26, 100])
def test_deadlock_fires_where_naive_stepping_fires(size):
    # Quiet from 10 to 29, moving again at 30: the idle count restarts
    # there, so the 25-cycle window fires at 31 + 25.
    active = list(range(10)) + [30]
    naive, _ = _scripted(active, 0, event_driven=False)
    with pytest.raises(DeadlockError):
        naive.run_until(lambda: False)
    engine, step = _scripted(active, size)
    with pytest.raises(DeadlockError):
        engine.run_until(lambda: False)
    assert engine.cycle == naive.cycle == 31 + 25
    assert step.windows and engine.stepped_cycles > 0
    # No window ran past the cycle at which deadlock detection fires.
    assert all(end <= stop for _start, end, stop in step.windows)


@pytest.mark.parametrize("size", [1, 5, 50, 1000])
def test_max_cycles_fires_where_naive_stepping_fires(size):
    active = range(0, 10_000, 3)
    naive, _ = _scripted(active, 0, event_driven=False)
    with pytest.raises(SimulationError):
        naive.run_until(lambda: False, max_cycles=777)
    engine, step = _scripted(active, size)
    with pytest.raises(SimulationError):
        engine.run_until(lambda: False, max_cycles=777)
    assert engine.cycle == naive.cycle == 777
    assert max(end for _start, end, _stop in step.windows) <= 777


def test_soc_budget_expires_inside_a_window_at_the_naive_cycle():
    config = _config(SystemKind.BASE)
    outcome, soc = _run(config, "bank-colliding gather")
    for budget in range(20, outcome[0], 9):
        cycles = []
        for event_driven in (True, False):
            soc = build_system(config)
            _initialize(soc.storage)
            builder = AraProgramBuilder("budget", config.lowering)
            bank_colliding_gather(builder)
            with pytest.raises(SimulationError):
                soc.run_program(builder.build(), max_cycles=budget,
                                event_driven=event_driven)
            cycles.append(soc.last_sim.cycle)
        assert cycles == [budget, budget]


# ---------------------------------------------------------------- wiring
def _wired(config, event_driven=True):
    soc = build_system(config)
    _initialize(soc.storage)
    builder = AraProgramBuilder("wiring", config.lowering)
    _gather(builder, 48, IDX + 0x200)
    builder.vlse32("vc", X, 60, stride_elems=8)
    if config.num_engines == 1:
        soc.run_program(builder.build(), event_driven=event_driven)
    else:
        program = builder.build()
        soc.run_programs([program] * config.num_engines,
                         event_driven=event_driven)
    return soc.last_sim


def test_wired_on_one_engine_one_banked_channel():
    sim = _wired(_config(SystemKind.BASE))
    assert isinstance(sim.macro_step, StreamStep)
    assert sim.stepped_cycles > 0


@pytest.mark.parametrize("config", [
    _config(SystemKind.BASE).with_bus_faults(
        BusFaultPlan((BusFaultSpec(kind="slverr", addr_lo=Y, addr_hi=Y + 4),))),
    _config(SystemKind.BASE).with_engines(2),
    _config(SystemKind.BASE).with_channels(2),
    _config(SystemKind.IDEAL),
], ids=["fault plan", "two engines", "two channels", "ideal"])
def test_never_wired_elsewhere(config):
    sim = _wired(config)
    assert sim.macro_step is None
    assert sim.stepped_cycles == 0


def test_the_naive_engine_never_steps():
    sim = _wired(_config(SystemKind.BASE), event_driven=False)
    assert sim.macro_step is None
    assert sim.stepped_cycles == 0

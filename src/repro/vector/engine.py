"""Cycle-level vector engine: in-order dispatch, chaining, and the VLSU.

The engine executes an assembled :class:`~repro.vector.builder.Program`
against an AXI port.  It is the model of CVA6 + Ara used by all three
evaluation systems; only the *lowering mode* changes between them (how
strided/indexed accesses become bus requests).

Timing model
------------
* Instructions dispatch in order, one per ``ISSUE_CYCLES`` cycles; scalar
  work blocks dispatch for its duration (loop bookkeeping overhead).
* Memory operations occupy the vector load/store unit; up to
  ``MAX_OUTSTANDING_LOADS``/``STORES`` may be in flight.  Their duration is
  whatever the downstream memory system takes — the engine just pushes one
  request per cycle and consumes one R beat / pushes one W beat per cycle.
* Arithmetic operations run on the lanes at ``lanes`` elements per cycle and
  *chain* on their producers: a chained op completes shortly after its last
  operand element arrives rather than waiting for the full operand first.
* Reductions pay an extra tree-and-drain latency and cannot chain their
  result, which is what makes row-wise dataflows reduction-bound (Fig. 3b/c).
* Ordered stores act as memory fences (the in-place transpose needs this,
  which is why its R utilization saturates at 50 % — §III-B).

Functional model
----------------
Loads deposit real bytes into the register file, stores write register
contents back to the memory model, and arithmetic ops with an ``fn`` compute
real numpy results — so every workload's output can be checked against a
reference implementation.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.axi.builder import RequestBuilder
from repro.axi.monitor import ChannelMonitor
from repro.axi.port import AxiPort
from repro.axi.signals import WBeat
from repro.axi.stream import ContiguousStream, IndirectStream, StridedStream
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.errors import SimulationError, WorkloadError
from repro.sim.component import IDLE, Component, WakeHint
from repro.vector.builder import Program
from repro.vector.config import (
    REGISTER_GROUP_BYTES,
    LoweringMode,
    VectorEngineConfig,
)
from repro.vector.ops import (
    KIND_COMPUTE,
    KIND_LOAD,
    KIND_SCALAR,
    KIND_STORE,
    VectorCompute,
    VectorLoad,
    VectorOp,
)
from repro.vector.regfile import VectorRegisterFile

_DTYPES = {"float32": np.float32, "uint32": np.uint32, "int32": np.int32,
           "float64": np.float64, "uint64": np.uint64}

_RESP_OKAY = Resp.OKAY

# Fixed timing of the paper's Ara, in cycles.
ISSUE_CYCLES = 1            #: dispatch cost of every vector instruction
CHAIN_LATENCY = 4           #: lane pipeline depth seen by chained ops
REDUCTION_STEP_LATENCY = 3  #: per-tree-level latency of reductions
REDUCTION_DRAIN = 5         #: fixed cost of moving a reduction result out
ADDR_SETUP_CYCLES = 2       #: VLSU address-generation cost per memory op
MEMORY_LATENCY_SLACK = 4    #: address-generation / response tail per burst
#: Memory ops the load and the store unit each keep in flight.
MAX_OUTSTANDING_LOADS = 2
MAX_OUTSTANDING_STORES = 2


@dataclass(frozen=True)
class BusFault:
    """Structured record of one failed (or timed-out) vector memory op.

    ``resp`` is the AXI response name (``"SLVERR"``/``"DECERR"``) or
    ``"TIMEOUT"`` when the per-transaction watchdog abandoned the op after
    its responses stopped arriving.  One record is emitted per failing op
    (the first error beat wins; later beats of the same op only escalate
    the severity the controller already reported in-band).
    """

    engine: str
    op_index: int
    kind: str  #: "load" | "store"
    addr: int
    resp: str
    cycle: int

    def to_dict(self) -> dict:
        """Plain JSON-serializable form, used by the system fault report."""
        return {
            "engine": self.engine,
            "op_index": self.op_index,
            "kind": self.kind,
            "addr": self.addr,
            "resp": self.resp,
            "cycle": self.cycle,
        }


class _MemOpState:
    """In-flight bookkeeping of one vector load or store."""

    __slots__ = (
        "op",
        "requests",
        "is_load",
        "kind",
        "next_request",
        "total_beats",
        "beats_done",
        "responses_pending",
        "chunks",
        "positions",
        "first_beat_cycle",
        "ready_cycle",
        "resp",
        "deadline",
    )

    def __init__(
        self,
        op: VectorOp,
        requests: List[BusRequest],
        is_load: bool,
    ) -> None:
        self.op = op
        self.requests = requests
        self.is_load = is_load
        #: R-monitor tag of the op's beats ("data", or "index" for an index
        #: fetch into registers)
        self.kind: str = getattr(op, "kind", "data")
        self.next_request = 0
        self.beats_done = 0
        self.responses_pending = len(requests)
        # The single-request case dominates (one burst per op on most
        # workloads); skip the comprehension machinery for it.
        if len(requests) == 1:
            request = requests[0]
            self.total_beats = request.num_beats
            #: collected R payload per transaction
            self.chunks: Dict[int, List[bytes]] = {request.txn_id: []}
            self.positions: Dict[int, int] = {request.txn_id: 0}
        else:
            self.total_beats = sum(request.num_beats for request in requests)
            self.chunks = {request.txn_id: [] for request in requests}
            self.positions = {
                request.txn_id: index for index, request in enumerate(requests)
            }
        self.first_beat_cycle: Optional[int] = None
        self.ready_cycle = 0  #: address generation done, requests may be issued
        self.resp = _RESP_OKAY  #: worst in-band response seen on any beat
        self.deadline: Optional[int] = None  #: watchdog expiry (None = unarmed)

    @property
    def all_issued(self) -> bool:
        return self.next_request >= len(self.requests)

    @property
    def complete(self) -> bool:
        if self.is_load:
            return self.beats_done >= self.total_beats
        return self.all_issued and self.responses_pending == 0

    def payload(self) -> bytes:
        """Concatenated packed payload in stream order (loads only)."""
        parts: List[bytes] = []
        for request in self.requests:
            parts.extend(self.chunks[request.txn_id])
        return b"".join(parts)


@dataclass
class EngineResult:
    """Measurements of one program execution."""

    cycles: int
    instructions: int
    r_beats: int
    r_useful_bytes: int
    r_data_bytes: int
    r_index_bytes: int
    w_beats: int
    w_useful_bytes: int
    bus_bytes: int

    @classmethod
    def aggregate(cls, results: "List[EngineResult]", cycles: int) -> "EngineResult":
        """Combine per-engine measurements of one multi-engine run.

        Traffic counts are summed across engines while ``cycles`` is the
        shared wall time of the run, so the utilization properties measure
        the *aggregate* traffic over the one shared downstream bus — the
        contention metric a multi-requestor topology is judged by.
        """
        if not results:
            raise SimulationError("cannot aggregate an empty result list")
        return cls(
            cycles=cycles,
            instructions=sum(r.instructions for r in results),
            r_beats=sum(r.r_beats for r in results),
            r_useful_bytes=sum(r.r_useful_bytes for r in results),
            r_data_bytes=sum(r.r_data_bytes for r in results),
            r_index_bytes=sum(r.r_index_bytes for r in results),
            w_beats=sum(r.w_beats for r in results),
            w_useful_bytes=sum(r.w_useful_bytes for r in results),
            bus_bytes=results[0].bus_bytes,
        )

    @property
    def r_utilization(self) -> float:
        """R-channel utilization including index traffic."""
        if self.cycles == 0:
            return 0.0
        return self.r_useful_bytes / (self.bus_bytes * self.cycles)

    @property
    def r_utilization_no_index(self) -> float:
        """R-channel utilization counting only data payload (no indices)."""
        if self.cycles == 0:
            return 0.0
        return self.r_data_bytes / (self.bus_bytes * self.cycles)

    @property
    def w_utilization(self) -> float:
        """W-channel utilization."""
        if self.cycles == 0:
            return 0.0
        return self.w_useful_bytes / (self.bus_bytes * self.cycles)


class VectorEngine(Component):
    """Executes one program, driving an AXI/AXI-Pack port for memory traffic."""

    def __init__(
        self,
        name: str,
        program: Program,
        port: AxiPort,
        config: Optional[VectorEngineConfig] = None,
        mode: Optional[LoweringMode] = None,
        watchdog_cycles: int = 0,
    ) -> None:
        super().__init__(name)
        self.program = program
        self.port = port
        self.config = config or VectorEngineConfig()
        self.mode = mode or program.mode
        self.regfile = VectorRegisterFile(REGISTER_GROUP_BYTES)
        self.request_builder = RequestBuilder(port.bus_bytes)
        self.r_monitor = ChannelMonitor("R", port.bus_bytes)
        self.w_monitor = ChannelMonitor("W", port.bus_bytes)

        self._next_op = 0
        self._ops = program.ops  #: prebound: indexed every dispatch attempt
        self._num_ops = len(program.ops)
        self._r_queue = port.r  #: prebound hot channels (checked every tick)
        self._b_queue = port.b
        self._stall_until = 0  #: first cycle at which dispatch may run again
        self._timers: List[float] = []  #: heap of future wake deadlines
        #: deadlines currently on the heap — many ops complete on the same
        #: cycle, so deduplicating pushes keeps the heap (and its per-tick
        #: drain) proportional to distinct deadlines, not completions
        self._timer_set: set = set()
        self._done_at: Dict[int, int] = {}
        self._latest_completion = 0
        self._active_loads: List[_MemOpState] = []
        self._active_stores: List[_MemOpState] = []
        #: the next memory op failed :meth:`_try_dispatch_memory`.  Every
        #: failure condition reads only the two active lists, which only
        #: dispatch grows, so the retry waits until an op leaves them
        #: (:meth:`_finish_load`, :meth:`_consume_b`, :meth:`_abandon_op`)
        self._dispatch_blocked = False
        #: AR/AW requests dispatched but not yet pushed onto the port —
        #: gates the per-tick scan over the active memory ops
        self._unissued_requests = 0
        self._by_txn: Dict[int, _MemOpState] = {}
        #: pending W beats: (request, beat index, payload chunk, useful)
        self._w_backlog: Deque[Tuple[BusRequest, int, bytes, int]] = deque()
        self._pending_computes: List = []
        self._scheduled_computes: set = set()
        self._alu_busy_until = 0
        self._cycle = 0
        #: per-transaction watchdog period in cycles; 0 disables it.  Armed at
        #: dispatch and re-armed on every request issue and response beat, so
        #: it only fires when an op stops making forward progress entirely
        #: (e.g. a lost R/B response).
        self._watchdog_cycles = watchdog_cycles
        #: structured abort state: one BusFault per failing memory op.  The
        #: first fault flips ``_aborting``, which stops dispatch; in-flight
        #: ops still drain so the SoC ends in a consistent, reusable state.
        self.faults: List[BusFault] = []
        self._aborting = False
        #: transactions abandoned by the watchdog — late beats for these are
        #: silently dropped instead of tripping the unknown-txn check
        self._abandoned_txns: set = set()

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        self._cycle = cycle
        if self._r_queue._storage:
            self._consume_r(cycle)
        if self._b_queue._storage:
            self._consume_b(cycle)
        if self._pending_computes:
            self._retire_computes(cycle)
        if self._watchdog_cycles and (self._active_loads or self._active_stores):
            self._check_watchdog(cycle)
        hint = self._dispatch(cycle)
        if self._unissued_requests:
            self._push_requests(cycle)
        if self._w_backlog:
            self._push_w_data(cycle)
        # Everything queue-gated (R/B arrivals, AR/AW/W back-pressure) re-wakes
        # us through the port subscriptions; the timer heap covers everything
        # time-gated (op completions, address setup, dispatch stalls).  All
        # matured deadlines are resolved in one batched drain.
        timers = self._timers
        if timers:
            discard = self._timer_set.discard
            while timers and timers[0] <= cycle:
                discard(heappop(timers))
            if timers and timers[0] < hint:
                hint = timers[0]
        return hint

    def wake_queues(self):
        return self.port.all_queues()

    # ------------------------------------------------------------- completion
    def _wake_at(self, cycle: int) -> None:
        """Put ``cycle`` on the timer heap (once), so the engine ticks then."""
        if cycle not in self._timer_set:
            self._timer_set.add(cycle)
            heappush(self._timers, cycle)

    def _mark_done(self, op_id: int, cycle: int) -> None:
        self._done_at[op_id] = cycle
        if cycle > self._cycle:
            self._wake_at(cycle)
        if cycle > self._latest_completion:
            self._latest_completion = cycle

    def _op_done(self, op_id: int, cycle: int) -> bool:
        return op_id in self._done_at and self._done_at[op_id] <= cycle

    def _deps_done(self, op: VectorOp, cycle: int) -> bool:
        done_at = self._done_at
        for dep in op.deps:
            at = done_at.get(dep)
            if at is None or at > cycle:
                return False
        return True

    def _load_deps_ready(self, op: VectorOp, cycle: int) -> bool:
        """Dependency check for loads.

        A load's dependency on an arithmetic op is a register-reuse (WAR/WAW)
        hazard, not a data dependency; real chaining resolves it at element
        granularity, so it is enough that the arithmetic op has captured its
        operands (been scheduled).  Dependencies on memory ops (index
        registers, fences) still require completion.
        """
        for dep in op.deps:
            if self._op_done(dep, cycle):
                continue
            dep_op = self.program.ops[dep]
            if isinstance(dep_op, VectorCompute) and dep in self._scheduled_computes:
                continue
            return False
        return True

    def done(self) -> bool:
        """True once every instruction has been dispatched and completed.

        An aborting engine is done once its in-flight traffic has drained —
        undispatched instructions past the faulting op are dropped, not run.
        """
        if self._next_op < self._num_ops and not self._aborting:
            return False
        if self._active_loads or self._active_stores or self._pending_computes:
            return False
        if self._w_backlog:
            return False
        return self._latest_completion <= self._cycle

    def busy(self) -> bool:
        return not self.done()

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, cycle: int) -> float:
        """Dispatch at most one instruction; return the dispatch wake hint.

        The hint is the next cycle at which dispatch itself must be retried
        (:data:`IDLE` when dispatch is blocked on events that re-wake the
        engine anyway: op completions land on the timer heap via
        :meth:`_mark_done`, and memory-slot/fence pressure clears only when
        R/B beats arrive on the subscribed port queues).

        Runs every awake cycle with a pending instruction, so it branches on
        the ops' integer ``KIND`` tags instead of isinstance chains.
        """
        next_op = self._next_op
        if next_op >= self._num_ops or self._aborting or self._dispatch_blocked:
            return IDLE
        if cycle < self._stall_until:
            return self._stall_until
        op = self._ops[next_op]
        kind = op.KIND
        if kind == KIND_LOAD:
            if not self._load_deps_ready(op, cycle):
                return IDLE
            if not self._try_dispatch_memory(op, cycle):
                self._dispatch_blocked = True
                return IDLE
            self._stall_until = cycle + ISSUE_CYCLES
            self._next_op = next_op + 1
            return self._after_dispatch_hint()
        if kind == KIND_COMPUTE:
            if self._deps_done(op, cycle):
                self._schedule_compute(op, cycle)
            else:
                # Chaining: the op is dispatched to the lanes and will start
                # consuming operand elements as they arrive; scheduling (and
                # the functional evaluation) happens once the producers are
                # known to be complete.  The dispatch cycle is remembered so
                # the overlapped execution is credited.
                self._pending_computes.append((op, cycle))
            self._stall_until = cycle + ISSUE_CYCLES
            self._next_op = next_op + 1
            return self._after_dispatch_hint()
        if not self._deps_done(op, cycle):
            return IDLE
        if kind == KIND_SCALAR:
            self._stall_until = cycle + max(1, op.cycles)
            self._mark_done(op.op_id, cycle + op.cycles)
            self._next_op = next_op + 1
            return self._after_dispatch_hint()
        if kind == KIND_STORE:
            if not self._try_dispatch_memory(op, cycle):
                self._dispatch_blocked = True
                return IDLE
            self._stall_until = cycle + ISSUE_CYCLES
            self._next_op = next_op + 1
            return self._after_dispatch_hint()
        raise SimulationError(f"unknown op type {type(op).__name__}")

    def _after_dispatch_hint(self) -> float:
        """Wake at the end of the issue stall if instructions remain."""
        if self._next_op < self._num_ops:
            return self._stall_until
        return IDLE

    # ----------------------------------------------------------- compute ops
    def _schedule_compute(self, op: VectorCompute, cycle: int) -> None:
        # Each 64-bit lane runs one FP32 element per cycle; the other half
        # of its datapath goes unused, which balances bus and compute rates
        # as in the paper's FP32 results.
        throughput = self.config.lanes
        duration = max(1, math.ceil(op.num_elements / throughput)) * op.ops_per_element
        dep_end = max((self._done_at[d] for d in op.deps), default=cycle)
        start = max(cycle, self._alu_busy_until)
        # Chained execution: the op finishes shortly after its last operand
        # element arrives, or after its own full duration, whichever is later.
        end = max(start + duration, dep_end + CHAIN_LATENCY + 1)
        if op.is_reduction:
            # Ara-style reductions are slide-and-add based: their latency grows
            # with the logarithm of the vector length, on top of streaming the
            # elements through the lanes, and the scalar result must drain out.
            tree_levels = max(1, int(math.ceil(math.log2(max(2, op.num_elements)))))
            end += REDUCTION_STEP_LATENCY * tree_levels
            end += REDUCTION_DRAIN
        self._alu_busy_until = end
        self._mark_done(op.op_id, end)
        self._scheduled_computes.add(op.op_id)
        self._apply_compute(op)

    def _apply_compute(self, op: VectorCompute) -> None:
        if op.fn is None:
            if op.dest is not None and not self.regfile.has_vector(op.dest):
                self.regfile.write_vector(
                    op.dest, np.zeros(op.num_elements, dtype=np.float32)
                )
            return
        args = [self.regfile.read_vector(src) for src in op.srcs]
        result = op.fn(*args)
        if op.dest is not None and result is not None:
            self.regfile.write_vector(op.dest, np.asarray(result))

    def _retire_computes(self, cycle: int) -> None:
        """Schedule chained computes whose producers have now completed.

        The lanes execute in order, so scheduling stops at the first pending
        compute whose operands are still being produced.
        """
        while self._pending_computes:
            op, dispatch_cycle = self._pending_computes[0]
            if not self._deps_done(op, cycle):
                return
            self._pending_computes.pop(0)
            self._schedule_compute(op, dispatch_cycle)

    # ------------------------------------------------------------ memory ops
    def _try_dispatch_memory(self, op: VectorOp, cycle: int) -> bool:
        is_load = isinstance(op, VectorLoad)
        # Ordered (fenced) accesses wait for all outstanding memory traffic.
        if getattr(op, "ordered", False) and (self._active_loads or self._active_stores):
            return False
        if any(s.op.ordered for s in self._active_stores) or any(
            load.op.ordered for load in self._active_loads
        ):
            return False
        active = self._active_loads if is_load else self._active_stores
        limit = MAX_OUTSTANDING_LOADS if is_load else MAX_OUTSTANDING_STORES
        if len(active) >= limit:
            return False
        requests = self._lower(op, is_load)
        state = _MemOpState(op, requests, is_load)
        state.ready_cycle = cycle + ADDR_SETUP_CYCLES
        if state.ready_cycle > cycle:
            self._wake_at(state.ready_cycle)
        active.append(state)
        if self._watchdog_cycles:
            self._arm_watchdog(state, cycle)
        self._unissued_requests += len(requests)
        by_txn = self._by_txn
        for request in requests:
            by_txn[request.txn_id] = state
        if not is_load:
            self._queue_write_data(state)
        return True

    def _lower(self, op: VectorOp, is_load: bool) -> List[BusRequest]:
        stream = op.stream
        builder = self.request_builder
        packs = self.mode.packs_irregular
        if isinstance(stream, ContiguousStream):
            return builder.contiguous(stream, is_write=not is_load)
        if isinstance(stream, StridedStream):
            if packs:
                return builder.pack_strided(stream, is_write=not is_load)
            return builder.base_strided(stream, is_write=not is_load)
        if isinstance(stream, IndirectStream):
            if getattr(op, "uses_in_memory_indices", False):
                if not self.mode.has_axi_pack:
                    raise WorkloadError(
                        "in-memory-indexed access executed without AXI-Pack"
                    )
                return builder.pack_indirect(stream, is_write=not is_load)
            if self.mode is LoweringMode.IDEAL:
                # The idealized memory packs gathers perfectly.
                return builder.pack_indirect(stream, is_write=not is_load)
            index_reg = getattr(op, "index_values_reg", None)
            if index_reg is None:
                raise WorkloadError(
                    "register-indexed access without an index register on BASE"
                )
            indices = np.asarray(self.regfile.read_vector(index_reg)).astype(np.int64)
            return builder.base_indexed(stream, indices, is_write=not is_load)
        raise WorkloadError(f"cannot lower stream of type {type(stream).__name__}")

    def _queue_write_data(self, state: _MemOpState) -> None:
        op = state.op
        values = self.regfile.read_vector(op.src)
        dtype = _DTYPES[op.dtype]
        payload = np.ascontiguousarray(values, dtype=dtype).tobytes()
        if len(payload) < op.stream.total_bytes:
            raise WorkloadError(
                f"store source register {op.src!r} holds {len(payload)} bytes but "
                f"the store needs {op.stream.total_bytes}"
            )
        offset = 0
        backlog = self._w_backlog
        for request in state.requests:
            num_beats = request.num_beats
            if num_beats == 1 and not request.contiguous:
                # A single packed or narrow beat carries the whole payload.
                useful = request.payload_bytes
                backlog.append((request, 0, payload[offset : offset + useful], useful))
                offset += useful
                continue
            for beat in range(num_beats):
                useful = request.beat_useful_bytes(beat)
                chunk = payload[offset : offset + useful]
                offset += useful
                backlog.append((request, beat, chunk, useful))

    # ---------------------------------------------------------- AXI channels
    def _push_requests(self, cycle: int) -> None:
        # One AR per cycle, oldest load first.
        for state in self._active_loads:
            if state.all_issued:
                continue
            if cycle >= state.ready_cycle and self.port.ar.can_push():
                self.port.ar.push(state.requests[state.next_request])
                state.next_request += 1
                self._unissued_requests -= 1
                if self._watchdog_cycles:
                    self._arm_watchdog(state, cycle)
            break
        # One AW per cycle, oldest store first.
        for state in self._active_stores:
            if state.all_issued:
                continue
            if cycle >= state.ready_cycle and self.port.aw.can_push():
                self.port.aw.push(state.requests[state.next_request])
                state.next_request += 1
                self._unissued_requests -= 1
                if self._watchdog_cycles:
                    self._arm_watchdog(state, cycle)
            break

    def _push_w_data(self, cycle: int) -> None:
        if not self._w_backlog or not self.port.w.can_push():
            return
        request, beat, chunk, useful = self._w_backlog[0]
        owner = self._by_txn[request.txn_id]
        # W data may only flow for requests whose AW has been issued.
        if owner.positions[request.txn_id] >= owner.next_request:
            return
        padded = chunk.ljust(request.bus_bytes, b"\0")
        self.port.w.push(
            WBeat(data=padded, useful_bytes=useful, last=beat == request.num_beats - 1)
        )
        self.w_monitor.record_beat(useful)
        self._w_backlog.popleft()

    def _consume_r(self, cycle: int) -> None:
        beat = self._r_queue.pop()
        txn_id = beat.txn_id
        state = self._by_txn.get(txn_id)
        if state is None:
            if txn_id in self._abandoned_txns:
                return  # late beat of a watchdog-abandoned transaction
            raise SimulationError(f"R beat for unknown transaction {txn_id}")
        if beat.resp is not _RESP_OKAY:
            self._note_fault(state, txn_id, beat.resp, cycle)
        if self._watchdog_cycles:
            self._arm_watchdog(state, cycle)
        useful = beat.useful_bytes
        self.r_monitor.record_beat(useful, state.kind)
        data = beat.data
        if len(data) != useful:
            data = bytes(data)[:useful]
        state.chunks[txn_id].append(data)
        done = state.beats_done + 1
        state.beats_done = done
        if state.first_beat_cycle is None:
            state.first_beat_cycle = cycle
        if done >= state.total_beats and state.is_load:
            self._finish_load(state, cycle)

    def _finish_load(self, state: _MemOpState, cycle: int) -> None:
        op = state.op
        dtype = _DTYPES[op.dtype]
        if state.resp is not _RESP_OKAY:
            # Error beats are phantoms (no payload); deposit a full-length
            # zero vector so any already-chained consumer stays
            # deterministic instead of reading a short buffer.
            values = np.zeros(op.stream.num_elements, dtype=dtype)
            self.regfile.write_vector(op.dest, values)
        else:
            values = np.frombuffer(state.payload(), dtype=dtype)[
                : op.stream.num_elements
            ]
            self.regfile.write_vector(op.dest, values.copy())
        self._mark_done(op.op_id, cycle + MEMORY_LATENCY_SLACK)
        self._active_loads.remove(state)
        self._dispatch_blocked = False
        self._forget(state)

    def _consume_b(self, cycle: int) -> None:
        beat = self._b_queue.pop()
        state = self._by_txn.get(beat.txn_id)
        if state is None:
            if beat.txn_id in self._abandoned_txns:
                return  # late response of a watchdog-abandoned transaction
            raise SimulationError(f"B beat for unknown transaction {beat.txn_id}")
        if beat.resp is not _RESP_OKAY:
            self._note_fault(state, beat.txn_id, beat.resp, cycle)
        if self._watchdog_cycles:
            self._arm_watchdog(state, cycle)
        state.responses_pending -= 1
        if state.complete:
            self._mark_done(state.op.op_id, cycle + 1)
            self._active_stores.remove(state)
            self._dispatch_blocked = False
            self._forget(state)

    def _forget(self, state: _MemOpState) -> None:
        by_txn = self._by_txn
        for request in state.requests:
            by_txn.pop(request.txn_id, None)

    # ---------------------------------------------------- faults and watchdog
    @property
    def aborting(self) -> bool:
        """True once a bus fault (or watchdog timeout) stopped dispatch."""
        return self._aborting

    def _note_fault(self, state: _MemOpState, txn_id: int, resp: Resp,
                    cycle: int) -> None:
        """Record an in-band error response and enter the abort path.

        One :class:`BusFault` is recorded per failing op — at its first error
        beat — while ``state.resp`` keeps the worst severity so the register
        zero-fill in :meth:`_finish_load` sees every later escalation too.
        """
        if state.resp is _RESP_OKAY:
            self.faults.append(
                BusFault(
                    engine=self.name,
                    op_index=state.op.op_id,
                    kind="load" if state.is_load else "store",
                    addr=state.requests[state.positions[txn_id]].addr,
                    resp=resp.name,
                    cycle=cycle,
                )
            )
            self._aborting = True
        if resp.value > state.resp.value:
            state.resp = resp

    def _arm_watchdog(self, state: _MemOpState, cycle: int) -> None:
        deadline = cycle + self._watchdog_cycles
        state.deadline = deadline
        # Deadlines land on the timer heap so an event-driven engine wakes to
        # notice a transaction whose responses stopped arriving entirely.
        self._wake_at(deadline)

    def _check_watchdog(self, cycle: int) -> None:
        for active in (self._active_loads, self._active_stores):
            for state in list(active):
                if state.deadline is not None and cycle >= state.deadline:
                    self._abandon_op(state, cycle)

    def _abandon_op(self, state: _MemOpState, cycle: int) -> None:
        """Watchdog expiry: give up on a transaction whose responses are lost.

        The op is unwound from every queue the engine owns (unissued request
        budget, W backlog, txn routing tables) and recorded as a ``TIMEOUT``
        bus fault, entering the same structured abort path as an in-band
        error response.  Late beats that do arrive afterwards are dropped via
        ``_abandoned_txns``.
        """
        op = state.op
        if state.resp is _RESP_OKAY:
            self.faults.append(
                BusFault(
                    engine=self.name,
                    op_index=op.op_id,
                    kind="load" if state.is_load else "store",
                    addr=state.requests[0].addr,
                    resp="TIMEOUT",
                    cycle=cycle,
                )
            )
        self._aborting = True
        if state.is_load:
            # The dest register will never be filled; deposit zeros so any
            # already-chained consumer stays deterministic (same contract as
            # the in-band-error path in _finish_load).
            self.regfile.write_vector(
                op.dest, np.zeros(op.stream.num_elements, _DTYPES[op.dtype])
            )
        for request in state.requests:
            self._abandoned_txns.add(request.txn_id)
        unissued = len(state.requests) - state.next_request
        if unissued:
            self._unissued_requests -= unissued
        if self._w_backlog:
            txns = {request.txn_id for request in state.requests}
            self._w_backlog = deque(
                entry for entry in self._w_backlog if entry[0].txn_id not in txns
            )
        (self._active_loads if state.is_load else self._active_stores).remove(state)
        self._dispatch_blocked = False
        self._forget(state)
        self._mark_done(op.op_id, cycle)
        # The op is done as of this cycle, after this tick's
        # _retire_computes ran, and no timer marks it: wake on the next
        # cycle so a compute chained on it is retried.
        self._wake_at(cycle + 1)

    # ------------------------------------------------------------ read streams
    def read_stream_limit(self, cycle: int) -> float:
        """How long, from ``cycle``, this engine only streams loads.

        A read-stream macro-step (:mod:`repro.system.read_stream`) may
        advance this engine's ticks without calling them while each tick
        can only pop R beats of its active loads and push their remaining
        AR requests.  That holds while no store, W data or watchdog is
        pending, no timer matures and no dispatch
        or chained-compute retirement can fire: all of those read state
        that only the timers, a finishing load or a dispatch change.
        Returns the first cycle at which a tick must run for another
        reason (:data:`IDLE` if none), which is also the wake hint every
        tick inside the window returns; a value ``<= cycle`` means no
        window starts at ``cycle``.  A finishing load (its last R beat) and
        an errored beat end the window as well; the step checks those beat
        by beat.
        """
        if (
            not self._active_loads
            or self._active_stores
            or self._w_backlog
            or self._watchdog_cycles
        ):
            return cycle
        timers = self._timers
        limit = timers[0] if timers else IDLE
        next_op = self._next_op
        if next_op < self._num_ops and not self._aborting and not self._dispatch_blocked:
            stall_until = self._stall_until
            if cycle < stall_until:
                if stall_until < limit:
                    limit = stall_until
            else:
                # Mirrors _dispatch: only a dispatch that returns IDLE
                # without acting keeps the window open.
                op = self._ops[next_op]
                kind = op.KIND
                if kind == KIND_LOAD:
                    if self._load_deps_ready(op, cycle):
                        return cycle
                elif kind == KIND_COMPUTE or self._deps_done(op, cycle):
                    return cycle
        pending = self._pending_computes
        if pending and self._deps_done(pending[0][0], cycle):
            return cycle
        return limit

    def end_read_stream(
        self, last_tick: int, unissued_requests: int, r_beats: int,
        r_useful_bytes: int,
    ) -> None:
        """Write back what a read-stream macro-step kept in locals.

        ``last_tick`` is the last cycle of the window on which this engine
        was due (``-1`` if none); the R monitor's per-kind tables were
        updated in place.
        """
        if last_tick >= 0:
            self._cycle = last_tick
        self._unissued_requests = unissued_requests
        monitor = self.r_monitor
        monitor.beats += r_beats
        monitor.useful_bytes += r_useful_bytes

    # ----------------------------------------------------------------- result
    def result(self, cycles: int) -> EngineResult:
        """Package the measurements of a finished run."""
        return EngineResult(
            cycles=cycles,
            instructions=self.program.num_instructions,
            r_beats=self.r_monitor.beats,
            r_useful_bytes=self.r_monitor.useful_bytes,
            r_data_bytes=self.r_monitor.useful_bytes_by_kind.get("data", 0),
            r_index_bytes=self.r_monitor.useful_bytes_by_kind.get("index", 0),
            w_beats=self.w_monitor.beats,
            w_useful_bytes=self.w_monitor.useful_bytes,
            bus_bytes=self.port.bus_bytes,
        )

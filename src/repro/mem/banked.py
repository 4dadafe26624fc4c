"""Cycle-level multi-banked SRAM with a port-to-bank crossbar.

This models the memory the AXI-Pack controller sits in front of (paper
§II-C): ``num_ports`` word-wide request ports connected through an
``n x m`` crossbar to ``num_banks`` single-ported SRAM banks.  Each bank
serves one word access per cycle; when several ports target the same bank in
the same cycle, all but one stall — those stalls are the bank conflicts that
limit the utilization curves of Fig. 5.

Arbitration is *batched*: every cycle the head-of-line requests of all ports
are gathered into claim lists, their banks computed in one pass, and winners
picked per bank from the precomputed bank list.  The grants are exactly
those of the scalar reference arbiter: per bank, the claimant with the
smallest ``(port - last_grant - 1) % num_ports`` wins (all claimants win
under ``conflict_free``), and since each port contributes at most one
request per cycle, per-port state is independent of the order banks are
resolved in.  Array-side formulations (``BankAddressMap.banks_of_words``
over the claim words, or a full lexsort on ``(bank, rotated priority)`` plus
first-of-run masking) compute the same winners but were measured slower
than plain modulo over claim lists bounded by ``num_ports``; the property
test in ``tests/test_mem_banked.py`` pins the equivalence.  Granted
requests double as their own responses (reads deposit the word into the
request's ``data`` field), and response delivery advances the engine's
activity counter by the exact batch size per port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.axi.faults import BusFaultPlan
from repro.axi.types import Resp, worst_resp
from repro.errors import ConfigurationError
from repro.mem.storage import MemoryStorage
from repro.mem.words import BankAddressMap, WordRequest, WordResponse
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.queue import DecoupledQueue
from repro.sim.stats import StatsRegistry
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BankedMemoryConfig:
    """Static parameters of the banked memory.

    The paper's evaluation systems use eight 32-bit word ports backed by 17
    banks with single-cycle access latency.
    """

    num_ports: int = 8
    num_banks: int = 17
    word_bytes: int = 4
    latency: int = 1
    request_queue_depth: int = 4
    response_queue_depth: int = 4
    conflict_free: bool = False  #: True models the "ideal" memory of Fig. 5

    def __post_init__(self) -> None:
        check_positive("num_ports", self.num_ports)
        check_positive("num_banks", self.num_banks)
        check_positive("word_bytes", self.word_bytes)
        check_positive("latency", self.latency)

    @property
    def address_map(self) -> BankAddressMap:
        """The word-to-bank mapping implied by this configuration."""
        return BankAddressMap(num_banks=self.num_banks, word_bytes=self.word_bytes)


class BankedMemory(Component):
    """The banked SRAM endpoint with per-port request/response queues.

    Converters push :class:`~repro.mem.words.WordRequest` items into
    ``request_queues[port]`` and receive :class:`WordResponse` items from
    ``response_queues[port]``.  Responses on one port always return in
    request order (fixed bank latency plus in-order issue per port).
    """

    def __init__(
        self,
        name: str,
        config: BankedMemoryConfig,
        storage: MemoryStorage,
        stats: Optional[StatsRegistry] = None,
        bus_faults: Optional[BusFaultPlan] = None,
    ) -> None:
        super().__init__(name)
        self.config = config
        self.storage = storage
        self.stats = stats if stats is not None else StatsRegistry()
        # Fault-injection choke point: prefiltered by port name so the plan
        # is consulted per *granted word* only when it could ever fire here.
        self._fault_plan = (
            bus_faults if bus_faults is not None
            and bus_faults.touches_port(name) else None
        )
        self.address_map = config.address_map
        self.request_queues: List[DecoupledQueue[WordRequest]] = [
            DecoupledQueue(f"{name}.req[{port}]", config.request_queue_depth)
            for port in range(config.num_ports)
        ]
        self.response_queues: List[DecoupledQueue[WordResponse]] = [
            DecoupledQueue(f"{name}.rsp[{port}]", config.response_queue_depth)
            for port in range(config.num_ports)
        ]
        # In-flight accesses: (ready_cycle, response) kept in issue order per port.
        self._in_flight: List[Deque[Tuple[int, WordResponse]]] = [
            deque() for _ in range(config.num_ports)
        ]
        self._flight_count = 0  #: total in-flight accesses across all ports
        #: prebound (request queue, in-flight deque) per port for the
        #: gather scan (both containers are stable across reset)
        self._port_pairs = list(zip(self.request_queues, self._in_flight))
        self._bank_last_grant: List[int] = [config.num_ports - 1] * config.num_banks
        #: writable view of the memory image for single-word accesses — the
        #: word read/write fast path (aliases storage._data)
        self._mem_view = storage._data.data
        self._mem_size = storage.size_bytes
        #: number of whole words in the image — the word-granular range
        #: check is two integer compares
        self._num_words = storage.size_bytes // config.word_bytes
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_conflicts = self.stats.counter("mem.bank_conflicts")
        self._c_accesses = self.stats.counter("mem.bank_accesses")
        self._c_writes = self.stats.counter("mem.word_writes")
        self._c_reads = self.stats.counter("mem.word_reads")

    # ----------------------------------------------------------------- wiring
    def all_queues(self) -> List[DecoupledQueue]:
        """Every queue owned by the memory (for engine registration)."""
        return [*self.request_queues, *self.response_queues]

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        if self._flight_count:
            self._deliver_responses(cycle)
        self._accept_requests(cycle)
        # New requests and response-queue back-pressure wake us through the
        # queue subscriptions; the only time-gated event is an in-flight
        # access maturing after the bank latency.
        if not self._flight_count:
            return IDLE
        wake = IDLE
        for in_flight in self._in_flight:
            if in_flight:
                ready = in_flight[0][0]
                if ready > cycle and ready < wake:
                    wake = ready
        return wake

    def wake_queues(self):
        return self.all_queues()

    def _deliver_responses(self, cycle: int) -> None:
        # Batched delivery: all of a port's matured responses land through
        # one DecoupledQueue.push_many call, which advances the engine's
        # activity counter by the exact item count while marking the dirty
        # list once per queue.
        delivered = 0
        response_queues = self.response_queues
        batch: List = []
        for port, in_flight in enumerate(self._in_flight):
            if not in_flight:
                continue
            queue = response_queues[port]
            room = queue.depth - queue._count
            while room > 0 and in_flight and in_flight[0][0] <= cycle:
                batch.append(in_flight.popleft()[1])
                room -= 1
            if batch:
                queue.push_many(batch)
                delivered += len(batch)
                del batch[:]
        self._flight_count -= delivered

    def _accept_requests(self, cycle: int) -> None:
        config = self.config
        in_flight_limit = 4 * config.response_queue_depth
        request_queues = self.request_queues
        all_in_flight = self._in_flight
        # Gather this cycle's head-of-line claimants.  The single-claimant
        # case (the majority of cycles) stays on plain scalars; two or more
        # claimants are batched into the claim lists below.
        first_port = -1
        first_word = 0
        batch_ports = None
        batch_words = None
        for port, (queue, flight) in enumerate(self._port_pairs):
            storage = queue._storage
            if not storage:
                continue
            # Hold issue if the response path is saturated to bound in-flight state.
            if len(flight) >= in_flight_limit:
                continue
            if first_port < 0:
                first_port = port
                first_word = storage[0].word_addr
            elif batch_ports is None:
                batch_ports = [first_port, port]
                batch_words = [first_word, storage[0].word_addr]
            else:
                batch_ports.append(port)
                batch_words.append(storage[0].word_addr)
        if first_port < 0:
            return
        conflict_free = config.conflict_free
        if batch_ports is None:
            if not conflict_free:
                self._bank_last_grant[first_word % config.num_banks] = first_port
            granted = (first_port,)
        elif conflict_free:
            # The ideal crossbar grants every claimant; no conflicts, no
            # round-robin state.  Port order matches the scalar arbiter's
            # claim-list order (claimants were gathered in port order).
            granted = batch_ports
        else:
            # One batched bank computation for the whole claim list; the
            # winner-per-bank pick then runs over the precomputed bank list.
            # (Both the numpy `banks_of_words` call and a full array-side
            # selection — lexsort on (bank, rotated priority) +
            # first-of-run masking — were measured slower than plain modulo
            # over a claim list bounded by num_ports; see
            # tests/test_mem_banked.py for the equivalence property test.)
            num_banks = config.num_banks
            banks = [word % num_banks for word in batch_words]
            last_grant = self._bank_last_grant
            num_ports = config.num_ports
            claims: dict = {}
            for index, bank in enumerate(banks):
                prev = claims.get(bank)
                if prev is None:
                    claims[bank] = index
                elif prev.__class__ is int:
                    claims[bank] = [prev, index]
                else:
                    prev.append(index)
            granted = []
            # Bank keys are unique and per-port state is independent, so any
            # grant order is behaviour-identical — but iterate in sorted bank
            # order anyway so the walk itself is deterministic by
            # construction, not by insertion-order accident (reprolint ORD01).
            for bank, entry in sorted(claims.items()):
                if entry.__class__ is int:
                    port = batch_ports[entry]
                else:
                    # Round-robin pick: the claimant round-robin-closest
                    # after the bank's last grant wins (distinct keys, so
                    # the minimum is unique and order-independent).
                    last = last_grant[bank]
                    port = min(
                        (batch_ports[i] for i in entry),
                        key=lambda p, _last=last: (p - _last - 1) % num_ports,
                    )
                    self._c_conflicts.value += len(entry) - 1
                last_grant[bank] = port
                granted.append(port)
        # Grant phase: pop each winner's request and start the bank access.
        # Per-port state is independent, so grant order across banks cannot
        # affect simulated behaviour.  The request object doubles as its own
        # response (it already carries the port, routing tag and is_write
        # flag; reads deposit their word into its ``data`` field), and
        # single-word storage accesses go straight through a cached writable
        # view of the memory image — the same bytes
        # `storage.read_bytes`/`storage.write` would touch, minus the
        # per-call layers.
        latency = config.latency
        word_bytes = config.word_bytes
        num_words = self._num_words
        fault_plan = self._fault_plan
        name = self.name
        view = self._mem_view
        writes = 0
        lost = 0
        ready = cycle + latency
        for port in granted:
            # Inlined DecoupledQueue.pop (one grant per port per cycle).
            queue = request_queues[port]
            queue.total_popped += 1
            queue._count -= 1
            engine = queue._engine
            if engine is not None:
                engine._activity += 1
                if not queue._touched:
                    queue._touched = True
                    engine._touched_queues.append(queue)
            request = queue._storage.popleft()
            # Word-granular range check (two integer compares): a bad
            # address completes with SLVERR in-band and never touches the
            # storage.
            serve = 0 <= request.word_addr < num_words
            if not serve:
                request.resp = Resp.SLVERR
            port_ready = ready
            if fault_plan is not None:
                # Injection choke point (consulted before the storage
                # access: an injected error means the bank did *not*
                # perform the access).  Word accesses carry no txn serial,
                # so plans targeting this path key by address range.
                fault = fault_plan.first_match(
                    name, None, request.word_addr * word_bytes
                )
                if fault is not None:
                    kind = fault.kind
                    if kind == "lost":
                        lost += 1
                        if request.is_write:
                            writes += 1
                        continue  # the response simply never comes back
                    if kind == "stall":
                        port_ready = ready + fault.stall_cycles
                    else:
                        request.resp = worst_resp(request.resp, fault.resp)
                        serve = False
            if request.is_write:
                data = request.data
                if data is None:
                    raise ConfigurationError("write word request without data")
                if serve:
                    byte_addr = request.word_addr * word_bytes
                    end = byte_addr + word_bytes
                    if isinstance(data, (bytes, bytearray, memoryview)):
                        view[byte_addr:end] = data
                    else:
                        self.storage.write(byte_addr, data)
                writes += 1
            elif serve:
                byte_addr = request.word_addr * word_bytes
                request.data = view[byte_addr : byte_addr + word_bytes].tobytes()
            all_in_flight[port].append((port_ready, request))
        self._flight_count += len(granted) - lost
        self._c_accesses.value += len(granted)
        self._c_writes.value += writes
        self._c_reads.value += len(granted) - writes

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        if self._flight_count:
            return True
        if any(not queue.is_empty() for queue in self.request_queues):
            return True
        return any(not queue.is_empty() for queue in self.response_queues)

    def reset(self) -> None:
        for flight in self._in_flight:
            flight.clear()
        self._flight_count = 0
        for queue in self.request_queues:
            queue.clear()
        for queue in self.response_queues:
            queue.clear()
        self._bank_last_grant = [self.config.num_ports - 1] * self.config.num_banks

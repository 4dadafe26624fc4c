"""Cycle-level multi-banked SRAM with a port-to-bank crossbar.

This models the memory the AXI-Pack controller sits in front of (paper
§II-C): ``num_ports`` word-wide request ports connected through an
``n x m`` crossbar to ``num_banks`` single-ported SRAM banks.  Each bank
serves one word access per cycle; when several ports target the same bank in
the same cycle, all but one stall — those stalls are the bank conflicts that
limit the utilization curves of Fig. 5.

Port interface
--------------
Every word port has a request FIFO (``req_fifos[port]``) and a response
FIFO (``rsp_fifos[port]``), each at most ``queue_depth`` deep.  Both hold
the lane pipes' ``(pipe, batch, slot)`` tags; there is no per-word record.
The word address comes from ``batch.words[slot]``, write data from the
beat's ``batch.beat_payload``, and a granted read deposits its bytes
straight into the beat's ``batch.beat_data`` buffer.  An errored access
poisons its beat at grant.  The adapter appends requests and pops
responses; the memory pops requests at grant and appends responses once
the bank latency has passed.

The FIFOs keep registered-output timing: a request appended at cycle *t*
is granted at *t + 1* at the earliest.  Each port takes at most one request
per cycle, so only a lone head can be that fresh; ``req_pushed_at`` records
the cycle of each port's latest request for that check.  The adapter ticks
before the memory within a cycle, so a response appended at *t* is popped
at *t + 1* at the earliest without any such check.

``req_full`` is an ``int`` bit mask of the ports whose request FIFO is at
depth, so the adapter's issue finds the ports it may offer without looking
at a FIFO.  Like ``req_pushed_at``, which the adapter stamps on every
push, it is memory state the adapter writes: the adapter sets a port's bit
when its push fills the FIFO, and the grant clears the bit of every port it
pops.  The mask stays exact only because nothing else appends to or pops
from ``req_fifos``; ``tests/test_channel_stage.py`` checks it against the
FIFOs after every stage tick.

Arbitration is *batched*: every cycle the head-of-line requests of all ports
are gathered into claim lists, their banks computed in one pass, and winners
picked per bank from the precomputed bank list.  The grants are exactly
those of the scalar reference arbiter: per bank, the claimant with the
smallest ``(port - last_grant - 1) % num_ports`` wins (all claimants win
under ``conflict_free``), and since each port contributes at most one
request per cycle, per-port state is independent of the order banks are
resolved in.  Array-side formulations (a numpy modulo over the claim
words, or a full lexsort on ``(bank, rotated priority)`` plus
first-of-run masking) compute the same winners but were measured slower
than plain modulo over claim lists bounded by ``num_ports``; the property
test in ``tests/test_mem_banked.py`` pins the equivalence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.axi.faults import BusFaultPlan
from repro.axi.types import Resp, worst_resp
from repro.errors import ConfigurationError
from repro.mem.storage import MemoryStorage
from repro.sim.component import IDLE
from repro.sim.stats import StatsRegistry
from repro.utils.bitutils import is_power_of_two
from repro.utils.validation import check_positive

#: Prebound: compared once per granted word.
_RESP_OKAY = Resp.OKAY

#: Width of one memory word in the paper's systems: 32 bits.
WORD_BYTES = 4


@dataclass(frozen=True)
class BankedMemoryConfig:
    """Static parameters of one banked channel: the banked memory and the
    AXI-Pack adapter in front of it.

    The paper's evaluation systems use eight 32-bit word ports backed by 17
    banks with single-cycle access latency.  The adapter serves an AXI bus
    one word per port wide (``n = D / W`` word lanes, paper §II-C).

    Attributes
    ----------
    queue_depth:
        Depth of every port's request and response FIFO, and how many word
        accesses a converter pipe keeps in flight per port (the request
        regulator of Fig. 2c; paper default 4, raised to 32 for the §III-E
        sensitivity study).
    conflict_free:
        True models the "ideal" conflict-free memory of Fig. 5.
    """

    num_ports: int = 8
    num_banks: int = 17
    word_bytes: int = WORD_BYTES
    latency: int = 1
    queue_depth: int = 4
    conflict_free: bool = False

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_ports) or not is_power_of_two(self.word_bytes):
            raise ConfigurationError(
                "port count and word width must be powers of two (the bus "
                "width is their product)"
            )
        check_positive("num_banks", self.num_banks)
        check_positive("latency", self.latency)
        check_positive("queue_depth", self.queue_depth)

    @property
    def bus_bytes(self) -> int:
        """Width of the AXI data bus the channel serves: one word per port."""
        return self.num_ports * self.word_bytes


class BankedMemory:
    """The banked SRAM behind one adapter, with per-port request/response FIFOs.

    Not an engine component of its own: the channel stage
    (:class:`~repro.controller.adapter.BankedChannel`) calls :meth:`tick`
    right after the adapter's tick every cycle the memory is due.  Responses
    on one port always return in request order (fixed bank latency plus
    in-order issue per port).
    """

    def __init__(
        self,
        name: str,
        config: BankedMemoryConfig,
        storage: MemoryStorage,
        stats: Optional[StatsRegistry] = None,
        bus_faults: Optional[BusFaultPlan] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.storage = storage
        self.stats = stats if stats is not None else StatsRegistry()
        # Fault-injection choke point: prefiltered by port name so the plan
        # is consulted per *granted word* (and per accepted burst, see
        # :meth:`loses`) only when it could ever fire here.
        self._fault_plan = (
            bus_faults if bus_faults is not None
            and bus_faults.touches_port(name) else None
        )
        ports = config.num_ports
        #: per-port request FIFOs of (pipe, batch, slot) tags, oldest first
        self.req_fifos: List[Deque[tuple]] = [deque() for _ in range(ports)]
        #: cycle of the latest request appended to each port's FIFO
        self.req_pushed_at: List[int] = [-1] * ports
        #: bit mask of the ports whose request FIFO is at depth: the
        #: adapter's issue sets a port's bit when its push fills the FIFO,
        #: and the grant clears it when it pops that FIFO
        self.req_full = 0
        #: per-port FIFOs of completed accesses' tags, oldest first
        self.rsp_fifos: List[Deque[tuple]] = [deque() for _ in range(ports)]
        #: granted accesses per port: (ready_cycle, tag) in grant order
        self._in_flight: List[Deque[Tuple[int, tuple]]] = [
            deque() for _ in range(ports)
        ]
        self._flight_count = 0  #: total in-flight accesses across all ports
        #: prebound (request FIFO, in-flight deque) per port for the gather
        #: scan, and (in-flight deque, response FIFO) for delivery (all are
        #: stable across reset)
        self._port_pairs = list(zip(self.req_fifos, self._in_flight))
        self._delivery_pairs = list(zip(self._in_flight, self.rsp_fifos))
        self._bank_last_grant: List[int] = [ports - 1] * config.num_banks
        self._rsp_depth = config.queue_depth
        #: granted-but-undelivered accesses a port may hold before its
        #: requests wait, which bounds the in-flight state
        self._in_flight_limit = 4 * config.queue_depth
        #: writable view of the memory image for single-word accesses — the
        #: word read/write fast path (aliases storage._data)
        self._mem_view = storage._data.data
        #: number of whole words in the image — the word-granular range
        #: check is two integer compares
        self._num_words = storage.size_bytes // config.word_bytes
        # Prebound hot-path counters (see repro.sim.stats).
        self._c_conflicts = self.stats.counter("mem.bank_conflicts")
        self._c_accesses = self.stats.counter("mem.bank_accesses")
        self._c_writes = self.stats.counter("mem.word_writes")
        self._c_reads = self.stats.counter("mem.word_reads")

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> int:
        """Deliver matured accesses, then grant new ones.

        Returns how many words moved through the port FIFOs (responses
        appended plus requests popped), which the channel stage counts as
        forward progress.
        """
        moved = self._deliver(cycle) if self._flight_count else 0
        return moved + self._grant(cycle)

    def next_ready(self, cycle: int) -> float:
        """The earliest in-flight maturity after ``cycle``, else ``IDLE``.

        New requests and response-FIFO back-pressure reach the memory
        through the adapter's FIFO traffic; the only time-gated event is an
        in-flight access maturing after the bank latency.  A matured head
        that waits for response room is woken by the adapter's pop.
        """
        wake = IDLE
        if self._flight_count:
            for in_flight in self._in_flight:
                if in_flight:
                    ready = in_flight[0][0]
                    if cycle < ready < wake:
                        wake = ready
        return wake

    def _deliver(self, cycle: int) -> int:
        """Move each port's matured accesses into its response FIFO, as far
        as the FIFO has room."""
        depth = self._rsp_depth
        delivered = 0
        for in_flight, responses in self._delivery_pairs:
            if not in_flight:
                continue
            room = depth - len(responses)
            while room > 0 and in_flight and in_flight[0][0] <= cycle:
                responses.append(in_flight.popleft()[1])
                room -= 1
                delivered += 1
        self._flight_count -= delivered
        return delivered

    def _grant(self, cycle: int) -> int:
        config = self.config
        in_flight_limit = self._in_flight_limit
        pushed_at = self.req_pushed_at
        # Gather this cycle's head-of-line claimants.  The single-claimant
        # case (the majority of cycles) stays on plain scalars; two or more
        # claimants are batched into the claim lists below.
        first_port = -1
        first_word = 0
        batch_ports = None
        batch_words = None
        for port, (requests, flight) in enumerate(self._port_pairs):
            if not requests:
                continue
            # A lone request appended this cycle is not visible yet.
            if pushed_at[port] == cycle and len(requests) == 1:
                continue
            # Hold issue if the response path is saturated to bound in-flight state.
            if len(flight) >= in_flight_limit:
                continue
            _pipe, batch, slot = requests[0]
            word = batch.words[slot]
            if first_port < 0:
                first_port = port
                first_word = word
            elif batch_ports is None:
                batch_ports = [first_port, port]
                batch_words = [first_word, word]
            else:
                batch_ports.append(port)
                batch_words.append(word)
        if first_port < 0:
            return 0
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
            # (Both a numpy bank computation and a full array-side
            # selection — lexsort on (bank, rotated priority) +
            # first-of-run masking — were measured slower than plain modulo
            # over a claim list bounded by num_ports; see
            # tests/test_mem_banked.py for the equivalence property test.)
            num_banks = config.num_banks
            banks = [word % num_banks for word in batch_words]
            last_grant = self._bank_last_grant
            if len(set(banks)) == len(banks):
                # No two claimants share a bank: every claimant wins.
                for bank, port in zip(banks, batch_ports):
                    last_grant[bank] = port
                granted = batch_ports
            else:
                granted = self._arbitrate(batch_ports, banks)
        # Grant phase: pop each winner's tag and perform the bank access.
        # Per-port state is independent, so grant order across banks cannot
        # affect simulated behaviour.  Single-word accesses go straight
        # through a cached writable view of the memory image — the same
        # bytes `storage.read_bytes`/`storage.write` would touch, minus the
        # per-call layers.  A read's bytes land in its beat at the access;
        # the beat is only handed out once every word of it has come back
        # through the response FIFO.
        latency = config.latency
        word_bytes = config.word_bytes
        num_words = self._num_words
        fault_plan = self._fault_plan
        name = self.name
        view = self._mem_view
        req_fifos = self.req_fifos
        all_in_flight = self._in_flight
        writes = 0
        ready = cycle + latency
        for port in granted:
            tag = req_fifos[port].popleft()
            _pipe, batch, slot = tag
            word = batch.words[slot]
            payloads = batch.beat_payload  # None for reads
            # Word-granular range check (two integer compares): a bad
            # address completes with SLVERR in-band and never touches the
            # storage.
            serve = 0 <= word < num_words
            resp = _RESP_OKAY if serve else Resp.SLVERR
            port_ready = ready
            if fault_plan is not None:
                # Injection choke point (consulted before the storage
                # access: an injected error means the bank did *not*
                # perform the access).  Word accesses carry no txn serial,
                # so plans targeting this path key by address range.  A
                # ``lost`` fault drops whole bursts at acceptance instead.
                fault = fault_plan.first_match(name, None, word * word_bytes)
                if fault is not None and fault.kind != "lost":
                    if fault.kind == "stall":
                        port_ready = ready + fault.stall_cycles
                    else:
                        resp = worst_resp(resp, fault.resp)
                        serve = False
            beat = batch.beat_of[slot]
            if payloads is not None:
                if serve:
                    byte_addr = word * word_bytes
                    offset = batch.offsets[slot]
                    view[byte_addr : byte_addr + word_bytes] = payloads[beat][
                        offset : offset + word_bytes
                    ]
                writes += 1
            elif serve:
                nbytes = batch.nbytes[slot]
                byte_addr = word * word_bytes + batch.shifts[slot]
                offset = batch.offsets[slot]
                batch.beat_views[beat][offset : offset + nbytes] = view[
                    byte_addr : byte_addr + nbytes
                ]
            if resp is not _RESP_OKAY:
                # An errored access carries no valid data; its beat is
                # poisoned instead of filled.
                batch.poison_beat(beat, resp)
            all_in_flight[port].append((port_ready, tag))
        full = self.req_full
        if full:
            # Each winner popped one request, so its FIFO has room again.
            for port in granted:
                full &= ~(1 << port)
            self.req_full = full
        self._flight_count += len(granted)
        self._c_accesses.value += len(granted)
        self._c_writes.value += writes
        self._c_reads.value += len(granted) - writes
        return len(granted)

    def _arbitrate(self, ports: List[int], banks: List[int]) -> List[int]:
        """Per-bank round-robin, for claim lists where banks repeat.

        ``banks[i]`` is the bank ``ports[i]`` claims; returns one winner per
        claimed bank.  The claimant round-robin-closest after the bank's
        last grant wins.
        """
        last_grant = self._bank_last_grant
        num_ports = self.config.num_ports
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
        # order anyway so the walk itself is deterministic by construction,
        # not by insertion-order accident (reprolint ORD01).
        for bank, entry in sorted(claims.items()):
            if entry.__class__ is int:
                port = ports[entry]
            else:
                # Distinct ports, so the minimum is unique and
                # order-independent.
                last = last_grant[bank]
                port = min(
                    (ports[i] for i in entry),
                    key=lambda p, _last=last: (p - _last - 1) % num_ports,
                )
                self._c_conflicts.value += len(entry) - 1
            last_grant[bank] = port
            granted.append(port)
        return granted

    # ---------------------------------------------------------------- faults
    def loses(self, request) -> bool:
        """Whether the fault plan loses this burst whole: a ``lost`` spec
        matching the memory's name, the burst's txn serial and its start
        address, as on the IDEAL endpoint."""
        plan = self._fault_plan
        if plan is None:
            return False
        fault = plan.first_match(self.name, request.txn_id, request.addr)
        return fault is not None and fault.kind == "lost"

    # ---------------------------------------------------------------- streams
    def fault_free(self) -> bool:
        """True when no fault plan can fire at this memory's grants."""
        return self._fault_plan is None

    def end_stream(self, req_full: int, flight_count: int) -> None:
        """Write back the scalars a stream macro-step kept in locals
        (FIFOs, in-flight deques, port stamps, bank pointers and counters
        were updated in place)."""
        self.req_full = req_full
        self._flight_count = flight_count

    # ------------------------------------------------------------------ state
    def busy(self) -> bool:
        if self._flight_count:
            return True
        return any(self.req_fifos) or any(self.rsp_fifos)

    def reset(self) -> None:
        for container in (*self._in_flight, *self.req_fifos, *self.rsp_fifos):
            container.clear()
        self._flight_count = 0
        self.req_full = 0
        self.req_pushed_at[:] = [-1] * self.config.num_ports
        self._bank_last_grant = [self.config.num_ports - 1] * self.config.num_banks

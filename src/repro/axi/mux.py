"""Cycle-level AXI routing components: N:1 multiplexer and 1:M demultiplexer.

:class:`CycleAxiMux` and :class:`CycleAxiDemux` model the interconnect's
timing — one address handshake per channel per cycle, one data beat per
channel per cycle, back-pressure, and arbitration between requestors
contending for a shared endpoint.  Both carry packed bursts unmodified (the
very object a requestor pushed reaches the endpoint), which is the paper's
central interconnect claim (§II-A): all routing decisions use only the
address and the transaction id, never the AXI-Pack ``user`` payload.

Composed back to back — one :class:`CycleAxiDemux` per requestor fanning out
over an N×M grid of link ports into one :class:`CycleAxiMux` per endpoint —
they form the full M×N crossbar :class:`~repro.system.soc.Soc` wires for
multi-channel topologies, with per-link arbitration at each mux.  The demux's
same-target AW gate (below) is what makes that composition deadlock-free.

Wake-hint contract
------------------
Both components are purely queue-driven: every state transition is triggered
by an item arriving on (or back-pressure clearing from) one of the queues
returned by :meth:`wake_queues`, so ``tick`` always returns
:data:`~repro.sim.component.IDLE`.  To keep event-driven and
tick-every-cycle simulations bit-identical, the arbitration pointers advance
*only on a successful grant* (a queue push, which itself re-wakes the
component) — never on an idle cycle — so a slept-through window leaves the
component's state exactly as a naive per-cycle evaluation would.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.axi.faults import BusFaultPlan
from repro.axi.interconnect import AddressMap
from repro.axi.port import AxiPort
from repro.axi.signals import BBeat, RBeat
from repro.axi.transaction import BusRequest
from repro.axi.types import Resp
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.component import IDLE, Component, WakeHint
from repro.sim.queue import DecoupledQueue
from repro.sim.stats import StatsRegistry

#: Supported arbitration policies for the N:1 multiplexer.
ARBITRATION_POLICIES = ("rr", "qos")


class CycleAxiMux(Component):
    """Merges N requestor ports onto one endpoint port, cycle by cycle.

    Per cycle the mux moves at most one handshake per channel, exactly like
    the single physical bus it models:

    * **AR / AW** — one request each, chosen among the upstream ports with a
      pending request by the arbitration policy (``"rr"``: round-robin
      starting after the last winner; ``"qos"``: static priority, highest
      ``qos`` value first, ties broken by port index).  Winning AW bursts
      are queued for W routing in acceptance order.
    * **W** — one data beat, pulled from the upstream port whose accepted AW
      is oldest; this keeps the downstream W stream in AW order, which is
      what single-port endpoints (and AXI4 itself, which has no WID) assume.
    * **R / B** — one beat each, routed back to the owning requestor by the
      transaction id recorded when its AR/AW was forwarded.  A full
      requestor-side R/B queue stalls the shared channel (head-of-line
      blocking on the one physical return bus).

    Requests are forwarded verbatim — packed AXI-Pack bursts included.
    """

    def __init__(
        self,
        name: str,
        upstreams: Sequence[AxiPort],
        downstream: AxiPort,
        arbitration: str = "rr",
        qos: Optional[Sequence[int]] = None,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        super().__init__(name)
        if not upstreams:
            raise ConfigurationError("mux needs at least one upstream port")
        if arbitration not in ARBITRATION_POLICIES:
            raise ConfigurationError(
                f"unknown arbitration {arbitration!r}; "
                f"choose from {ARBITRATION_POLICIES}"
            )
        for port in upstreams:
            if port.bus_bytes != downstream.bus_bytes:
                raise ProtocolError(
                    f"upstream port {port.name!r} is {port.bus_bytes}B wide but "
                    f"the downstream bus is {downstream.bus_bytes}B; every "
                    "port of a mux must share one bus width"
                )
        self.upstreams = list(upstreams)
        self.downstream = downstream
        self.arbitration = arbitration
        num = len(self.upstreams)
        if qos is None:
            # Default static priorities: lower port index wins under "qos".
            qos = [num - index for index in range(num)]
        if len(qos) != num:
            raise ConfigurationError("qos needs one priority per upstream port")
        self.qos = list(qos)
        #: port indices in static-priority order (highest qos first).
        self._priority_order = sorted(
            range(num), key=lambda index: (-self.qos[index], index)
        )
        self.stats = stats if stats is not None else StatsRegistry()
        self._ar_rr = 0  #: next port the AR round-robin scan starts at
        self._aw_rr = 0  #: next port the AW round-robin scan starts at
        #: read/write transaction owner: txn_id -> upstream port index
        self._r_owner: Dict[int, int] = {}
        self._b_owner: Dict[int, int] = {}
        #: accepted writes still owed W beats: (upstream index, beats left)
        self._w_order: Deque[Tuple[int, int]] = deque()
        #: per-upstream grant counts (fairness observability)
        self.ar_grants = [0] * num
        self.aw_grants = [0] * num
        self._c_ar = self.stats.counter("mux.ar_grants")
        self._c_aw = self.stats.counter("mux.aw_grants")
        self._c_r = self.stats.counter("mux.r_beats")
        self._c_b = self.stats.counter("mux.b_beats")

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        self._route_r()
        self._route_b()
        winner = self._arbitrate(self._select_ar, self._ar_rr)
        if winner >= 0:
            self._forward_ar(winner)
        winner = self._arbitrate(self._select_aw, self._aw_rr)
        if winner >= 0:
            self._forward_aw(winner)
        if self._w_order:
            self._forward_w()
        # Purely queue-driven (see the module docstring): anything the mux
        # did this cycle touched a queue and re-wakes it; anything it is
        # waiting for arrives on a subscribed queue.
        return IDLE

    def wake_queues(self):
        queues: List[DecoupledQueue] = []
        for port in self.upstreams:
            queues.extend(port.all_queues())
        queues.extend(self.downstream.all_queues())
        return queues

    def busy(self) -> bool:
        return bool(self._r_owner or self._b_owner or self._w_order)

    def reset(self) -> None:
        self._ar_rr = 0
        self._aw_rr = 0
        self._r_owner.clear()
        self._b_owner.clear()
        self._w_order.clear()
        self.ar_grants = [0] * len(self.upstreams)
        self.aw_grants = [0] * len(self.upstreams)

    # ----------------------------------------------------------- arbitration
    def _select_ar(self, index: int) -> bool:
        return bool(self.upstreams[index].ar._storage)

    def _select_aw(self, index: int) -> bool:
        return bool(self.upstreams[index].aw._storage)

    def _arbitrate(self, pending, rr_start: int) -> int:
        """Index of the winning upstream port, or -1 when none is pending."""
        count = len(self.upstreams)
        if self.arbitration == "qos":
            for index in self._priority_order:
                if pending(index):
                    return index
            return -1
        for offset in range(count):
            index = rr_start + offset
            if index >= count:
                index -= count
            if pending(index):
                return index
        return -1

    # ------------------------------------------------------------ forwarding
    def _forward_ar(self, index: int) -> None:
        down = self.downstream.ar
        if down._count >= down.depth:
            return
        request: BusRequest = self.upstreams[index].ar.pop()
        self._r_owner[request.txn_id] = index
        down.push(request)
        self.ar_grants[index] += 1
        self._c_ar.value += 1
        self._ar_rr = (index + 1) % len(self.upstreams)

    def _forward_aw(self, index: int) -> None:
        down = self.downstream.aw
        if down._count >= down.depth:
            return
        request: BusRequest = self.upstreams[index].aw.pop()
        self._b_owner[request.txn_id] = index
        self._w_order.append((index, request.num_beats))
        down.push(request)
        self.aw_grants[index] += 1
        self._c_aw.value += 1
        self._aw_rr = (index + 1) % len(self.upstreams)

    def _forward_w(self) -> None:
        down = self.downstream.w
        if down._count >= down.depth:
            return
        index, beats_left = self._w_order[0]
        source = self.upstreams[index].w
        if not source._storage:
            return
        down.push(source.pop())
        if beats_left == 1:
            self._w_order.popleft()
        else:
            self._w_order[0] = (index, beats_left - 1)

    # -------------------------------------------------------------- returns
    def _route_r(self) -> None:
        source = self.downstream.r
        if not source._storage:
            return
        beat = source._storage[0]
        owner = self._r_owner.get(beat.txn_id)
        if owner is None:
            raise ProtocolError(
                f"R beat for unknown transaction {beat.txn_id} reached mux "
                f"{self.name!r}"
            )
        sink = self.upstreams[owner].r
        if sink._count >= sink.depth:
            return  # head-of-line blocking on the shared return bus
        sink.push(source.pop())
        self._c_r.value += 1
        if beat.last:
            del self._r_owner[beat.txn_id]

    def _route_b(self) -> None:
        source = self.downstream.b
        if not source._storage:
            return
        beat = source._storage[0]
        owner = self._b_owner.get(beat.txn_id)
        if owner is None:
            raise ProtocolError(
                f"B beat for unknown transaction {beat.txn_id} reached mux "
                f"{self.name!r}"
            )
        sink = self.upstreams[owner].b
        if sink._count >= sink.depth:
            return
        sink.push(source.pop())
        self._c_b.value += 1
        del self._b_owner[beat.txn_id]


class CycleAxiDemux(Component):
    """Routes one requestor port to M endpoint ports by address decode.

    The forward path decodes each AR/AW against an
    :class:`~repro.axi.interconnect.AddressMap` (region targets index the
    ``downstreams`` list) or an
    :class:`~repro.axi.interconnect.InterleavedAddressMap` and forwards the
    burst verbatim; W beats follow their AW.  The return path merges R and B
    beats round-robin, one beat per channel per cycle, back onto the single
    upstream port — the requestor demultiplexes them by transaction id.  Like
    the cycle mux, the component is purely queue-driven and the merge
    pointers only advance on a successful forward.

    **Same-target AW gate.**  An AW whose decode target differs from the
    target of the still-outstanding W beats is *not* accepted until those
    beats have drained.  AXI4 has no WID: each master emits one W stream in
    AW order, so without the gate two demuxes can each owe their oldest W
    beats to the endpoint the *other* demux's beats are queued behind — a
    cyclic wait once the link queues fill (the classic W-interleave crossbar
    deadlock, resolved the same way as pulp-platform's ``axi_demux``).  With
    the gate every demux owes W beats to at most one target at a time, which
    makes the demux→mux crossbar composition deadlock-free.

    ``check_straddle=False`` disables the burst-straddle protocol check for
    interleaved maps, where routing deliberately uses only the start address
    (stripe-ownership semantics — see ``InterleavedAddressMap``).

    **Decode errors.**  A burst whose address decodes to no target — or
    which straddles two targets while ``check_straddle`` is on, or which an
    injected :class:`~repro.axi.faults.BusFaultSpec` (kind ``slverr`` /
    ``decerr``) marks as faulted — is answered *in band*, per the AXI spec:
    an AR yields the full burst length as phantom R beats (``useful_bytes=0``,
    error ``resp``); an AW has all its W beats consumed and discarded, then
    answers an error B.  Error beats share the single return bus with routed
    traffic (at most one R and one B per cycle total) and the simulation
    continues — the requestor sees the error response and decides.
    """

    def __init__(
        self,
        name: str,
        upstream: AxiPort,
        downstreams: Sequence[AxiPort],
        address_map: AddressMap,
        stats: Optional[StatsRegistry] = None,
        check_straddle: bool = True,
        bus_faults: Optional[BusFaultPlan] = None,
    ) -> None:
        super().__init__(name)
        if not downstreams:
            raise ConfigurationError("demux needs at least one downstream port")
        regions = getattr(address_map, "regions", None)
        if regions is not None:
            for region in regions:
                if not 0 <= region.target < len(downstreams):
                    raise ConfigurationError(
                        f"address region at {region.base:#x} targets port "
                        f"{region.target}, but only {len(downstreams)} exist"
                    )
        elif address_map.num_targets > len(downstreams):
            raise ConfigurationError(
                f"address map decodes to {address_map.num_targets} targets, "
                f"but only {len(downstreams)} downstream ports exist"
            )
        self.upstream = upstream
        self.downstreams = list(downstreams)
        self.address_map = address_map
        self.check_straddle = check_straddle
        self.stats = stats if stats is not None else StatsRegistry()
        self._fault_plan = (
            bus_faults if bus_faults is not None
            and bus_faults.touches_port(name) else None
        )
        #: accepted writes still owed W beats: (target index, beats left);
        #: target ``-1`` marks an error burst whose beats are discarded
        self._w_order: Deque[Tuple[int, int]] = deque()
        self._r_rr = 0
        self._b_rr = 0
        self.routed_counts = [0] * len(self.downstreams)
        #: outstanding error reads: [txn_id, beats left, resp]
        self._error_r: Deque[List] = deque()
        #: error writes whose W beats are still draining, acceptance order
        self._error_b_pending: Deque[Tuple[int, Resp]] = deque()
        #: error writes ready to answer: (txn_id, resp)
        self._error_b: Deque[Tuple[int, Resp]] = deque()
        self._c_error_bursts = self.stats.counter("demux.error_bursts")

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> WakeHint:
        pushed = self._merge_return(
            [port.r for port in self.downstreams], self.upstream.r, "r"
        )
        if not pushed and self._error_r:
            self._emit_error_r()
        pushed = self._merge_return(
            [port.b for port in self.downstreams], self.upstream.b, "b"
        )
        if not pushed and self._error_b:
            self._emit_error_b()
        self._forward_request(self.upstream.ar, is_write=False)
        self._forward_request(self.upstream.aw, is_write=True)
        if self._w_order:
            self._forward_w()
        return IDLE

    def wake_queues(self):
        queues: List[DecoupledQueue] = list(self.upstream.all_queues())
        for port in self.downstreams:
            queues.extend(port.all_queues())
        return queues

    def busy(self) -> bool:
        return bool(
            self._w_order or self._error_r or self._error_b
            or self._error_b_pending
        )

    def reset(self) -> None:
        self._w_order.clear()
        self._r_rr = 0
        self._b_rr = 0
        self.routed_counts = [0] * len(self.downstreams)
        self._error_r.clear()
        self._error_b_pending.clear()
        self._error_b.clear()

    # ------------------------------------------------------------ forwarding
    def _decode(self, request: BusRequest) -> Tuple[int, Optional[Resp]]:
        """Decode a burst: ``(target, None)``, or ``(-1, resp)`` for a burst
        that must be answered in band with the error ``resp``."""
        plan = self._fault_plan
        if plan is not None:
            fault = plan.first_match(self.name, request.txn_id, request.addr)
            if fault is not None and fault.kind in ("slverr", "decerr"):
                return -1, fault.resp
        target = self.address_map.try_route(request.addr)
        if target < 0:
            return -1, Resp.DECERR
        if self.check_straddle and request.contiguous and not request.is_packed:
            last = request.addr + request.payload_bytes - 1
            if self.address_map.try_route(last) != target:
                # A contiguous burst straddling two targets cannot be served
                # by either: the decode is ill-formed, answered as DECERR.
                return -1, Resp.DECERR
        return target, None

    def _forward_request(self, source: DecoupledQueue, is_write: bool) -> None:
        if not source._storage:
            return
        request: BusRequest = source._storage[0]
        target, resp = self._decode(request)
        if resp is not None:
            # Error burst: accepted unconditionally (its beats go nowhere, so
            # no downstream queue or AW gate constrains it) and answered in
            # band with phantom beats of the correct burst length.
            source.pop()
            self._c_error_bursts.value += 1
            if is_write:
                self._w_order.append((-1, request.num_beats))
                self._error_b_pending.append((request.txn_id, resp))
            else:
                self._error_r.append([request.txn_id, request.num_beats, resp])
            return
        if is_write and self._w_order and self._w_order[0][0] != target:
            # Same-target AW gate (see the class docstring): hold this AW
            # until the W beats owed to the previous target have drained.
            return
        sink = (
            self.downstreams[target].aw if is_write else self.downstreams[target].ar
        )
        if sink._count >= sink.depth:
            return
        sink.push(source.pop())
        self.routed_counts[target] += 1
        if is_write:
            self._w_order.append((target, request.num_beats))

    def _forward_w(self) -> None:
        source = self.upstream.w
        if not source._storage:
            return
        target, beats_left = self._w_order[0]
        if target < 0:
            # Error burst: consume and discard the W beat; once the burst's
            # data has fully drained its error B becomes ready.
            source.pop()
            if beats_left == 1:
                self._w_order.popleft()
                self._error_b.append(self._error_b_pending.popleft())
            else:
                self._w_order[0] = (target, beats_left - 1)
            return
        sink = self.downstreams[target].w
        if sink._count >= sink.depth:
            return
        sink.push(source.pop())
        if beats_left == 1:
            self._w_order.popleft()
        else:
            self._w_order[0] = (target, beats_left - 1)

    # -------------------------------------------------------------- returns
    def _merge_return(self, sources: List[DecoupledQueue],
                      sink: DecoupledQueue, channel: str) -> bool:
        if sink._count >= sink.depth:
            return True  # back-pressured: the error path must not push either
        count = len(sources)
        rr = self._r_rr if channel == "r" else self._b_rr
        for offset in range(count):
            index = rr + offset
            if index >= count:
                index -= count
            if sources[index]._storage:
                sink.push(sources[index].pop())
                if channel == "r":
                    self._r_rr = (index + 1) % count
                else:
                    self._b_rr = (index + 1) % count
                return True
        return False

    def _emit_error_r(self) -> None:
        """Emit one phantom R beat of the oldest error read burst."""
        sink = self.upstream.r
        if sink._count >= sink.depth:
            return
        entry = self._error_r[0]
        txn_id, beats_left, resp = entry
        sink.push(
            RBeat(
                txn_id=txn_id,
                data=b"",
                useful_bytes=0,
                last=beats_left == 1,
                resp=resp,
            )
        )
        if beats_left == 1:
            self._error_r.popleft()
        else:
            entry[1] = beats_left - 1

    def _emit_error_b(self) -> None:
        """Answer the oldest fully drained error write burst."""
        sink = self.upstream.b
        if sink._count >= sink.depth:
            return
        txn_id, resp = self._error_b.popleft()
        sink.push(BBeat(txn_id=txn_id, resp=resp))

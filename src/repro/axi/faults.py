"""Deterministic bus-level fault injection for the cycle-level stack.

This module proves the *simulated system* survives bus errors.  A
:class:`BusFaultPlan` describes exactly which bus accesses misbehave and
how; the memory endpoints and the crossbar demux each consult the plan at
one choke point, and everything downstream (response merging, engine
abort, fault reports) is ordinary error-response plumbing that injected and
organic faults share.

A plan is plain frozen data (picklable, JSON round-trippable, canonicalizes
for cache fingerprints) and is carried by
:attr:`repro.system.config.SystemConfig.bus_faults`::

    repro run spmv --inject-bus-fault \
        '{"faults": [{"kind": "slverr", "addr_lo": 4096, "addr_hi": 8192}]}'

Fault kinds:

``slverr``
    The matched access completes with ``Resp.SLVERR`` — the endpoint
    decoded the address but could not serve it (bank ECC error, device
    fault).  Reads deliver phantom beats (zero useful bytes), writes are
    dropped; the burst geometry (beat count, ``last`` position) is intact.
``decerr``
    The matched request decodes to no endpoint.  When a
    :class:`~repro.axi.mux.CycleAxiDemux` sits on the path it answers
    in-band with ``Resp.DECERR`` phantom beats, exactly as an AXI
    interconnect's default-slave does; endpoints reached directly answer
    ``DECERR`` themselves.
``stall``
    The matched access's response is delayed ``stall_cycles`` cycles — a
    slow device.  The response itself is still ``OKAY``; this fault
    exercises the engine's per-transaction watchdog *margin* without
    tripping it (unless stalled past ``watchdog_cycles``).
``lost``
    The matched burst vanishes at the memory endpoint, like a dropped flit
    or a wedged device.  A banked channel or the ideal endpoint matches
    each AR and AW it accepts (by its own name, the txn serial and the
    burst's start address), pops a lost one, drains and discards its W
    beats, and performs no access: no R beat or B response ever comes
    back, and a lost store writes nothing.  Only the engine's watchdog
    (armed whenever a plan is attached, see ``watchdog_cycles``) turns
    this into a structured timeout abort instead of a deadlock.

Faults are matched by ``(port, txn, address)``:

* ``port`` — the name of the component consulting the plan (the banked
  memory or ideal endpoint's name, the demux's name).  ``None`` matches
  any port.
* ``txn`` — the AXI transaction serial of the burst.  ``None`` matches any
  transaction.  The banked memory applies ``slverr``, ``decerr`` and
  ``stall`` per word, and its word accesses carry no transaction id, so
  those kinds never fire there when txn-keyed — key by address range to
  target the banked path.  ``lost`` is matched per burst on every
  endpoint, so a txn key works for it everywhere.
* ``addr_lo``/``addr_hi`` — a half-open byte-address range ``[lo, hi)``
  the access's address must fall in.  ``None`` bounds are open.  Address
  keying is the topology-stable choice: byte addresses are invariant
  across engine/channel counts, so one plan produces the same fault
  report on a 1×1 SoC and a 2×2 crossbar.

A fault with no keys matches *every* access — handy for smoke tests,
ruinous for anything else.  Matching is pure (no marker files, no hidden
state): the same plan on the same program always fires identically, which
is what makes fault-injected runs bit-comparable across the config cube.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from repro.axi.types import Resp
from repro.errors import ConfigurationError

#: Every fault kind a :class:`BusFaultSpec` accepts.
BUS_FAULT_KINDS = ("slverr", "decerr", "stall", "lost")

#: Default watchdog timeout (cycles without progress on one memory op).
#: Deliberately far below the engine's 10k-cycle deadlock window so a lost
#: response becomes a structured abort long before deadlock detection fires.
DEFAULT_WATCHDOG_CYCLES = 2000


@dataclass(frozen=True)
class BusFaultSpec:
    """One injected bus fault, matched by port name, txn serial and address.

    All keys are conjunctive: a spec with ``port="mem"`` and an address
    range fires only on accesses by the component named ``mem`` inside the
    range.  Matching is stateless — every matching access is faulted, so a
    spec is a property of the address/transaction space, not an event
    counter (that is what keeps it meaningful across topologies, where the
    same program decomposes into different transaction sequences).
    """

    kind: str
    port: Optional[str] = None       #: component name to target (None: any)
    txn: Optional[int] = None        #: AXI txn serial to target (None: any)
    addr_lo: Optional[int] = None    #: inclusive lower byte address bound
    addr_hi: Optional[int] = None    #: exclusive upper byte address bound
    stall_cycles: int = 16           #: response delay for ``stall``

    def __post_init__(self) -> None:
        if self.kind not in BUS_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown bus fault kind {self.kind!r}; known: {BUS_FAULT_KINDS}"
            )
        if self.stall_cycles < 0:
            raise ConfigurationError("stall_cycles must be non-negative")

    def matches(self, port: str, txn: Optional[int], addr: int) -> bool:
        """Whether this fault fires for an access ``(port, txn, addr)``.

        ``txn=None`` (a word-granular access with no transaction identity)
        never matches a txn-keyed spec.
        """
        if self.port is not None and self.port != port:
            return False
        if self.txn is not None and self.txn != txn:
            return False
        if self.addr_lo is not None and addr < self.addr_lo:
            return False
        if self.addr_hi is not None and addr >= self.addr_hi:
            return False
        return True

    @property
    def resp(self) -> Resp:
        """The response code this fault injects (OKAY for stall/lost)."""
        if self.kind == "slverr":
            return Resp.SLVERR
        if self.kind == "decerr":
            return Resp.DECERR
        return Resp.OKAY


@dataclass(frozen=True)
class BusFaultPlan:
    """A deterministic set of bus faults threaded through one SoC.

    ``watchdog_cycles`` arms the vector engine's per-memory-op watchdog:
    an op that sees no response progress for that many cycles is abandoned
    with a structured timeout fault.  The watchdog exists *only* while a
    plan is attached — fault-free runs carry no watchdog state at all,
    which is how the bit-identical-baselines guarantee stays trivial.
    """

    faults: Tuple[BusFaultSpec, ...] = ()
    watchdog_cycles: int = DEFAULT_WATCHDOG_CYCLES

    def __post_init__(self) -> None:
        if self.watchdog_cycles < 1:
            raise ConfigurationError("watchdog_cycles must be positive")

    # ------------------------------------------------------------ building
    @classmethod
    def from_json(cls, payload: Any) -> "BusFaultPlan":
        """Build a plan from the JSON form (a dict or a JSON string)."""
        if isinstance(payload, str):
            try:
                payload = json.loads(payload)
            except ValueError as exc:
                raise ConfigurationError(
                    f"invalid bus fault plan JSON: {exc}"
                ) from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"bus fault plan must be a JSON object, got {type(payload).__name__}"
            )
        try:
            faults = tuple(
                BusFaultSpec(**fault) for fault in payload.get("faults", ())
            )
        except TypeError as exc:
            raise ConfigurationError(f"invalid bus fault spec: {exc}") from exc
        return cls(
            faults=faults,
            watchdog_cycles=int(
                payload.get("watchdog_cycles", DEFAULT_WATCHDOG_CYCLES)
            ),
        )

    def to_json(self) -> Dict[str, Any]:
        """The JSON form accepted by :meth:`from_json`."""
        return {
            "watchdog_cycles": self.watchdog_cycles,
            "faults": [asdict(fault) for fault in self.faults],
        }

    # ----------------------------------------------------- injection sites
    def first_match(self, port: str, txn: Optional[int],
                    addr: int) -> Optional[BusFaultSpec]:
        """The first fault firing for ``(port, txn, addr)``, or None.

        First-match-wins keeps overlapping specs deterministic; plans are
        short (a handful of specs), so a linear scan per *burst* is noise.
        Word-granular callers (the banked memory) should prefilter with
        :meth:`touches_port` so the fault-free word hot path stays cheap.
        """
        for fault in self.faults:
            if fault.matches(port, txn, addr):
                return fault
        return None

    def touches_port(self, port: str) -> bool:
        """Whether any spec could ever fire on ``port`` (cheap prefilter)."""
        return any(f.port is None or f.port == port for f in self.faults)

"""System-level configuration for the three evaluation SoCs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.axi.faults import BusFaultPlan
from repro.errors import ConfigurationError
from repro.mem.banked import BankedMemoryConfig
from repro.utils.bitutils import is_power_of_two
from repro.vector.config import LoweringMode, VectorEngineConfig


class SystemKind(enum.Enum):
    """The three systems compared in the paper's evaluation.

    * ``BASE``  — unmodified CVA6 + Ara over a standard AXI4 bus to a regular
      banked memory.
    * ``PACK``  — AXI-Pack-extended Ara, AXI-Pack bus, and the banked memory
      behind the AXI-Pack controller.
    * ``IDEAL`` — unmodified Ara connected to an exclusive idealized memory
      with perfect packing, bandwidth and latency (upper bound).
    """

    BASE = "base"
    PACK = "pack"
    IDEAL = "ideal"

    @property
    def lowering(self) -> LoweringMode:
        """The VLSU lowering mode this system uses."""
        return LoweringMode(self.value)


@dataclass(frozen=True)
class SystemConfig:
    """Every parameter needed to instantiate one evaluation system.

    The defaults reproduce the paper's configuration: a 256-bit bus (eight
    64-bit lanes), 32-bit memory words, 17 banks, FP32 elements and
    decoupling queues of depth four.

    ``num_engines`` and ``num_channels`` select the SoC topology: with the
    defaults (``1`` × ``1``) the vector engine connects directly to the
    memory system, exactly as in the paper's evaluation.  With ``N > 1``
    engines and one channel, N vector engines share one adapter + banked
    memory behind a cycle-level N:1 multiplexer
    (:class:`repro.axi.mux.CycleAxiMux`) using the ``arbitration`` policy
    (``"rr"`` round-robin or ``"qos"`` static priority, port 0 highest).
    With ``M > 1`` channels the SoC instantiates M adapter + banked-memory
    (or ideal-endpoint) stacks behind an N×M demux/mux crossbar with
    stripe-interleaved routing: consecutive ``channel_stripe_bytes`` stripes
    of the address space rotate across the channels
    (:class:`repro.axi.interconnect.InterleavedAddressMap`), and each
    channel arbitrates its own links with the same ``arbitration`` policy.
    """

    kind: SystemKind = SystemKind.PACK
    bus_bytes: int = 32
    word_bytes: int = 4
    num_banks: int = 17
    queue_depth: int = 4
    memory_bytes: int = 1 << 24
    memory_latency: int = 1
    ideal_latency: int = 2
    vector: Optional[VectorEngineConfig] = None
    num_engines: int = 1
    arbitration: str = "rr"
    num_channels: int = 1
    channel_stripe_bytes: int = 1024
    #: Deterministic bus-level fault injection (see :mod:`repro.axi.faults`).
    #: ``None`` — the default — injects nothing and arms no watchdog, keeping
    #: fault-free runs bit-identical to the pre-fault-injection simulator.  A
    #: plan (or its JSON form) threads itself through every memory endpoint
    #: and crossbar demux and arms the engines' per-transaction watchdog.
    bus_faults: Optional[BusFaultPlan] = None

    def __post_init__(self) -> None:
        if not is_power_of_two(self.bus_bytes):
            raise ConfigurationError("bus width must be a power of two in bytes")
        if self.bus_bytes < self.word_bytes:
            raise ConfigurationError("bus must be at least one word wide")
        if self.num_engines < 1:
            raise ConfigurationError("a SoC needs at least one vector engine")
        if self.arbitration not in ("rr", "qos"):
            raise ConfigurationError(
                f"unknown arbitration {self.arbitration!r}; choose 'rr' or 'qos'"
            )
        if self.num_channels < 1:
            raise ConfigurationError("a SoC needs at least one memory channel")
        if not is_power_of_two(self.channel_stripe_bytes):
            raise ConfigurationError(
                "channel stripe size must be a power of two in bytes"
            )
        if self.channel_stripe_bytes < self.bus_bytes:
            raise ConfigurationError(
                "channel stripe must be at least one bus beat wide"
            )
        if self.memory_bytes < self.num_channels * self.channel_stripe_bytes:
            raise ConfigurationError(
                "memory smaller than one stripe per channel; shrink the "
                "stripe or the channel count"
            )
        if self.bus_faults is not None and not isinstance(
            self.bus_faults, BusFaultPlan
        ):
            # Accept the JSON form (dict or string) for CLI/config ergonomics.
            object.__setattr__(
                self, "bus_faults", BusFaultPlan.from_json(self.bus_faults)
            )

    # ------------------------------------------------------------ derived
    @property
    def bus_bits(self) -> int:
        """Bus width in bits (64, 128 or 256 in the paper's sweeps)."""
        return self.bus_bytes * 8

    @property
    def lanes(self) -> int:
        """Vector lane count implied by the bus width (paper: D/32)."""
        return self.bus_bytes // self.word_bytes

    @property
    def lowering(self) -> LoweringMode:
        """VLSU lowering mode of this system."""
        return self.kind.lowering

    def vector_config(self) -> VectorEngineConfig:
        """The vector engine configuration (derived unless overridden)."""
        if self.vector is not None:
            return self.vector
        return VectorEngineConfig(lanes=self.lanes, bus_bytes=self.bus_bytes)

    def memory_config(self) -> BankedMemoryConfig:
        """The banked channel (adapter + banked memory) configuration."""
        return BankedMemoryConfig(
            num_ports=self.bus_bytes // self.word_bytes,
            num_banks=self.num_banks,
            word_bytes=self.word_bytes,
            latency=self.memory_latency,
            queue_depth=self.queue_depth,
        )

    def with_kind(self, kind: SystemKind) -> "SystemConfig":
        """A copy of this configuration targeting a different system kind."""
        return replace(self, kind=kind)

    def with_engines(self, num_engines: int,
                     arbitration: Optional[str] = None) -> "SystemConfig":
        """A copy of this configuration with a different requestor count."""
        if arbitration is None:
            return replace(self, num_engines=num_engines)
        return replace(self, num_engines=num_engines, arbitration=arbitration)

    def with_bus_faults(
        self, plan: Optional[Union[BusFaultPlan, dict, str]]
    ) -> "SystemConfig":
        """A copy of this configuration under a different fault plan."""
        if plan is not None and not isinstance(plan, BusFaultPlan):
            plan = BusFaultPlan.from_json(plan)
        return replace(self, bus_faults=plan)

    def with_channels(self, num_channels: int,
                      stripe_bytes: Optional[int] = None) -> "SystemConfig":
        """A copy of this configuration with a different channel count."""
        if stripe_bytes is None:
            return replace(self, num_channels=num_channels)
        return replace(self, num_channels=num_channels,
                       channel_stripe_bytes=stripe_bytes)

    def channel_address_map(self):
        """The stripe-interleaved decode the crossbar routes channels by."""
        from repro.axi.interconnect import InterleavedAddressMap

        return InterleavedAddressMap(
            num_targets=self.num_channels,
            stripe_bytes=self.channel_stripe_bytes,
            size_bytes=self.memory_bytes,
        )

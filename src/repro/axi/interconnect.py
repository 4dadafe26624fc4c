"""Address decode for the cycle-level routing blocks.

A central compatibility claim of AXI-Pack (paper §II-A) is that interconnect
IP which does not reshape bursts — demultiplexers, multiplexers, crossbars
that only route — works with packed bursts *unmodified*, because all the new
semantics live in the ``user`` field and the existing address/len/size
fields.  The map below decodes a burst's start address to a target; the
cycle-level :class:`~repro.axi.mux.CycleAxiDemux` routes by it and
forwards every burst verbatim.  Every port of a
:class:`~repro.system.soc.Soc` is built at one bus width, so no topology
needs a data-width converter (the one kind of IP that would have to re-pack
AXI-Pack beats).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils.bitutils import is_power_of_two


class InterleavedAddressMap:
    """Stripe-interleaved address decode across ``num_targets`` channels.

    Instead of carving the address space into per-target regions, consecutive
    ``stripe_bytes``-sized stripes rotate across the targets:
    ``target = (addr // stripe_bytes) % num_targets``.  This is the classic
    multi-channel memory interleaving scheme — every channel sees a share of
    every workload's traffic, so bandwidth scales with the channel count
    without the software placing data.

    Routing blocks that consume this map route each burst by its *start*
    address (stripe-ownership semantics): the owning channel serves the whole
    burst even when its footprint crosses a stripe boundary.  That models a
    channel interleaver sitting in front of timing models which share one
    functional memory image, and keeps packed bursts — whose footprint is not
    derivable from the address alone — routable with zero AXI-Pack awareness,
    preserving the paper's §II-A compatibility claim.
    """

    def __init__(self, num_targets: int, stripe_bytes: int,
                 size_bytes: int) -> None:
        if num_targets < 1:
            raise ConfigurationError("interleaved map needs at least one target")
        if not is_power_of_two(stripe_bytes):
            raise ConfigurationError("stripe size must be a power of two")
        if size_bytes < stripe_bytes * num_targets:
            raise ConfigurationError(
                "address space smaller than one stripe per target"
            )
        self.num_targets = num_targets
        self.stripe_bytes = stripe_bytes
        self.size_bytes = size_bytes
        self._stripe_shift = stripe_bytes.bit_length() - 1

    def try_route(self, addr: int) -> int:
        """Return the target index owning the stripe containing ``addr``, or
        ``-1`` for an out-of-range address."""
        if not 0 <= addr < self.size_bytes:
            return -1
        return (addr >> self._stripe_shift) % self.num_targets

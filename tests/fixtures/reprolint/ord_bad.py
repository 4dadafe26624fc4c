"""Bad fixture: tick-path iteration over unordered containers (ORD01)."""


class Component:
    pass


class RacyArbiter(Component):
    def __init__(self):
        self.claims = {}

    def tick(self, cycle):
        for entry in self.claims.values():  # ORD01: dict-order grant walk
            _ = entry
        winners = [p for p in {3, 1, 2}]  # ORD01: set-literal iteration
        return len(winners)


class FusedStageHalf:
    """Not a Component, but ticked by one as a plain call."""

    def __init__(self):
        self.pending = {}

    def tick(self, cycle):
        for port in self.pending.keys():  # ORD01: dict order in a plain tick
            _ = port
        return 0

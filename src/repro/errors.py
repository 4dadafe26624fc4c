"""Exception hierarchy for the AXI-Pack reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish protocol violations from configuration
or simulation problems.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class ProtocolError(ReproError):
    """An AXI4 / AXI-Pack protocol rule was violated.

    Examples: burst longer than 256 beats, a plain AXI4 INCR burst crossing a
    4 KiB boundary, an AXI-Pack request with an unsupported element size, or a
    write burst whose payload does not match its beat count.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent or impossible state."""


class DeadlockError(SimulationError):
    """The simulation made no forward progress for too many cycles.

    ``diagnosis`` carries the engine's structured
    :class:`~repro.sim.engine.HangDiagnosis` snapshot (per-component busy
    state, queue occupancies and the blamed queue); ``None`` when the error
    was raised by code without access to an engine snapshot.
    """

    def __init__(self, message: str, diagnosis=None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class MemoryAccessError(ReproError):
    """An access fell outside the modelled memory or was misaligned.

    Every out-of-range functional access — storage reads/writes, burst
    payload helpers, image initialization — raises this one class, so
    callers can distinguish "the program touched bad memory" from an AXI
    protocol violation (:class:`ProtocolError`).  Note that the *simulated*
    bus never raises it: cycle-level endpoints convert bad addresses into
    in-band SLVERR/DECERR responses (see :mod:`repro.axi.types`).
    """


class WorkloadError(ReproError):
    """A workload was built with invalid parameters or produced bad data."""


class SpecFailedError(ReproError):
    """A run in a parallel batch timed out or lost its worker process.

    ``failures`` holds the journal record (a plain dict with ``label``,
    ``status`` and ``error``, see
    :class:`~repro.orchestrate.parallel.SpecOutcome`) of every run the
    runner gave up on.
    """

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        named = ", ".join(f"{failure['label']} ({failure['status']})"
                          for failure in self.failures)
        super().__init__(f"{len(self.failures)} run(s) failed: {named}")

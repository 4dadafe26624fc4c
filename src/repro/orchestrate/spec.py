"""Declarative, hashable descriptions of individual simulation runs.

A spec captures *everything* that determines a run's outcome — workload name
and constructor parameters, the :class:`~repro.system.config.SystemConfig`,
the :class:`~repro.system.config.SystemKind`, and the code version — as plain
data.  That buys three properties the old factory-lambda style could not
offer:

* **picklable** — specs cross process boundaries, so runs can fan out over a
  :class:`~repro.orchestrate.parallel.ParallelRunner` process pool;
* **hashable** — the canonical fingerprint yields a stable cache key, so the
  :class:`~repro.orchestrate.cache.ResultCache` can skip repeat simulations;
* **reproducible** — a spec read back from a cache entry says exactly what
  produced the stored result.

Workloads are deterministic given their parameters (every data generator has
a fixed default seed), which is what makes result caching sound.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.system.config import SystemConfig, SystemKind
from repro.version import __version__

#: Bump to invalidate every cache entry when result semantics change without
#: a package version bump (e.g. a simulator bug fix during development).
#: 2: ``SystemConfig`` grew ``data_policy`` — every fingerprint now names the
#: policy explicitly, so a FULL result can never serve an ELIDE request (or
#: vice versa) and pre-policy entries are unreachable/prunable.
#: 3: ``SystemConfig`` grew ``num_engines``/``arbitration`` (the multi-engine
#: topology) — fingerprints now name the requestor count and arbitration
#: policy, and results carry the per-engine breakdown, so pre-topology
#: entries are unreachable/prunable.
#: 4: ``SystemConfig`` grew ``num_channels``/``channel_stripe_bytes`` (the
#: M×N crossbar topology) — fingerprints now name the memory-channel count
#: and interleave stripe, and multi-channel results carry per-channel
#: (``chan{j}.``-prefixed) stats, so pre-crossbar entries are
#: unreachable/prunable.
#: 5: ``SystemConfig`` grew ``bus_faults`` (deterministic bus-level fault
#: injection) — fingerprints now name the fault plan, fault-injected results
#: carry a ``fault_report``, and ``bus_faults=None`` runs get fresh keys so a
#: faulted result can never serve a fault-free request; pre-fault entries are
#: unreachable/prunable.
#: 6: ``SystemConfig`` lost ``data_policy`` (the timing-only ELIDE policy is
#: gone; every run moves real bytes) — fingerprints no longer name a policy,
#: so schema-5 entries and sweep manifests are unreachable/prunable.
#: 7: ``SystemConfig`` lost ``word_bytes``, ``num_banks``, ``ideal_latency``
#: and ``vector`` (fixed by the paper's system or derived), and
#: ``BusFaultPlan`` lost ``seed``; a banked channel now drops a ``lost``
#: burst whole, so schema-6 entries are unreachable/prunable.
CACHE_SCHEMA_VERSION = 7


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to JSON-representable plain data, deterministically.

    Dataclasses become sorted-key dictionaries, enums their values, tuples
    lists, and numpy scalars plain Python numbers.  Raises ``TypeError`` for
    anything else non-JSON-safe (notably callables), which is exactly the
    point: a spec that cannot be canonicalized cannot be cached soundly.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} for hashing")


def fingerprint_key(fingerprint: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a canonical fingerprint dictionary."""
    payload = json.dumps(canonicalize(dict(fingerprint)), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_ref(spec: Any) -> Tuple[str, Any]:
    """``(label, cache key)`` identifying a spec in the runner's journal.

    Works for any spec type, including foreign ones without ``label()`` or
    ``cache_key()`` (the label falls back to the type name, the key to
    ``None``) — recording a spec must never fail on an exotic one.
    """
    label = getattr(spec, "label", None)
    key = getattr(spec, "cache_key", None)
    return (label() if callable(label) else type(spec).__name__,
            key() if callable(key) else None)


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload identified by registry name plus constructor parameters.

    Parameters are stored as a sorted tuple of ``(key, value)`` pairs so the
    spec stays hashable and its fingerprint is order-independent.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def create(cls, name: str, **params: Any) -> "WorkloadSpec":
        """Build a spec from keyword parameters (``size=48, dataflow="row"``).

        Defaults exposed by :func:`~repro.workloads.registry.make_workload`'s
        signature are baked into ``params`` so that editing such a default
        later cannot silently alias old cache entries.  Defaults buried in
        workload constructors or data generators are invisible here —
        changing one of those requires a ``CACHE_SCHEMA_VERSION`` bump.
        """
        import inspect

        from repro.workloads.registry import make_workload

        merged = {
            key: parameter.default
            for key, parameter in inspect.signature(make_workload).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }
        merged.update(params)
        return cls(name=name, params=tuple(sorted(merged.items())))

    def build(self):
        """Instantiate the workload (fresh instance per call)."""
        from repro.workloads.registry import make_workload

        return make_workload(self.name, **dict(self.params))


@dataclass(frozen=True)
class RunSpec:
    """One full SoC simulation: a workload on one system configuration.

    ``execute`` reproduces exactly what :func:`repro.system.runner.run_workload`
    does; the orchestrator's serial path and its worker processes both go
    through this method, which is what guarantees parallel/serial equivalence.
    """

    workload: WorkloadSpec
    config: SystemConfig = field(default_factory=SystemConfig)
    kind: SystemKind = SystemKind.PACK
    verify: bool = False
    max_cycles: int = 50_000_000
    version: str = __version__

    def fingerprint(self) -> Dict[str, Any]:
        """Everything that determines this run's *measurements*, as plain data.

        ``verify`` is deliberately absent: checking results against the
        reference implementation never changes what was measured, so a
        verified run and an unverified run of the same spec share one cache
        entry (see :meth:`result_compatible` for the one-way upgrade rule).
        """
        return {
            "type": "run",
            "schema": CACHE_SCHEMA_VERSION,
            "version": self.version,
            "workload": canonicalize(self.workload),
            # execute() overrides the config's kind with this spec's, so
            # normalize it out of the key: configs differing only in their
            # (dead) kind field describe the same measurement.
            "config": canonicalize(self.config.with_kind(self.kind)),
            "kind": self.kind.value,
            "max_cycles": self.max_cycles,
        }

    def cache_key(self) -> str:
        """Stable cache key for this run."""
        return fingerprint_key(self.fingerprint())

    def result_compatible(self, result) -> bool:
        """Whether a cached result satisfies this spec.

        A verified result (``verified`` is True/False) serves both verified
        and unverified requests; an unverified one (``verified`` is None)
        cannot serve ``verify=True`` — the memory image it would check
        against is gone, so the run must be repeated with verification.
        """
        return not self.verify or result.verified is not None

    def execute(self):
        """Run the simulation and return a ``SystemRunResult``."""
        from repro.system.runner import run_workload

        return run_workload(
            self.workload.build(), self.config, kind=self.kind,
            verify=self.verify, max_cycles=self.max_cycles,
        )

    def result_to_json(self, result) -> Dict[str, Any]:
        from repro.orchestrate.serialize import system_run_result_to_dict

        return system_run_result_to_dict(result)

    def result_from_json(self, data):
        from repro.orchestrate.serialize import system_run_result_from_dict

        return system_run_result_from_dict(data)

    def label(self) -> str:
        """Short human-readable description for progress reporting."""
        return f"{self.workload.name}/{self.kind.value}"


def _measure_function(mode: str):
    """The Fig. 5 measurement driver for ``mode`` (lazy: avoids an import
    cycle with :mod:`repro.analysis.fig5`)."""
    from repro.analysis import fig5

    return {
        "indirect": fig5.measure_indirect_utilization,
        "strided": fig5.measure_strided_utilization,
    }[mode]


def _bind_measure_params(mode: str, params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Bind ``params`` against the measure function, baking in its defaults.

    Every outcome-determining keyword (``num_beats``, ``seed``,
    ``bus_bytes``, ...) lands in the fingerprint even when the caller relied
    on the default, so editing a default later changes cache keys instead of
    silently serving stale results.
    """
    import inspect

    bound = inspect.signature(_measure_function(mode)).bind(**params)
    bound.apply_defaults()
    return tuple(sorted(bound.arguments.items()))


@dataclass(frozen=True)
class UtilizationSpec:
    """One Fig. 5 controller-testbench measurement (returns a float).

    ``mode`` selects between the indirect-read and strided-read drivers of
    :mod:`repro.analysis.fig5`; ``params`` carries that driver's keyword
    arguments (element/index sizes, bank count, stride, queue depth, ...).
    """

    mode: str  # "indirect" | "strided"
    params: Tuple[Tuple[str, Any], ...] = ()
    version: str = __version__

    @classmethod
    def indirect(cls, **params: Any) -> "UtilizationSpec":
        return cls(mode="indirect", params=_bind_measure_params("indirect", params))

    @classmethod
    def strided(cls, **params: Any) -> "UtilizationSpec":
        return cls(mode="strided", params=_bind_measure_params("strided", params))

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "type": "utilization",
            "schema": CACHE_SCHEMA_VERSION,
            "version": self.version,
            "mode": self.mode,
            "params": canonicalize(dict(self.params)),
        }

    def cache_key(self) -> str:
        return fingerprint_key(self.fingerprint())

    def execute(self) -> float:
        return float(_measure_function(self.mode)(**dict(self.params)))

    def result_to_json(self, result: float) -> float:
        return float(result)

    def result_from_json(self, data) -> float:
        return float(data)

    def label(self) -> str:
        params = dict(self.params)
        detail = params.get("num_banks", "?")
        return f"{self.mode}/banks={detail}"

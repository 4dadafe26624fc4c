"""High-level helpers to run workloads on the evaluation systems.

The comparison helpers (``compare_systems``, ``compare_systems_many``)
take :class:`~repro.orchestrate.spec.WorkloadSpec` objects and submit their
runs through the :mod:`repro.orchestrate` layer; pass a
:class:`~repro.orchestrate.parallel.ParallelRunner` to get result caching
and multi-core fan-out.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.system.config import SystemConfig, SystemKind
from repro.system.results import SystemRunResult, WorkloadComparison
from repro.system.soc import build_system

#: The three systems every comparison covers, in the paper's order.
ALL_KINDS = (SystemKind.BASE, SystemKind.PACK, SystemKind.IDEAL)


def run_workload(
    workload,
    config: Optional[SystemConfig] = None,
    kind: Optional[SystemKind] = None,
    verify: bool = True,
    max_cycles: int = 50_000_000,
) -> SystemRunResult:
    """Run one workload on one system and return the measurements.

    Parameters
    ----------
    workload:
        Any object implementing the :class:`repro.workloads.base.Workload`
        protocol (``initialize``, ``build_program``, ``verify``).
    config:
        System configuration; defaults to the paper's 256-bit / 17-bank PACK
        system.  ``kind`` overrides the configuration's system kind.
    verify:
        If True, the workload's results in simulated memory are checked
        against its reference implementation after the run.  A run aborted
        by a bus fault is explicitly marked ``verified=False``.
    """
    from repro.vector.engine import EngineResult

    config = config or SystemConfig()
    if kind is not None:
        config = config.with_kind(kind)
    soc = build_system(config)
    workload.initialize(soc.storage)
    if config.num_engines == 1:
        program = workload.build_program(config.lowering, config.vector_config())
        cycles, engine_result = soc.run_program(program, max_cycles=max_cycles)
        engines = None
    else:
        # Multi-engine topology: the sharded driver splits the workload's
        # rows/segments into one program per engine over the shared image.
        programs = workload.build_sharded_programs(
            config.lowering, config.vector_config(), config.num_engines
        )
        cycles, engines = soc.run_programs(programs, max_cycles=max_cycles)
        engine_result = EngineResult.aggregate(engines, cycles)
    fault_report = soc.last_fault_report
    if fault_report is not None:
        # The run aborted mid-program (bus faults): the memory image cannot
        # match the reference.
        verified: Optional[bool] = False
    else:
        verified = workload.verify(soc.storage) if verify else None
    return SystemRunResult(
        workload=workload.name,
        kind=config.kind,
        cycles=cycles,
        engine=engine_result,
        # Merged snapshot: identical to the raw registry on single-channel
        # SoCs; adds chan{j}.-prefixed per-channel counters on the crossbar.
        stats=soc.stats_snapshot(),
        verified=verified,
        engines=engines,
        fault_report=fault_report,
    )


def compare_systems(
    spec,
    config: Optional[SystemConfig] = None,
    verify: bool = True,
    max_cycles: int = 50_000_000,
    runner=None,
) -> WorkloadComparison:
    """Run one :class:`~repro.orchestrate.spec.WorkloadSpec` on BASE, PACK
    and IDEAL and package the comparison."""
    return compare_systems_many(
        [spec], config, verify=verify, max_cycles=max_cycles, runner=runner
    )[spec.name]


def compare_systems_many(
    workload_specs: Sequence,
    config: Optional[SystemConfig] = None,
    verify: bool = True,
    max_cycles: int = 50_000_000,
    runner=None,
) -> Dict[str, WorkloadComparison]:
    """BASE/PACK/IDEAL comparisons for many workloads in one batch.

    All ``len(workload_specs) * 3`` runs are submitted to the runner as a
    single batch, so with ``--jobs N`` the whole grid fans out at once
    instead of parallelizing only within one workload's three systems.
    Returns comparisons keyed by workload name, in input order.
    """
    from repro.errors import ConfigurationError
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import RunSpec

    names = [spec.name for spec in workload_specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            "compare_systems_many keys its result by workload name; "
            f"duplicate names in {names} would silently drop comparisons"
        )
    config = config or SystemConfig()
    runner = runner or ParallelRunner()
    specs: List[RunSpec] = [
        RunSpec(workload=spec, config=config, kind=kind,
                verify=verify, max_cycles=max_cycles)
        for spec in workload_specs
        for kind in ALL_KINDS
    ]
    results = runner.run(specs)
    comparisons: Dict[str, WorkloadComparison] = {}
    for index, spec in enumerate(workload_specs):
        base, pack, ideal = results[index * len(ALL_KINDS):(index + 1) * len(ALL_KINDS)]
        comparisons[spec.name] = WorkloadComparison(
            workload=base.workload, base=base, pack=pack, ideal=ideal,
        )
    return comparisons

"""Figure 3 experiments: workload performance on BASE / PACK / IDEAL.

All drivers take a ``scale`` argument: ``"small"`` runs in seconds (for
tests), ``"medium"`` in a couple of minutes, and ``"paper"``
approaches the paper's problem sizes (256x256 dense matrices and a
heart1-like sparse matrix with 390 average nonzeros per row).

Every driver also takes a ``runner``: a
:class:`~repro.orchestrate.parallel.ParallelRunner` through which all
simulation runs are submitted as one batch, enabling result caching and
multi-core fan-out.  With the default runner the behavior is the classic
serial, uncached execution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.report import ExperimentTable
from repro.errors import ConfigurationError
from repro.system.config import SystemConfig, SystemKind
from repro.system.results import WorkloadComparison
from repro.system.runner import ALL_KINDS, compare_systems_many
from repro.workloads.registry import WORKLOAD_ORDER

#: Problem sizes per scale: (dense matrix dim, sparse rows, sparse nnz/row).
SCALES = {
    "tiny": (16, 16, 8.0),
    "small": (48, 48, 32.0),
    "medium": (128, 128, 128.0),
    "paper": (256, 256, 390.0),
}


def _sizes(scale: str):
    if scale not in SCALES:
        raise ConfigurationError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    return SCALES[scale]


def figure_3a(
    scale: str = "small",
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = WORKLOAD_ORDER,
    verify: bool = True,
    runner=None,
) -> ExperimentTable:
    """Fig. 3a: speedups over BASE and R-bus utilizations for all workloads."""
    config = config or SystemConfig()
    table = ExperimentTable(
        experiment="fig3a",
        caption="Speedups and R bus utilizations across workloads",
        headers=[
            "workload", "base_cycles", "pack_cycles", "ideal_cycles",
            "pack_speedup", "ideal_speedup", "base_Rutil", "pack_Rutil",
            "ideal_Rutil", "ideal_Rutil_no_idx", "verified",
        ],
    )
    comparisons = collect_figure_3a_comparisons(
        scale, config, workloads, verify=verify, runner=runner
    )
    for name in workloads:
        comparison = comparisons[name]
        table.add_row(
            name,
            comparison.base.cycles,
            comparison.pack.cycles,
            comparison.ideal.cycles,
            comparison.pack_speedup,
            comparison.ideal_speedup,
            comparison.base.r_utilization,
            comparison.pack.r_utilization,
            comparison.ideal.r_utilization,
            comparison.ideal.r_utilization_no_index,
            all(r.verified for r in (comparison.base, comparison.pack, comparison.ideal)),
        )
    note = (f"scale={scale}, bus={config.bus_bits}b, "
            f"banks={config.memory_config().num_banks}")
    if config.num_engines > 1:
        note += (f", engines={config.num_engines} "
                 f"(sharded, {config.arbitration} arbitration)")
    table.add_note(note)
    return table


def collect_figure_3a_comparisons(
    scale: str = "small",
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = WORKLOAD_ORDER,
    verify: bool = False,
    runner=None,
) -> Dict[str, WorkloadComparison]:
    """Raw comparisons behind Fig. 3a (reused by the Fig. 4c energy model)."""
    from repro.analysis.headline import workload_spec_kwargs
    from repro.orchestrate.spec import WorkloadSpec

    config = config or SystemConfig()
    specs = [WorkloadSpec.create(name, **workload_spec_kwargs(name, scale))
             for name in workloads]
    return compare_systems_many(specs, config, verify=verify, runner=runner)


def _dataflow_table(workload_name: str, experiment: str, scale: str,
                    config: Optional[SystemConfig], verify: bool,
                    runner=None) -> ExperimentTable:
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import RunSpec, WorkloadSpec

    config = config or SystemConfig()
    runner = runner or ParallelRunner()
    dense_n, _, _ = _sizes(scale)
    table = ExperimentTable(
        experiment=experiment,
        caption=f"{workload_name} row- vs column-wise dataflow",
        headers=["dataflow", "system", "cycles", "r_utilization", "verified"],
    )
    grid = [(dataflow, kind)
            for dataflow in ("row", "col")
            for kind in ALL_KINDS]
    specs = [
        RunSpec(
            workload=WorkloadSpec.create(workload_name, size=dense_n, dataflow=dataflow),
            config=config, kind=kind, verify=verify,
        )
        for dataflow, kind in grid
    ]
    for (dataflow, kind), result in zip(grid, runner.run(specs)):
        table.add_row(dataflow, kind.value, result.cycles,
                      result.r_utilization, bool(result.verified))
    table.add_note(f"scale={scale}: row-wise flows perform identically on BASE and "
                   "PACK; column-wise flows need packed strided accesses to win")
    return table


def figure_3b(scale: str = "small", config: Optional[SystemConfig] = None,
              verify: bool = True, runner=None) -> ExperimentTable:
    """Fig. 3b: gemv dataflows compared on all three systems."""
    return _dataflow_table("gemv", "fig3b", scale, config, verify, runner)


def figure_3c(scale: str = "small", config: Optional[SystemConfig] = None,
              verify: bool = True, runner=None) -> ExperimentTable:
    """Fig. 3c: trmv dataflows compared on all three systems."""
    return _dataflow_table("trmv", "fig3c", scale, config, verify, runner)


def _bus_sweep_table(
    experiment: str,
    caption: str,
    headers: Sequence[str],
    bus_bits: Sequence[int],
    points: Sequence,
    point_spec,
    config: SystemConfig,
    verify: bool,
    runner,
) -> ExperimentTable:
    """Shared shape of Figs. 3d/3e: (bus width x sweep point) BASE/PACK grids.

    ``point_spec(point)`` returns the :class:`WorkloadSpec` for one sweep
    point; each grid cell contributes a BASE and a PACK run and one table row
    ``[bus, point, base_cycles, pack_cycles, speedup]``.
    """
    import dataclasses

    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import RunSpec

    runner = runner or ParallelRunner()
    table = ExperimentTable(experiment=experiment, caption=caption, headers=headers)
    grid = [(bus, point) for bus in bus_bits for point in points]
    specs: List[RunSpec] = []
    for bus, point in grid:
        bus_config = dataclasses.replace(config, bus_bytes=bus // 8)
        workload = point_spec(point)
        for kind in (SystemKind.BASE, SystemKind.PACK):
            specs.append(RunSpec(workload=workload, config=bus_config,
                                 kind=kind, verify=verify))
    results = runner.run(specs)
    for index, (bus, point) in enumerate(grid):
        base, pack = results[2 * index], results[2 * index + 1]
        table.add_row(bus, point, base.cycles, pack.cycles,
                      base.cycles / pack.cycles)
    return table


def figure_3d(
    dimensions: Optional[Iterable[int]] = None,
    bus_bits: Sequence[int] = (64, 128, 256),
    config: Optional[SystemConfig] = None,
    verify: bool = False,
    runner=None,
) -> ExperimentTable:
    """Fig. 3d: ismt PACK speedup versus matrix dimension and bus width."""
    from repro.orchestrate.spec import WorkloadSpec

    config = config or SystemConfig()
    dimensions = list(dimensions) if dimensions is not None else [8, 16, 32, 64, 128]
    table = _bus_sweep_table(
        experiment="fig3d",
        caption="ismt PACK speedup over BASE vs matrix dimension and bus width",
        headers=["bus_bits", "dimension", "base_cycles", "pack_cycles", "speedup"],
        bus_bits=bus_bits,
        points=dimensions,
        point_spec=lambda dim: WorkloadSpec.create("ismt", size=dim),
        config=config,
        verify=verify,
        runner=runner,
    )
    table.add_note("speedups grow with dimension (longer streams) and bus width "
                   "(narrow BASE accesses waste more)")
    return table


def figure_3e(
    nnz_per_row: Optional[Iterable[float]] = None,
    bus_bits: Sequence[int] = (64, 128, 256),
    num_rows: int = 48,
    config: Optional[SystemConfig] = None,
    verify: bool = False,
    runner=None,
) -> ExperimentTable:
    """Fig. 3e: spmv PACK speedup versus average nonzeros per row and bus width."""
    from repro.orchestrate.spec import WorkloadSpec

    config = config or SystemConfig()
    nnz_per_row = list(nnz_per_row) if nnz_per_row is not None else [2, 8, 16, 32, 48]
    table = _bus_sweep_table(
        experiment="fig3e",
        caption="spmv PACK speedup over BASE vs nonzeros per row and bus width",
        headers=["bus_bits", "nnz_per_row", "base_cycles", "pack_cycles", "speedup"],
        bus_bits=bus_bits,
        points=nnz_per_row,
        point_spec=lambda nnz: WorkloadSpec.create(
            "spmv", size=max(num_rows, int(nnz) + 1), avg_nnz_per_row=float(nnz)
        ),
        config=config,
        verify=verify,
        runner=runner,
    )
    table.add_note("nonzeros per row set the stream length of each row iteration; "
                   "short rows are dominated by iteration overhead")
    return table

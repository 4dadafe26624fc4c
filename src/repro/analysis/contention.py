"""Contention sweep: N requestors sharing one packed interconnect.

The paper's evaluation is strictly single-requestor: one Ara instance owns
the whole bus, so the utilization numbers of Fig. 3/5 say nothing about how
AXI-Pack behaves when several engines *contend* for one memory system.
This experiment opens that scenario family: for each workload and system it
shards the kernel's rows across 1, 2 and 4 vector engines behind the
cycle-level N:1 mux (:class:`repro.axi.mux.CycleAxiMux`) and measures the
multi-engine speedup and the aggregate shared-bus utilization.

The headline observations (committed in ``results/contention.csv``):

* **Indirect workloads scale.**  Their single-engine R utilization is low
  (the paper's ~39 % ceiling), so a second engine's traffic interleaves
  into the idle bus cycles almost for free — spmv/csrspmv reach ~1.6-1.9x
  at two engines under both BASE and PACK.
* **Packed dense workloads are bus-bound.**  gemv/trmv under PACK already
  stream strided bursts near the bus's one-beat-per-cycle limit, so extra
  engines mostly add arbitration latency; under BASE the same kernels
  scale super-linearly because narrow transfers leave the bus idle.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.analysis.headline import workload_spec_kwargs
from repro.analysis.report import ExperimentTable
from repro.system.config import SystemConfig, SystemKind

#: Workloads of the committed sweep: one packed-strided kernel that is
#: bus-bound under PACK, and two indirect kernels with contention headroom.
CONTENTION_WORKLOADS: Tuple[str, ...] = ("gemv", "spmv", "csrspmv")

#: Engine counts swept (1 is the baseline the speedups are relative to).
CONTENTION_ENGINES: Tuple[int, ...] = (1, 2, 4)

#: Systems compared; IDEAL is omitted because its exclusive per-lane memory
#: is definitionally contention-free in the paper's sense.
CONTENTION_KINDS: Tuple[SystemKind, ...] = (SystemKind.BASE, SystemKind.PACK)


def figure_contention(
    scale: str = "small",
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = CONTENTION_WORKLOADS,
    engines: Optional[Sequence[int]] = None,
    kinds: Sequence[SystemKind] = CONTENTION_KINDS,
    verify: bool = True,
    runner=None,
) -> ExperimentTable:
    """Multi-engine speedup and shared-bus utilization under contention.

    ``engines`` defaults to the standard 1/2/4 sweep, extended by the
    configuration's own ``num_engines`` so ``repro run contention
    --engines 8`` sweeps up to (and including) the requested count.
    """
    from repro.orchestrate.parallel import ParallelRunner
    from repro.orchestrate.spec import RunSpec, WorkloadSpec

    config = config or SystemConfig()
    if engines is None:
        engines = tuple(sorted({*CONTENTION_ENGINES, config.num_engines}))
    engines = tuple(engines)
    if 1 not in engines:
        engines = (1,) + engines  # the speedup baseline must be swept
    specs = []
    points = []
    for name in workloads:
        workload = WorkloadSpec.create(name, **workload_spec_kwargs(name, scale))
        for kind in kinds:
            for count in engines:
                point_config = replace(
                    config.with_kind(kind), num_engines=count
                )
                specs.append(RunSpec(workload=workload, config=point_config,
                                     kind=kind, verify=verify))
                points.append((name, kind, count))
    runner = runner or ParallelRunner()
    results = dict(zip(points, runner.run(specs)))

    table = ExperimentTable(
        experiment="contention",
        caption="Multi-engine contention: speedup and shared-bus utilization",
        headers=[
            "workload", "system", "engines", "cycles", "speedup",
            "R_util", "W_util", "bank_conflicts", "verified",
        ],
    )
    for name in workloads:
        for kind in kinds:
            baseline = results[(name, kind, 1)]
            for count in engines:
                result = results[(name, kind, count)]
                table.add_row(
                    name,
                    kind.value,
                    count,
                    result.cycles,
                    baseline.cycles / result.cycles if result.cycles else 0.0,
                    result.r_utilization,
                    result.w_utilization,
                    result.stats.get("mem.bank_conflicts", 0.0),
                    result.verified,
                )
    table.add_note(
        f"scale={scale}, bus={config.bus_bits}b, "
        f"banks={config.memory_config().num_banks}, "
        f"arbitration={config.arbitration}; speedup is relative to the "
        "1-engine run of the same workload/system; R/W util is aggregate "
        "traffic over the one shared bus"
    )
    return table

"""Cycle pins for the 48 points of the headline grid at ``scale="small"``.

The grid is every paper-figure workload plus ``csrspmv`` on BASE, PACK and
IDEAL with SRAM- and DRAM-class memory, and gemv/spmv/csrspmv on BASE and
PACK with two engines sharing SRAM.  Each point is built from the shared
headline geometry (``repro.analysis.headline``).  Simulation is
deterministic, so every point must reproduce its recorded cycle count
exactly; a deliberate change to simulated behaviour updates this table.

Every point also runs on the tick-every-cycle reference engine
(``event_driven=False``), which must match the event-driven engine in
cycles, statistics and engine results.  The DRAM-class points are the only
long-latency workload runs compared between the two engines.
"""

from dataclasses import replace

import pytest

from repro.analysis.headline import (
    MEMORY_LATENCY,
    point_system_config,
    workload_spec_kwargs,
)
from repro.axi.transaction import reset_txn_ids
from repro.orchestrate.spec import WorkloadSpec
from repro.system.config import SystemKind
from repro.system.soc import build_system

#: (workload, system, memory class, engines) -> simulated cycles.
HEADLINE_CYCLES = {
    ("ismt", "base", "sram", 1): 3531,
    ("ismt", "base", "dram", 1): 71708,
    ("ismt", "pack", "sram", 1): 1648,
    ("ismt", "pack", "dram", 1): 20000,
    ("ismt", "ideal", "sram", 1): 1312,
    ("ismt", "ideal", "dram", 1): 5918,
    ("gemv", "base", "sram", 1): 2603,
    ("gemv", "base", "dram", 1): 12256,
    ("gemv", "pack", "sram", 1): 414,
    ("gemv", "pack", "dram", 1): 7576,
    ("gemv", "ideal", "sram", 1): 387,
    ("gemv", "ideal", "dram", 1): 2739,
    ("trmv", "base", "sram", 1): 2257,
    ("trmv", "base", "dram", 1): 8774,
    ("trmv", "pack", "sram", 1): 354,
    ("trmv", "pack", "dram", 1): 4810,
    ("trmv", "ideal", "sram", 1): 327,
    ("trmv", "ideal", "dram", 1): 2679,
    ("spmv", "base", "sram", 1): 4686,
    ("spmv", "base", "dram", 1): 24392,
    ("spmv", "pack", "sram", 1): 2930,
    ("spmv", "pack", "dram", 1): 14424,
    ("spmv", "ideal", "sram", 1): 3284,
    ("spmv", "ideal", "dram", 1): 12692,
    ("prank", "base", "sram", 1): 5017,
    ("prank", "base", "dram", 1): 25696,
    ("prank", "pack", "sram", 1): 3216,
    ("prank", "pack", "dram", 1): 15274,
    ("prank", "ideal", "sram", 1): 3560,
    ("prank", "ideal", "dram", 1): 12968,
    ("sssp", "base", "sram", 1): 4917,
    ("sssp", "base", "dram", 1): 24696,
    ("sssp", "pack", "sram", 1): 3169,
    ("sssp", "pack", "dram", 1): 14564,
    ("sssp", "ideal", "sram", 1): 3515,
    ("sssp", "ideal", "dram", 1): 12923,
    ("csrspmv", "base", "sram", 1): 4338,
    ("csrspmv", "base", "dram", 1): 28111,
    ("csrspmv", "pack", "sram", 1): 3140,
    ("csrspmv", "pack", "dram", 1): 18126,
    ("csrspmv", "ideal", "sram", 1): 2892,
    ("csrspmv", "ideal", "dram", 1): 7988,
    ("gemv", "base", "sram", 2): 1369,
    ("gemv", "pack", "sram", 2): 392,
    ("spmv", "base", "sram", 2): 2932,
    ("spmv", "pack", "sram", 2): 1582,
    ("csrspmv", "base", "sram", 2): 3273,
    ("csrspmv", "pack", "sram", 2): 2095,
}


def _point_id(point) -> str:
    workload, system, memory, engines = point
    return f"{workload}-{system}-{memory}-{engines}e"


def _run_point(point, event_driven=True):
    """Simulate one grid point; return (cycles, stats, engine result(s))."""
    workload, system, memory, engines = point
    reset_txn_ids()
    instance = WorkloadSpec.create(
        workload, **workload_spec_kwargs(workload, "small")).build()
    config = point_system_config(SystemKind(system), MEMORY_LATENCY[memory])
    config = replace(config, num_engines=engines)
    soc = build_system(config)
    instance.initialize(soc.storage)
    if engines == 1:
        program = instance.build_program(config.lowering, config.vector_config())
    else:
        program = instance.build_sharded_programs(
            config.lowering, config.vector_config(), engines)
    cycles, result = soc.run_program(program, event_driven=event_driven)
    return cycles, soc.stats_snapshot(), result


@pytest.mark.parametrize("point", list(HEADLINE_CYCLES), ids=_point_id)
def test_headline_point_cycles(point):
    cycles, _stats, _result = _run_point(point)
    assert cycles == HEADLINE_CYCLES[point]


@pytest.mark.parametrize("point", list(HEADLINE_CYCLES), ids=_point_id)
def test_naive_engine_matches_event_engine(point):
    naive = _run_point(point, event_driven=False)
    assert naive[0] == HEADLINE_CYCLES[point]
    assert naive == _run_point(point)

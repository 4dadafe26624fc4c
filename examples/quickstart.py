#!/usr/bin/env python3
"""Quickstart: run one irregular kernel on all three evaluation systems.

This example reproduces the core claim of the paper in miniature: a sparse
matrix-vector multiply (an indirect, gather-heavy kernel) runs much faster
and uses the read bus far more efficiently when the vector processor and the
memory controller speak AXI-Pack.

Run with::

    python examples/quickstart.py
"""

from repro.orchestrate import WorkloadSpec
from repro.system import SystemConfig, SystemKind, compare_systems, run_workload


def main() -> None:
    # The paper's system configuration: 256-bit bus, 8 lanes, 17 banks.
    config = SystemConfig()
    print(f"System: {config.bus_bits}-bit bus, {config.lanes} lanes, "
          f"{config.memory_config().num_banks} banks\n")

    # A small synthetic CSR matrix (64 rows, ~48 nonzeros per row) standing in
    # for the SuiteSparse inputs of the paper.
    spec = WorkloadSpec.create("spmv", size=64, avg_nnz_per_row=48)

    # Run the same kernel on the BASE, PACK and IDEAL systems and compare.
    comparison = compare_systems(spec, config, verify=True)

    print("spmv on the three evaluation systems:")
    for result in (comparison.base, comparison.pack, comparison.ideal):
        print("  " + result.summary())

    print(f"\nPACK speedup over BASE : {comparison.pack_speedup:.2f}x")
    print(f"IDEAL speedup over BASE: {comparison.ideal_speedup:.2f}x")
    print(f"PACK reaches {comparison.pack_fraction_of_ideal:.0%} of IDEAL performance")

    # A single run also exposes the full measurement record.
    single = run_workload(spec.build(), config, kind=SystemKind.PACK)
    engine = single.engine
    print(f"\nPACK detail: {engine.r_beats} R beats carrying "
          f"{engine.r_useful_bytes} useful bytes over {single.cycles} cycles "
          f"-> {single.r_utilization:.1%} R bus utilization")
    print("Indices never crossed the bus on PACK: "
          f"{engine.r_index_bytes} index bytes transferred")


if __name__ == "__main__":
    main()

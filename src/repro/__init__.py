"""AXI-Pack reproduction library.

This package reproduces the system described in *AXI-Pack: Near-Memory Bus
Packing for Bandwidth-Efficient Irregular Workloads* (DATE 2023) as a
functional, cycle-approximate bandwidth model written in pure Python + numpy.

The main entry points are:

* :mod:`repro.axi` — the AXI4 / AXI-Pack protocol model (burst descriptors,
  user-field encoding, ports, interconnect blocks).  The vector engine
  counts the R/W traffic at its port; ``EngineResult`` turns the counts
  into the bus utilizations the figures report.
* :mod:`repro.controller` — the banked AXI-Pack memory controller with its
  five burst converters.
* :mod:`repro.vector` — the Ara-like vector engine with the paper's
  ``vlimxei``/``vsimxei`` extensions.
* :mod:`repro.system` — the BASE / PACK / IDEAL system-on-chip models and the
  simulation runner.
* :mod:`repro.workloads` — the six evaluation kernels (ismt, gemv, trmv,
  spmv, pagerank, sssp) and their data generators.
* :mod:`repro.hw` — calibrated area / timing / energy models.
* :mod:`repro.analysis` — one experiment driver per paper figure.
* :mod:`repro.orchestrate` — cacheable run specs and the parallel runner
  behind the CLI's ``--jobs`` / ``--cache`` / ``sweep`` features.

Quick start::

    from repro.system import SystemKind, run_workload
    from repro.workloads import make_workload

    wl = make_workload("gemv", size=64)
    result = run_workload(wl, kind=SystemKind.PACK)
    print(result.cycles, result.r_utilization)
"""

from repro.version import __version__

__all__ = ["__version__"]

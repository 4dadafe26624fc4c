"""Shared headline-grid geometry: workload sizing and memory classes.

One definition of "a grid point" for every consumer — the 48 cycle pins of
``tests/test_headline_pins.py``, the ``repro profile`` CLI subcommand,
perfbench (``perfbench/run.py``) and ``tools/census.py`` — so the
dense/sparse sizing rules and the SRAM/DRAM latency classes cannot drift
apart between the tools that pin, measure and explain a point.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.fig3 import _sizes
from repro.errors import ConfigurationError
from repro.system.config import SystemConfig, SystemKind

#: Workloads sized by dense matrix dimension (the rest take sparse rows).
DENSE_WORKLOADS = ("ismt", "gemv", "trmv")

#: The two memory classes of the headline grid (name -> memory_latency).
MEMORY_LATENCY: Dict[str, int] = {"sram": 1, "dram": 100}


def workload_spec_kwargs(workload: str, scale: str) -> dict:
    """Constructor kwargs for ``workload`` at ``scale`` (fig3 sizing rules).

    Raises :class:`~repro.errors.ConfigurationError` for an unknown scale.
    """
    dense_n, sparse_rows, nnz = _sizes(scale)
    if workload in DENSE_WORKLOADS:
        return dict(size=dense_n)
    return dict(size=sparse_rows, avg_nnz_per_row=min(nnz, sparse_rows))


def point_system_config(
    kind: SystemKind, latency: int, data_policy: str = "full"
) -> SystemConfig:
    """The system configuration of one headline grid point.

    The third parameter is kept for callers that still pass ``"full"``
    positionally; that is the simulator's only data plane, and any other
    value is rejected.
    """
    if data_policy != "full":
        raise ConfigurationError(
            f"unknown data policy {data_policy!r}; only 'full' is simulated"
        )
    return SystemConfig(kind=kind, memory_latency=latency)

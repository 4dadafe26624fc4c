"""Evaluation systems: BASE, PACK and IDEAL SoC models (paper §III-A)."""

from repro.system.config import SystemConfig, SystemKind
from repro.system.soc import Soc, build_system
from repro.system.results import SystemRunResult
from repro.system.runner import (
    compare_systems,
    compare_systems_many,
    run_workload,
    run_workload_all_systems,
)

__all__ = [
    "SystemConfig",
    "SystemKind",
    "Soc",
    "build_system",
    "SystemRunResult",
    "run_workload",
    "run_workload_all_systems",
    "compare_systems",
    "compare_systems_many",
]

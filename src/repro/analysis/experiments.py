"""Experiment registry: map figure ids to their drivers."""

from __future__ import annotations

import inspect
from typing import Callable, Mapping

from repro.analysis import contention, fig3, fig4, fig5, pareto
from repro.analysis.report import ExperimentTable
from repro.errors import ConfigurationError

#: Every reproduced figure, keyed by its id in the paper, plus the
#: beyond-the-paper scenario sweeps (``contention``, ``pareto``).
EXPERIMENTS: Mapping[str, Callable[..., ExperimentTable]] = {
    "fig3a": fig3.figure_3a,
    "fig3b": fig3.figure_3b,
    "fig3c": fig3.figure_3c,
    "fig3d": fig3.figure_3d,
    "fig3e": fig3.figure_3e,
    "fig4a": fig4.figure_4a,
    "fig4b": fig4.figure_4b,
    "fig4c": fig4.figure_4c,
    "fig5a": fig5.figure_5a,
    "fig5b": fig5.figure_5b,
    "fig5c": fig5.figure_5c,
    "contention": contention.figure_contention,
    "pareto": pareto.figure_pareto,
}

def _driver_accepts(driver, parameter: str) -> bool:
    """Whether the driver's signature takes the given keyword."""
    return parameter in inspect.signature(driver).parameters


def run_experiment(name: str, scale: str = "small", runner=None, config=None,
                   **kwargs) -> ExperimentTable:
    """Run one experiment by figure id and return its result table.

    ``scale``, ``runner`` (a
    :class:`repro.orchestrate.parallel.ParallelRunner`, enabling result
    caching, parallel execution and a per-spec timeout) and ``config`` (a
    :class:`repro.system.config.SystemConfig`) are forwarded to every
    driver whose signature accepts them — the simulation-based ones; the
    analytic area / timing figures compute in microseconds, take none of
    them, and stay serial.  Drivers need no fault-handling code of their
    own: timeouts and lost workers are handled behind ``runner.run``.
    """
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        )
    driver = EXPERIMENTS[name]
    if runner is not None and _driver_accepts(driver, "runner"):
        kwargs["runner"] = runner
    if config is not None and _driver_accepts(driver, "config"):
        kwargs["config"] = config
    if _driver_accepts(driver, "scale"):
        kwargs["scale"] = scale
    return driver(**kwargs)

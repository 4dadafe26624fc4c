"""Named experiment subsets run through one shared runner and cache.

The CLI's ``sweep`` subcommand resolves its arguments here: any subset of
the figure ids registered in :data:`repro.analysis.experiments.EXPERIMENTS`
(or the shorthand ``all``) runs through a single
:class:`~repro.orchestrate.parallel.ParallelRunner`, so the process pool and
result cache are shared across every experiment in the sweep.

To add a new experiment to the sweep registry, register its driver in
``EXPERIMENTS``; if it runs simulations, give it a ``runner`` keyword —
``run_experiment`` forwards the sweep's runner to any driver whose
signature accepts one (see ``docs/orchestration.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.orchestrate.parallel import ParallelRunner

#: Shorthand accepted by ``expand_sweep`` for every registered experiment.
ALL = "all"


def available_experiments() -> List[str]:
    """Sorted figure ids the sweep can run."""
    from repro.analysis.experiments import EXPERIMENTS

    return sorted(EXPERIMENTS)


def expand_sweep(names: Iterable[str]) -> List[str]:
    """Validate and normalize a sweep request.

    ``all`` expands to every registered experiment; duplicates collapse to
    the first occurrence; unknown ids raise ``ConfigurationError``.
    """
    known = available_experiments()
    expanded: List[str] = []
    for name in names:
        targets = known if name == ALL else [name]
        if name != ALL and name not in known:
            raise ConfigurationError(
                f"unknown experiment {name!r}; available: {known + [ALL]}"
            )
        for target in targets:
            if target not in expanded:
                expanded.append(target)
    if not expanded:
        raise ConfigurationError("empty sweep: name at least one experiment")
    return expanded


def run_sweep(names: Sequence[str], scale: str = "small",
              runner: Optional[ParallelRunner] = None,
              config=None) -> Dict[str, object]:
    """Run a subset of experiments; returns ``{figure id: ExperimentTable}``.

    Tables come back in the order the (expanded) names were given.  The same
    ``runner`` — and therefore the same cache statistics, process pool and
    per-spec timeout — is used for every experiment in the sweep.  A spec
    that times out or loses its worker raises
    :class:`~repro.errors.SpecFailedError`; the results already in the
    runner's cache survive, so running the same sweep again executes only
    what is missing.  ``config`` (a
    :class:`~repro.system.config.SystemConfig`) is forwarded to every
    driver that accepts one.
    """
    from repro.analysis.experiments import run_experiment
    from repro.orchestrate.cache import MemoryCache

    if runner is None:
        # The default runner gets an in-memory cache so identical runs are
        # deduplicated across the sweep's experiments (e.g. fig4c reuses
        # fig3a's simulations) without writing anything to disk.  A
        # caller-supplied runner is used exactly as given — attach a
        # MemoryCache (as the CLI does) to opt into the same dedup.
        runner = ParallelRunner(cache=MemoryCache())
    tables: Dict[str, object] = {}
    for name in expand_sweep(names):
        tables[name] = run_experiment(name, scale=scale, runner=runner,
                                      config=config)
    return tables

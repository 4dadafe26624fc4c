"""Experiment orchestration: cacheable run specs and a parallel runner.

Every multi-run experiment in :mod:`repro.analysis` is a grid of independent
simulations — (workload, system) pairs for the Fig. 3 drivers, controller
testbench sweeps for Fig. 5.  This package turns each point of such a grid
into a declarative, picklable *spec* that

* canonically hashes to a stable cache key (:mod:`repro.orchestrate.spec`),
* round-trips its result through JSON (:mod:`repro.orchestrate.serialize`),
* can be persisted in an on-disk cache (:mod:`repro.orchestrate.cache`), and
* can be fanned out across cores (:mod:`repro.orchestrate.parallel`), where
  a per-spec timeout or a lost worker ends the batch with one structured
  record per spec instead of a hang.

:mod:`repro.orchestrate.sweep` ties it together: named experiment subsets
runnable through one shared cache and process pool (the CLI ``sweep``
subcommand).
"""

from repro.orchestrate.cache import CacheStats, ResultCache, default_cache_dir
from repro.orchestrate.parallel import ParallelRunner, RunProgress, SpecOutcome
from repro.orchestrate.spec import RunSpec, UtilizationSpec, WorkloadSpec
from repro.orchestrate.sweep import expand_sweep, run_sweep

__all__ = [
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "ParallelRunner",
    "RunProgress",
    "RunSpec",
    "SpecOutcome",
    "UtilizationSpec",
    "WorkloadSpec",
    "expand_sweep",
    "run_sweep",
]

"""Adversarial program fuzzing: random legal kernels vs a functional oracle.

The package has four layers:

* :mod:`repro.fuzz.case` — the serializable case description
  (:class:`~repro.fuzz.case.FuzzCase`), its normalization into concrete
  addresses/index arrays, and lowering into builder programs;
* :mod:`repro.fuzz.oracle` — a pure-python functional interpreter that
  predicts final memory and register-file contents with zero timing;
* :mod:`repro.fuzz.runner` — the differential harness that executes a case
  across the configuration cube (event/naive engine on the 1-engine,
  2-engine and 2-engine x 2-channel topologies) and checks
  every point against the oracle and against each other;
* :mod:`repro.fuzz.strategies` — seeded hypothesis strategies over the
  case space (imported lazily so the core harness works without hypothesis,
  e.g. when replaying committed corpus cases).
"""

from repro.fuzz.case import (
    FuzzCase,
    OpSpec,
    build_case_programs,
    case_from_dict,
    case_to_dict,
    initialize_image,
    load_corpus_case,
    plan_case,
    save_corpus_case,
)
from repro.fuzz.oracle import interpret_program
from repro.fuzz.runner import FuzzDivergence, fuzz_main, run_fuzz_case

__all__ = [
    "FuzzCase",
    "OpSpec",
    "FuzzDivergence",
    "build_case_programs",
    "case_from_dict",
    "case_to_dict",
    "initialize_image",
    "interpret_program",
    "load_corpus_case",
    "plan_case",
    "run_fuzz_case",
    "save_corpus_case",
    "fuzz_main",
]

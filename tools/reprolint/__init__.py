"""reprolint: repo-native static analysis for the AXI-Pack reproduction.

The simulator's correctness story rests on invariants that used to be
enforced only by reviewer vigilance: bit-identical determinism across the
event/naive engine modes, cache fingerprints that cover every
``SystemConfig`` field, and ``__slots__`` discipline on hot-path records.
This package turns each of those hand-kept rules into a machine-checked
analysis pass:

* :mod:`tools.reprolint.core` — the driver: file contexts, the rule
  registry, per-line ``# reprolint: disable=RULE[: reason]`` suppressions
  (themselves reported), human and ``--json`` output, stable exit codes.
* :mod:`tools.reprolint.rules` — the rule battery (determinism, ordering,
  fingerprint completeness, hot-path contracts, deprecation, documentation
  drift).
* ``manifest.json`` / ``fingerprint_manifest.json`` — committed manifests:
  the explicit allowlists and the fingerprint field-set pin, kept in the
  tree so every exemption shows up in diff review.

Entry points::

    python -m tools.reprolint [--json]     # from the repository root
    repro lint [--json]                    # the CLI subcommand

Exit codes: 0 clean, 1 violations found, 2 configuration/internal error.
"""

from tools.reprolint.core import (  # public API re-export
    LintConfig,
    LintResult,
    RepoContext,
    Violation,
    run_lint,
)
